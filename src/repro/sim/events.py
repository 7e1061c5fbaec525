"""Event records for the discrete-event simulator.

An :class:`Event` is the simulator's internal record of one scheduled
callback. Callers interact with an :class:`EventHandle`, which supports
cancellation and status queries but hides heap bookkeeping.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Tuple


@dataclass
class Event:
    """A scheduled callback, fired in ``(time, seq)`` order.

    ``seq`` is a monotonically increasing tie-breaker so that events scheduled
    for the same instant fire in FIFO order — a property several protocols in
    this library (TCP-ordered cache update delivery, in-order trigger
    replication) rely on. The simulator orders its queue on a
    ``(time, seq, event)`` tuple, so events themselves are never compared.
    """

    time: float
    seq: int
    callback: Callable[..., None] = field(compare=False)
    args: Tuple[Any, ...] = field(compare=False, default=())
    cancelled: bool = field(compare=False, default=False)


class EventHandle:
    """Caller-facing handle for a scheduled event."""

    __slots__ = ("_event",)

    def __init__(self, event: Event):
        self._event = event

    @property
    def time(self) -> float:
        """Simulated time at which the event fires."""
        return self._event.time

    @property
    def cancelled(self) -> bool:
        """True if :meth:`cancel` was called before the event fired."""
        return self._event.cancelled

    def cancel(self) -> None:
        """Prevent the event from firing.

        Cancelling an already-cancelled or already-fired event is a no-op;
        cancellation is lazy (the heap entry is skipped when popped).
        """
        self._event.cancelled = True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "pending"
        return f"EventHandle(t={self.time:.3f}, {state})"
