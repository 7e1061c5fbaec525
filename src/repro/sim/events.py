"""The event record of the discrete-event simulator.

An :class:`Event` is both the simulator's record of one scheduled callback
and the caller's handle on it: :meth:`Simulator.schedule` returns the
event itself, which reports its firing ``time``, whether it was
``cancelled``, and can :meth:`~Event.cancel` itself.
"""

from __future__ import annotations

from typing import Any, Callable, Tuple


class Event:
    """A scheduled callback, and the handle the scheduler returns for it.

    The simulator orders its queue on ``(time, seq, event)`` tuples, where
    ``seq`` is unique per simulator: events scheduled for the same instant
    fire in FIFO order — a property several protocols in this library
    (TCP-ordered cache update delivery, in-order trigger replication) rely
    on — and events themselves are never compared.
    """

    __slots__ = ("time", "callback", "args", "cancelled")

    def __init__(self, time: float, callback: Callable[..., None],
                 args: Tuple[Any, ...]):
        self.time = time
        self.callback = callback
        self.args = args
        self.cancelled = False

    def cancel(self) -> None:
        """Prevent the event from firing.

        Cancelling an already-cancelled or already-fired event is a no-op;
        cancellation is lazy (the heap entry is skipped when popped).
        """
        self.cancelled = True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "pending"
        return f"Event(t={self.time:.3f}, {state})"
