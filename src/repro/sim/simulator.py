"""The discrete-event simulator driving every experiment in this repo.

Design notes
------------
* Time is a ``float`` in **simulated milliseconds**. The paper reports
  detection times in ms and decapsulation overheads in µs; both fit
  comfortably (µs are fractional ms).
* A single global ``random.Random`` seeded per-simulation makes every run
  reproducible. Components must draw randomness only from ``sim.rng`` (or
  from :meth:`Simulator.fork_rng` streams) — never the module-level
  ``random``.
* Events at equal timestamps fire in scheduling (FIFO) order; the validator's
  in-order processing of cache updates depends on this.
* The queue holds ``(time, seq, event)`` tuples, so ``heapq`` orders entries
  with C tuple comparison. ``seq`` is unique per simulator, which settles
  every comparison before the event itself would be looked at.
"""

from __future__ import annotations

import heapq
import itertools
import random
from typing import Callable, List, Optional, Tuple

from repro.errors import SimulationError
from repro.sim.events import Event, EventHandle


class Simulator:
    """A minimal, fast discrete-event simulation kernel.

    Parameters
    ----------
    seed:
        Seed for the simulation-wide random number generator. Two simulators
        constructed with the same seed and driven by the same schedule of
        calls produce identical traces.
    """

    def __init__(self, seed: int = 0):
        self._heap: List[Tuple[float, int, Event]] = []
        self._seq = itertools.count()
        self._now = 0.0
        self._running = False
        self._events_fired = 0
        self.rng = random.Random(seed)
        self._seed = seed

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulated time in milliseconds."""
        return self._now

    @property
    def seed(self) -> int:
        """The seed this simulator was constructed with."""
        return self._seed

    @property
    def pending(self) -> int:
        """Number of not-yet-fired, not-cancelled events in the queue."""
        return sum(1 for _, _, event in self._heap if not event.cancelled)

    @property
    def events_fired(self) -> int:
        """Total number of events executed so far."""
        return self._events_fired

    def fork_rng(self, label: str) -> random.Random:
        """Return an independent RNG stream derived from the base seed.

        Giving each stochastic component its own stream keeps runs
        reproducible even when components are added or reordered.
        """
        return random.Random(f"{self._seed}/{label}")

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(self, delay: float, callback: Callable[..., None], *args) -> EventHandle:
        """Schedule ``callback(*args)`` to run ``delay`` ms from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule {delay} ms in the past")
        return self.schedule_at(self._now + delay, callback, *args)

    def schedule_at(self, time: float, callback: Callable[..., None], *args) -> EventHandle:
        """Schedule ``callback(*args)`` at absolute simulated time ``time``."""
        # Written as ``not >=`` so that NaN, which compares False both ways
        # and would sit unordered in the heap, is rejected too.
        if not time >= self._now:
            raise SimulationError(
                f"cannot schedule at t={time} ms; current time is {self._now} ms"
            )
        seq = next(self._seq)
        event = Event(time=time, seq=seq, callback=callback, args=args)
        heapq.heappush(self._heap, (time, seq, event))
        return EventHandle(event)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def step(self) -> bool:
        """Fire the single next pending event.

        Returns ``True`` if an event fired, ``False`` if the queue was empty.
        """
        while self._heap:
            time, _, event = heapq.heappop(self._heap)
            if event.cancelled:
                continue
            self._now = time
            self._events_fired += 1
            event.callback(*event.args)
            return True
        return False

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> None:
        """Run until the queue drains, ``until`` is reached, or ``max_events`` fire.

        When ``until`` is given, the clock is advanced to exactly ``until``
        even if the last event fires earlier, so rate computations over a
        fixed window are exact.
        """
        if self._running:
            raise SimulationError("simulator is not reentrant")
        self._running = True
        fired = 0
        try:
            while self._heap:
                time, _, event = self._heap[0]
                if event.cancelled:
                    heapq.heappop(self._heap)
                    continue
                if until is not None and time > until:
                    break
                if max_events is not None and fired >= max_events:
                    break
                heapq.heappop(self._heap)
                self._now = time
                self._events_fired += 1
                fired += 1
                event.callback(*event.args)
            if until is not None and self._now < until:
                self._now = until
        finally:
            self._running = False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Simulator(now={self._now:.3f} ms, pending={self.pending})"
