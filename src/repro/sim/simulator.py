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
* Every experiment's wall time runs through this loop, so the kernel is
  kept lean: the scheduled :class:`~repro.sim.events.Event` is its own
  handle, and ``now`` is a plain attribute.
"""

from __future__ import annotations

import itertools
import random
from collections import defaultdict
from heapq import heappop, heappush
from math import inf
from typing import Callable, List, Optional, Tuple

from repro.errors import SimulationError
from repro.sim.events import Event


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
        #: Current simulated time in milliseconds (read-only by convention).
        self.now = 0.0
        self._running = False
        self._events_fired = 0
        self.rng = random.Random(seed)
        self._seed = seed
        self._numbering = defaultdict(lambda: itertools.count(1))

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
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

    def next_number(self, label: str) -> int:
        """Next value of this simulator's ``label`` sequence, from 1.

        Like :meth:`fork_rng`, a sequence belongs to one experiment: ids
        numbered here (trigger ids τ) do not depend on what earlier runs
        in the same process numbered.
        """
        return next(self._numbering[label])

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(self, delay: float, callback: Callable[..., None], *args) -> Event:
        """Schedule ``callback(*args)`` to run ``delay`` ms from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule {delay} ms in the past")
        return self.schedule_at(self.now + delay, callback, *args)

    def schedule_at(self, time: float, callback: Callable[..., None], *args) -> Event:
        """Schedule ``callback(*args)`` at absolute simulated time ``time``."""
        # Written as ``not >=`` so that NaN, which compares False both ways
        # and would sit unordered in the heap, is rejected too.
        if not time >= self.now:
            raise SimulationError(
                f"cannot schedule at t={time} ms; current time is {self.now} ms"
            )
        event = Event(time, callback, args)
        heappush(self._heap, (time, next(self._seq), event))
        return event

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def step(self) -> bool:
        """Fire the single next pending event.

        Returns ``True`` if an event fired, ``False`` if the queue was empty.
        """
        while self._heap:
            time, _, event = heappop(self._heap)
            if event.cancelled:
                continue
            self.now = time
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
        heap = self._heap
        horizon = inf if until is None else until
        budget = inf if max_events is None else max_events
        try:
            while heap:
                entry = heappop(heap)
                event = entry[2]
                if event.cancelled:
                    continue
                time = entry[0]
                if time > horizon or budget <= 0:
                    heappush(heap, entry)  # not this run's to fire
                    break
                self.now = time
                self._events_fired += 1
                budget -= 1
                event.callback(*event.args)
            if until is not None and self.now < until:
                self.now = until
        finally:
            self._running = False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Simulator(now={self.now:.3f} ms, pending={self.pending})"
