"""The flight recorder: a fixed-size ring of recent decision-path events.

Sampling (:mod:`repro.obs.sampling`) bounds the *steady-state* telemetry
cost, but the events an operator actually needs — the ones leading up to
an anomaly — are exactly the ones a sampler may have skipped. The flight
recorder closes that gap the way an aircraft FDR does: it is **always
on**, it costs one bounded-deque append per decision (near zero), and it
only materialises output when something goes wrong.

* The ring holds the last ``capacity`` events: decision events (span-
  shaped: stage, verdict, detail, attrs), alarms, checkpoints and
  restores, SLO breaches, and metric deltas. Old events fall off the
  back; memory is O(capacity) forever.
* On an anomaly trigger — alarm raised, engine restore, SLO breach, fuzz
  invariant failure — :meth:`trigger` freezes a copy of the ring into a
  **dump**: a JSON-able payload stamped with the simulated
  time and the reason. Dumps are kept in a bounded list (oldest evicted)
  and exported with :meth:`FlightRecorder.payload` (the ``flight``
  section of ``jury-repro report``).
* Determinism: events carry only simulated time and decision facts (no
  wall clock, no object ids), and the JSON rendering sorts keys — two
  runs of the same scenario produce byte-identical dumps, which the test
  suite asserts. The recorder is an observer under the purity contract:
  it never mutates validator state, schedules events, or draws
  randomness; decision code feeds it only through :meth:`record` and
  :meth:`trigger`.

A report carries the payload, and the fuzz oracle attaches it to its
counterexample artifacts, so a surviving counterexample ships with the
event window around its violation.
"""

from __future__ import annotations

import json
from collections import deque
from typing import Dict, List, Optional, Tuple

#: Flight-dump format marker / version (bump on incompatible change).
FLIGHT_FORMAT = "jury-flight"
FLIGHT_VERSION = 1


class FlightRecorder:
    """Bounded ring buffer of recent events plus anomaly-triggered dumps."""

    def __init__(self, capacity: int = 256, max_dumps: int = 8):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1: {capacity}")
        if max_dumps < 1:
            raise ValueError(f"max_dumps must be >= 1: {max_dumps}")
        self.capacity = capacity
        self.max_dumps = max_dumps
        self._ring: deque = deque(maxlen=capacity)
        self._dumps: deque = deque(maxlen=max_dumps)
        self.events_recorded = 0
        self.dumps_triggered = 0

    # ------------------------------------------------------------------
    # Hot-path hook (append-only; called from the decision path)
    # ------------------------------------------------------------------
    def record(self, at: float, kind: str, key, verdict: str = "",
               detail: str = "", **attrs: object) -> None:
        """Append one event to the ring. Near-zero cost, never fails.

        ``key`` is the trigger id (or an ``("engine", stage)`` tuple for
        checkpoint/restore events); it is serialised as its ``repr`` at
        export time so dumps read identically whether the event came from
        a live tuple or a reloaded string key. Serialisation work (repr,
        canonical attr order) is deferred to export on purpose: this
        method runs once per decision on the always-on path, so its cost
        is one tuple construction and one bounded-deque append.
        """
        self.events_recorded += 1
        self._ring.append((at, kind, key, verdict, detail, attrs))

    # ------------------------------------------------------------------
    # Anomaly triggers
    # ------------------------------------------------------------------
    def trigger(self, reason: str, at: float) -> Tuple:
        """Freeze the current ring into a dump; returns the frozen record.

        Consecutive triggers with the same reason at the same simulated
        instant coalesce into one dump (a burst of alarms from one decision
        batch is one anomaly, not twenty). The freeze is a shallow tuple
        copy of the ring — hot-path cost stays O(capacity) pointer copies;
        the JSON-able event dicts are only materialised at export
        (:attr:`dumps` / :meth:`payload`), and only for dumps that survive
        the ``max_dumps`` eviction window.
        """
        if self._dumps:
            last = self._dumps[-1]
            if last[0] == reason and last[1] == at:
                return last
        self.dumps_triggered += 1
        dump = (reason, at, tuple(self._ring))
        self._dumps.append(dump)
        return dump

    @staticmethod
    def _event_dict(event: Tuple) -> Dict[str, object]:
        at, kind, key, verdict, detail, attrs = event
        return {"t": at, "kind": kind,
                "key": key if isinstance(key, str) else repr(key),
                "verdict": verdict, "detail": detail, "attrs": dict(attrs)}

    @classmethod
    def _dump_dict(cls, dump: Tuple) -> Dict[str, object]:
        reason, at, events = dump
        return {"reason": reason, "at": at,
                "events": [cls._event_dict(event) for event in events]}

    # ------------------------------------------------------------------
    # Introspection / export
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._ring)

    @property
    def dumps(self) -> List[Dict[str, object]]:
        return [self._dump_dict(dump) for dump in self._dumps]

    def last_dump(self) -> Optional[Dict[str, object]]:
        return self._dump_dict(self._dumps[-1]) if self._dumps else None

    def payload(self, now: float = 0.0,
                metrics=None) -> Dict[str, object]:
        """Full JSON-able export: ring, dumps, and counters.

        ``now`` is the simulated clock at export time (injected — the
        recorder never reads a clock itself, which is what keeps dumps
        byte-identical across runs). ``metrics`` may be a
        :class:`~repro.obs.metrics.MetricsRegistry`; when given, a
        read-only counter snapshot rides along as the ring's "metric
        deltas since boot" companion.
        """
        payload: Dict[str, object] = {
            "format": FLIGHT_FORMAT,
            "version": FLIGHT_VERSION,
            "exported_at": now,
            "capacity": self.capacity,
            "events_recorded": self.events_recorded,
            "dumps_triggered": self.dumps_triggered,
            "ring": [self._event_dict(event) for event in self._ring],
            "dumps": self.dumps,
        }
        if metrics is not None:
            payload["metrics"] = {
                name: value for name, value in sorted(metrics.snapshot().items())}
        return payload

    def to_json(self, now: float = 0.0, metrics=None, indent: int = 2) -> str:
        return json.dumps(self.payload(now, metrics=metrics),
                          indent=indent, sort_keys=True)


def render_flight(payload: Dict[str, object], limit: int = 20) -> str:
    """Human rendering of a flight payload's tail (``jury-repro report``)."""
    lines = [f"flight recorder: {payload.get('events_recorded', 0)} events "
             f"recorded, {payload.get('dumps_triggered', 0)} dumps, "
             f"ring {len(payload.get('ring', []))}/"
             f"{payload.get('capacity', '?')}"]
    for dump in payload.get("dumps", []):
        lines.append(f"  dump reason={dump.get('reason')} "
                     f"at={dump.get('at'):.3f} "
                     f"events={len(dump.get('events', []))}")
    tail = payload.get("ring", [])[-limit:]
    if tail:
        lines.append(f"  last {len(tail)} events:")
        for event in tail:
            verdict = event.get("verdict") or "-"
            lines.append(f"    t={event.get('t'):.3f} {event.get('kind')} "
                         f"{event.get('key')} {verdict} "
                         f"{event.get('detail', '')}".rstrip())
    return "\n".join(lines)
