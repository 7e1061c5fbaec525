"""The flight recorder: the recent decision-path events, dumped on anomalies.

Sampling (:mod:`repro.obs.sampling`) bounds the *steady-state* telemetry
cost, but the events an operator actually needs — the ones leading up to
an anomaly — are exactly the ones a sampler may have skipped. The flight
recorder closes that gap the way an aircraft FDR does: it hears every
decision, sampled or not, and only materialises output when something
goes wrong.

* The ring is the last ``capacity`` flight events: decisions, alarms,
  checkpoints and restores, and whatever :meth:`FlightRecorder.record`
  adds (SLO breaches). They are rows of an event log
  (:mod:`repro.obs.trace`): attached to the observer seam, its ``decide``,
  ``alarm`` and ``engine:*`` rows, and :meth:`~FlightRecorder.record`
  writes a row the trace skips (to a private log when on its own). The
  log hands the recorder its rows when it is read or dumps, and before
  they retire; the ring keeps the last ``capacity`` of them.
* On an anomaly — alarm raised, engine restore, SLO breach, fuzz
  invariant failure — :meth:`~FlightRecorder.trigger` takes a **dump**: a
  ``(reason, simulated time, events)`` point whose events are a copy of
  the ring. The newest ``max_dumps`` are kept, and rendered only when
  read (the ``flight`` section of ``jury-repro report``).
* Determinism: events carry only simulated time and decision facts, and
  the JSON rendering sorts keys, so two runs of the same scenario produce
  byte-identical dumps. Like every observer, the recorder never mutates
  validator state, schedules events, or draws randomness.

The fuzz oracle attaches the payload to its counterexample artifacts, so
a surviving counterexample ships with the event window around its
violation.
"""

from __future__ import annotations

import json
from collections import deque
from typing import Dict, List, Tuple

from repro.obs import trace as obs_trace

#: Flight-dump format marker / version (bump on incompatible change).
FLIGHT_FORMAT = "jury-flight"
FLIGHT_VERSION = 1


def _event(log, at: float, key, value: float,
           code: int) -> Dict[str, object]:
    """A flight event from a row of ``log`` for trigger id ``key`` (keyed
    by its ``repr``, so a dump reads the same from a live tuple or a
    reloaded string key)."""
    stage, verdict, detail, attrs, facts = log.decode(code)
    attrs = dict(attrs)
    if stage == obs_trace.DECIDE:
        kind, detail, attrs = "decision", "", {
            "external": attrs["external"], "timed_out": verdict == "timeout",
            "n": attrs["n_responses"], "detection_ms": value}
        verdict = "alarmed" if facts is not None and facts[2] else "ok"
    elif stage == obs_trace.ENGINE_CHECKPOINT:
        kind, verdict = "checkpoint", "taken"
        attrs = {"body_bytes": attrs["body_bytes"]}
    elif stage == obs_trace.ENGINE_RESTORE:
        kind, verdict = "restore", "restored"
    else:
        kind = stage
    return {"t": at, "kind": kind,
            "key": key if isinstance(key, str) else repr(key),
            "verdict": verdict, "detail": detail, "attrs": attrs}


class FlightRecorder:
    """A view of recent flight events plus anomaly-triggered dumps."""

    def __init__(self, capacity: int = 256, max_dumps: int = 8):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1: {capacity}")
        if max_dumps < 1:
            raise ValueError(f"max_dumps must be >= 1: {max_dumps}")
        self.capacity = capacity
        self.max_dumps = max_dumps
        #: The last flight events, as ``(t, trigger id, value, code)``
        #: rows (:meth:`repro.obs.trace.Rows.flight`), and how many there
        #: were; ``(reason, at, rows)`` per kept dump.
        self._ring: deque = deque(maxlen=capacity)
        self._events = 0
        self._dumps: deque = deque(maxlen=max_dumps)
        self.dumps_triggered = 0
        #: The event log read.
        self._log = None

    # ------------------------------------------------------------------
    # Events and anomaly triggers
    # ------------------------------------------------------------------
    def record(self, at: float, kind: str, key, verdict: str = "",
               detail: str = "", **attrs: object) -> None:
        """Add one event (``key``: a trigger id, or a tuple such as
        ``("slo", rule)``) to the ring, as a log row the trace skips."""
        if self._log is None:
            obs_trace.attach(self, obs_trace.Tracer())
        self._log.record(at, key, self._log.hidden(
            self._log.shape(kind, verdict, detail, attrs)))

    def trigger(self, reason: str, at: float) -> Tuple:
        """Take a dump of the ring as it is now; returns the dump point.

        Consecutive triggers with the same reason at the same simulated
        instant coalesce into one dump (a burst of alarms from one decision
        batch is one anomaly, not twenty). The dump's events are rendered
        only at export (:attr:`dumps` / :meth:`payload`), and only for
        dumps that survive the ``max_dumps`` eviction window.
        """
        if self._dumps:
            last = self._dumps[-1]
            if last[0] == reason and last[1] == at:
                return last
        self.dumps_triggered += 1
        self._catch_up()
        dump = (reason, at, tuple(self._ring))
        self._dumps.append(dump)
        return dump

    def _catch_up(self) -> None:
        if self._log is not None:
            self._log.fold(self)

    def fold(self, rows) -> None:
        """Count the flight events among rows of the log
        (:func:`repro.obs.trace.attach`) and keep the last ones."""
        events, last = rows.flight(self.capacity)
        self._events += events
        self._ring.extend(last)

    @property
    def events_recorded(self) -> int:
        """Flight events heard so far (the ring holds the last ones)."""
        self._catch_up()
        return self._events

    # ------------------------------------------------------------------
    # Introspection / export
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        self._catch_up()
        return len(self._ring)

    @property
    def dumps(self) -> List[Dict[str, object]]:
        return [{"reason": reason, "at": at,
                 "events": [_event(self._log, *row) for row in rows]}
                for reason, at, rows in self._dumps]

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
            "ring": [_event(self._log, *row) for row in self._ring],
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
