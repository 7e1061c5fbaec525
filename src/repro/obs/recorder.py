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
  writes a row the trace skips (to a private log when on its own).
* On an anomaly — alarm raised, engine restore, SLO breach, fuzz
  invariant failure — :meth:`~FlightRecorder.trigger` marks a **dump**: a
  ``(reason, simulated time, log position)`` point whose events are the last
  ``capacity`` flight events before that position. The newest
  ``max_dumps`` are kept, and rendered only when read (the ``flight``
  section of ``jury-repro report``). Before the log retires rows, a kept
  dump older than the ring's window copies its ``capacity`` rows; the ring
  and the younger dumps keep theirs in the log.
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
from typing import Dict, List, Optional, Tuple

from repro.obs import trace as obs_trace

#: Flight-dump format marker / version (bump on incompatible change).
FLIGHT_FORMAT = "jury-flight"
FLIGHT_VERSION = 1


def _event(log, at: float, key, code: int,
           value: float) -> Dict[str, object]:
    """A flight event from a row of ``log`` for trigger id ``key`` (keyed
    by its ``repr``, so a dump reads the same from a live tuple or a
    reloaded string key)."""
    hidden = code < 0
    plain = ~code if hidden else code
    stage, verdict, detail, attrs = log._shapes[plain & obs_trace._SHAPE_MASK]
    facts = log._facts[plain >> obs_trace.FACTS_SHIFT]
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
        #: ``(reason, at, end)``: ``end`` is the log position the dump's
        #: window ends at, or, once rows before it have retired, the
        #: window's events as ``(t, trigger id, code, value)`` rows.
        self._dumps: deque = deque(maxlen=max_dumps)
        self.dumps_triggered = 0
        #: The event log read from position ``_start`` on, and how many
        #: flight events it held up to position ``_counted``.
        self._log, self._start = None, 0
        self._counted = self._events = 0

    # ------------------------------------------------------------------
    # Events and anomaly triggers
    # ------------------------------------------------------------------
    def record(self, at: float, kind: str, key, verdict: str = "",
               detail: str = "", **attrs: object) -> None:
        """Add one event (``key``: a trigger id, or a tuple such as
        ``("slo", rule)``) to the ring, as a log row the trace skips."""
        if self._log is None:
            obs_trace.attach(self, obs_trace.Tracer())
        self._log.record(at, key, ~self._log.shape(kind, verdict, detail,
                                                   attrs))

    def trigger(self, reason: str, at: float) -> Tuple:
        """Mark a dump at the log's current end; returns the dump point.

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
        dump = (reason, at, self._end())
        self._dumps.append(dump)
        return dump

    def _end(self) -> int:
        return 0 if self._log is None else self._log._end()

    @property
    def events_recorded(self) -> int:
        """Flight events heard so far (the ring holds the last ones)."""
        return self._count()

    def _count(self) -> int:
        log = self._log
        if log is not None and self._counted < log._end():
            self._events += sum(count for code, count in log._tally(
                max(self._counted, self._start)).items()
                if obs_trace.FLIGHT[log._kinds[code]])
            self._counted = log._end()
        return self._events

    def _positions(self, position: int, events: int) -> List[int]:
        """Log positions of the last ``events`` flight events before
        ``position``, newest first (searched a block of rows at a time)."""
        log, found = self._log, []
        if log is None:
            return found
        floor = max(self._start, log._cut) - log._base
        top, kinds = position - log._base, log._kinds_from(log._base)
        while top > floor and len(found) < events:
            low = max(floor, top - 16 * self.capacity)
            heard = kinds[low:top].translate(obs_trace.FLIGHT)
            index = len(heard)
            while len(found) < events:
                index = heard.rfind(1, 0, index)
                if index < 0:
                    break
                found.append(low + index + log._base)
            top = low
        return found

    def _reach(self, position: int) -> int:
        """Where the window of the ring ending at log ``position`` starts."""
        found = self._positions(position, self.capacity)
        return (found[-1] if len(found) == self.capacity
                else max(self._start, self._log._cut))

    def _rows(self, position: int) -> List[tuple]:
        """The last ``capacity`` flight events before log ``position``, as
        ``(t, trigger id, code, value)`` rows, oldest first."""
        log, rows = self._log, []
        for index in reversed(self._positions(position, self.capacity)):
            index -= log._base
            rows.append((log._at[index], log._triggers[log._trigger[index]],
                         log._code[index], log._value[index]))
        return rows

    def _window(self, end) -> List[Dict[str, object]]:
        """A window's events: of the rows before log position ``end``, or
        the rows a dump kept."""
        rows = self._rows(end) if isinstance(end, int) else end
        return [_event(self._log, *row) for row in rows]

    def _retire(self, cut: int) -> int:
        """Count every row in, and let a kept dump older than the ring's
        window copy its rows; return where the ring's window, or a younger
        dump's, starts (if before ``cut``)."""
        self._count()
        keep = ring = self._reach(self._log._end())
        for index, (reason, at, end) in enumerate(self._dumps):
            if isinstance(end, int):
                if end >= ring:  # (and so are the younger dumps)
                    keep = min(keep, self._reach(end))
                    break
                self._dumps[index] = (reason, at, tuple(self._rows(end)))
        return min(cut, keep)

    # ------------------------------------------------------------------
    # Introspection / export
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return min(self.capacity, self.events_recorded)

    @property
    def dumps(self) -> List[Dict[str, object]]:
        return [{"reason": reason, "at": at, "events": self._window(end)}
                for reason, at, end in self._dumps]

    def last_dump(self) -> Optional[Dict[str, object]]:
        return self.dumps[-1] if self._dumps else None

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
            "ring": self._window(self._end()),
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
