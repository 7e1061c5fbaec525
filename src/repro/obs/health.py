"""Replica health scoring and SLO monitoring over simulated time.

:class:`ReplicaHealthTracker` scores every controller replica from three
rolling-window signals the validator already sees — how often the replica is
named as an alarm offender (disagreement rate), how often it fails to answer
a trigger that timed out (timeout-miss rate), and its response-lag
percentiles — and flags a *suspected-faulty* replica with hysteresis so a
single bad window cannot flap the flag.

The tracker is an order-independent pure function of its events, which
are rows of an event log (:mod:`repro.obs.trace`): a response is an
``ingest`` row (time, controller, lag) and a decision a ``decide`` row
that carries facts (time, responders, offenders, timed out). Attached to
the observer seam it reads the seam's log; on its own, its hooks
(:meth:`record_response`, :meth:`record_decision`) write those rows to a
private log. The log hands the tracker its rows before they retire, and
it folds every window boundary they have passed, keeping only what later
windows read. :meth:`evaluate` reads the rows not yet folded too, sorts
the events and replays the remaining boundaries, so the sequential
validator and the sharded pipeline produce identical health reports at
any shard count — the same determinism contract the tracer keeps. Like
every observer in ``repro.obs``, the tracker sits behind a ``None`` fast
path and cannot perturb decisions.

:class:`SloMonitor` evaluates a small catalog of threshold rules over a
:class:`~repro.obs.metrics.MetricsRegistry` snapshot — detection-latency
p95 and late-drop rate — on simulated time.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass, fields, replace
from itertools import compress
from typing import Dict, List, Optional, Sequence, Tuple

from repro.obs import trace as obs_trace

#: Health-score weights: disagreement, timeout-miss, lag (sum to 1).
DEFAULT_WEIGHTS = (0.5, 0.3, 0.2)


@dataclass(frozen=True)
class HealthReport:
    """Final health verdict for one replica at an evaluation horizon."""

    controller_id: str
    score: float
    disagreement_rate: float
    timeout_miss_rate: float
    lag_p50_ms: float
    lag_p95_ms: float
    responses: int
    decisions: int
    suspected: bool
    suspected_since: Optional[float] = None

    def to_dict(self) -> Dict[str, object]:
        return {spec.name: getattr(self, spec.name) for spec in fields(self)}


@dataclass
class _ReplicaWindow:
    """Mutable per-replica accumulator for one window evaluation."""

    offender: int = 0
    involved: int = 0
    expected_timeouts: int = 0
    missed_timeouts: int = 0
    lags: Optional[List[float]] = None


@dataclass
class _HysteresisState:
    suspect_streak: int = 0
    clear_streak: int = 0
    suspected: bool = False
    suspected_since: Optional[float] = None


class _Events:
    """What health reads of an event log's rows, as columns: responses with
    a lag ``(time, code, lag)``, decisions and the timed-out ones ``(time,
    code)``, plus first response times and per-replica totals."""

    def __init__(self) -> None:
        self.lagged = (array("d"), array("q"), array("d"))
        self.decided, self.timed_out = (array("d"), array("q")), (
            array("d"), array("q"))
        self.first_seen: Dict[str, float] = {}
        self.answered: Counter = Counter()
        self.involved: Counter = Counter()

    def add(self, other: "_Events") -> "_Events":
        for mine, theirs in zip(self.columns(), other.columns()):
            for column, more in zip(mine, theirs):
                column.extend(more)
        for cid, at in other.first_seen.items():
            self.first_seen[cid] = min(at, self.first_seen.get(cid, at))
        self.answered.update(other.answered)
        self.involved.update(other.involved)
        return self

    def columns(self):
        return self.lagged, self.decided, self.timed_out


class ReplicaHealthTracker:
    """Rolling-window replica health scores with hysteresis flagging."""

    def __init__(self, window_ms: float = 1000.0,
                 interval_ms: float = 250.0,
                 suspect_threshold: float = 0.5,
                 clear_threshold: float = 0.2,
                 suspect_after: int = 2,
                 clear_after: int = 2,
                 lag_budget_ms: float = 250.0,
                 weights: Tuple[float, float, float] = DEFAULT_WEIGHTS):
        if window_ms <= 0 or interval_ms <= 0:
            raise ValueError("window_ms and interval_ms must be positive")
        self.window_ms = window_ms
        self.interval_ms = interval_ms
        self.suspect_threshold = suspect_threshold
        self.clear_threshold = clear_threshold
        self.suspect_after = max(1, suspect_after)
        self.clear_after = max(1, clear_after)
        self.lag_budget_ms = lag_budget_ms
        self.weights = weights
        #: The event log read: the seam's, or a private one the hooks below
        #: write to.
        self._log = None
        #: What the folded rows left (see :meth:`fold`): the next boundary
        #: to fold, the last one folded and how many, each replica's
        #: hysteresis state after it, and the events a later window reads;
        #: and what a row of each code means (:meth:`_plan`).
        self._boundary, self._last, self._folds = interval_ms, None, 0
        self._states: Dict[str, _HysteresisState] = {}
        self._kept = _Events()
        self._plans: Dict[int, Optional[tuple]] = {}

    # ------------------------------------------------------------------
    # Hooks for a tracker used on its own (rows of a private log)
    # ------------------------------------------------------------------
    def _own_log(self) -> obs_trace.Tracer:
        if self._log is None:
            obs_trace.attach(self, obs_trace.Tracer())
        return self._log

    def record_response(self, now: float, controller_id: str,
                        lag_ms: Optional[float] = None) -> None:
        """One response ingested by the validator (engine-level, pre-queue)."""
        log = self._own_log()
        log.record(now, _KEY, log.shape(obs_trace.INGEST, None, "",
                                        {"controller": controller_id}),
                   obs_trace.NO_VALUE if lag_ms is None else lag_ms)

    def record_decision(self, now: float, responses: Sequence,
                        alarms: Sequence, timed_out: bool) -> None:
        """One trigger decided; extracts responders and alarm offenders."""
        log = self._own_log()
        log.record(now, _KEY, log.shape(
            obs_trace.DECIDE, "timeout" if timed_out else "full-count", "",
            {}) + log.facts(responses, alarms))

    # ------------------------------------------------------------------
    # Pure evaluation
    # ------------------------------------------------------------------
    def evaluate(self, now: float) -> Dict[str, HealthReport]:
        """Replay window boundaries up to ``now`` and score every replica.

        Deterministic: the events are sorted by time first, so any
        arrival-order difference between engines (or shard interleavings
        at the same simulated instant) evaluates identically. Boundaries
        folded before rows retired are not replayed, so ``now`` may not
        precede the last of them.
        """
        from repro.harness.metrics import percentile

        if self._last is not None and now < self._last:
            raise ValueError(f"replica health up to t={self._last:g} ms has "
                             f"been folded; evaluate at a later time")
        events = _Events().add(self._kept)
        if self._log is not None:
            events.add(self._read(self._log.unread(self)))
        for columns in events.columns():  # (in time order)
            order = sorted(range(len(columns[0])),
                           key=columns[0].__getitem__)
            for column in columns:
                column[:] = array(column.typecode,
                                  map(column.__getitem__, order))
        plans = self._plans
        replicas = sorted(set(self._states) | set(events.first_seen) | {
            cid for _, responders, offenders, _ in sorted(
                (at, *plans[code]) for at, code in zip(*events.decided))
            for cid in responders + offenders})
        hysteresis = {cid: replace(self._states[cid]) if cid in self._states
                      else self._fresh_state() for cid in replicas}
        last = (self._windows(events, self._last, replicas)
                if self._last is not None
                else {cid: _ReplicaWindow() for cid in replicas})
        boundary = self._boundary
        while boundary <= now:
            last = self._windows(events, boundary, replicas)
            for cid in replicas:
                self._advance_hysteresis(hysteresis[cid],
                                         self._score(last[cid]), boundary)
            boundary += self.interval_ms
        reports: Dict[str, HealthReport] = {}
        for cid in replicas:
            window = last[cid]
            lags = window.lags or []
            reports[cid] = HealthReport(
                controller_id=cid,
                score=self._score(window),
                disagreement_rate=_ratio(window.offender, window.involved),
                timeout_miss_rate=_ratio(window.missed_timeouts,
                                         window.expected_timeouts),
                lag_p50_ms=percentile(lags, 0.5) if lags else 0.0,
                lag_p95_ms=percentile(lags, 0.95) if lags else 0.0,
                responses=events.answered.get(cid, 0),
                decisions=events.involved.get(cid, 0),
                suspected=hysteresis[cid].suspected,
                suspected_since=hysteresis[cid].suspected_since)
        return reports

    def suspected(self, now: float) -> List[str]:
        """Replica ids currently flagged as suspected-faulty."""
        return [cid for cid, report in sorted(self.evaluate(now).items())
                if report.suspected]

    def snapshot(self, now: float) -> Dict[str, object]:
        """JSON-able health snapshot at ``now``."""
        return {"time_ms": now,
                "window_ms": self.window_ms,
                "replicas": {cid: report.to_dict()
                             for cid, report in
                             sorted(self.evaluate(now).items())}}

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    @staticmethod
    def _plan(stage, verdict, detail, attrs, facts) -> Optional[tuple]:
        """A row of this meaning as health reads it: ``(controller,)`` for a
        response, ``(responders, offenders, timed_out)`` for a decision
        with facts, else None."""
        if stage == obs_trace.INGEST:
            return (dict(attrs)["controller"],)
        if stage == obs_trace.DECIDE and facts is not None:
            return (*facts[:2], verdict == "timeout")
        return None

    def _read(self, rows) -> _Events:
        """The events of ``rows`` (a :class:`repro.obs.trace.Rows`)."""
        plans, events, fresh = self._plans, _Events(), set()
        for code, count, meaning in rows.tally:
            if code not in plans:
                plans[code] = self._plan(*meaning)
            plan = plans[code]
            if plan is None:
                continue
            if len(plan) == _RESPONSE:
                events.answered[plan[0]] += count
                if plan[0] not in self._kept.first_seen:
                    fresh.add(code)
            else:
                for cid in set(plan[0]) | set(plan[1]):
                    events.involved[cid] += count
        if fresh:  # first response times of replicas not seen before
            for seen, cid, _ in sorted(
                    (seen, plans[code][0], -1.0 if lag != lag else lag)
                    for seen, code, lag in rows.earliest(fresh)):
                events.first_seen.setdefault(cid, seen)
        events.decided, events.lagged = rows.decisions[:2], rows.lagged()
        timed_out = bytes(plans[code][2] for code in events.decided[1])
        events.timed_out = tuple(
            array(column.typecode, compress(column, timed_out))
            for column in events.decided)
        return events

    def _windows(self, events: _Events, boundary: float,
                 replicas) -> Dict[str, _ReplicaWindow]:
        """Each replica's window ending at ``boundary``."""
        floor, plans = boundary - self.window_ms, self._plans
        windows = {cid: _ReplicaWindow() for cid in replicas}
        times, codes, lags = events.lagged
        lo, hi = bisect_left(times, floor), bisect_left(times, boundary)
        for code, lag in zip(codes[lo:hi], lags[lo:hi]):
            window = windows[plans[code][0]]
            if window.lags is None:
                window.lags = []
            window.lags.append(lag)
        times, codes = events.decided
        for code, count in Counter(codes[bisect_left(times, floor):
                                         bisect_left(times, boundary)]
                                   ).items():
            responders, offenders, _ = plans[code]
            for cid in set(responders) | set(offenders):
                windows[cid].involved += count
            for cid in offenders:
                windows[cid].offender += count
        times, codes = events.timed_out
        for position in range(bisect_left(times, floor),
                              bisect_left(times, boundary)):
            at, responders = times[position], set(plans[codes[position]][0])
            for cid, window in windows.items():
                if events.first_seen.get(cid, boundary) >= at:
                    continue  # not yet known to respond at that time
                window.expected_timeouts += 1
                if cid not in responders:
                    window.missed_timeouts += 1
        return windows

    def _score(self, window: _ReplicaWindow) -> float:
        from repro.harness.metrics import percentile

        lag_p95 = percentile(window.lags, 0.95) if window.lags else 0.0
        lag_term = min(1.0, lag_p95 / self.lag_budget_ms) \
            if self.lag_budget_ms > 0 else 0.0
        w_disagree, w_timeout, w_lag = self.weights
        return (w_disagree * _ratio(window.offender, window.involved)
                + w_timeout * _ratio(window.missed_timeouts,
                                     window.expected_timeouts)
                + w_lag * lag_term)

    def _fresh_state(self) -> _HysteresisState:
        """The state of a replica first seen after the folded boundaries,
        each of which scored it on an empty window."""
        state, boundary = _HysteresisState(), self.interval_ms
        for _ in range(self._folds):
            self._advance_hysteresis(state, self._score(_ReplicaWindow()),
                                     boundary)
            boundary += self.interval_ms
        return state

    def fold(self, rows) -> None:
        """Fold in rows before they retire (:func:`repro.obs.trace.attach`),
        then every boundary they have passed (they arrive in simulated-time
        order), keeping only the events later windows read."""
        kept = self._kept.add(self._read(rows))
        for cid in kept.first_seen.keys() | kept.involved.keys():
            if cid not in self._states:
                self._states[cid] = self._fresh_state()
        while self._boundary <= rows.until:
            windows = self._windows(kept, self._boundary, self._states)
            for cid, state in self._states.items():
                self._advance_hysteresis(state, self._score(windows[cid]),
                                         self._boundary)
            self._last, self._folds = self._boundary, self._folds + 1
            self._boundary += self.interval_ms
        if self._last is not None:
            for columns in kept.columns():
                drop = bisect_left(columns[0], self._last - self.window_ms)
                for column in columns:
                    del column[:drop]

    def _advance_hysteresis(self, state: _HysteresisState, score: float,
                            boundary: float) -> None:
        if score >= self.suspect_threshold:
            state.suspect_streak += 1
            state.clear_streak = 0
            if (not state.suspected
                    and state.suspect_streak >= self.suspect_after):
                state.suspected = True
                state.suspected_since = boundary
        elif score <= self.clear_threshold:
            state.clear_streak += 1
            state.suspect_streak = 0
            if state.suspected and state.clear_streak >= self.clear_after:
                state.suspected = False
                state.suspected_since = None
        else:
            # Dead band: neither streak advances — that is the hysteresis.
            state.suspect_streak = 0
            state.clear_streak = 0


_KEY = ("health",)  #: the trigger id of a private log's rows
#: The length of :meth:`ReplicaHealthTracker._plan`'s response plans.
_RESPONSE = 1


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


# ----------------------------------------------------------------------
# SLO monitoring over the metrics registry
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class SloRule:
    """One threshold rule over metric families.

    ``kind`` selects the evaluator: ``histogram_p95`` reads ``metric``'s
    merged samples; ``ratio`` divides the family totals of ``numerator``
    by ``denominator`` (0 when the denominator family is empty).
    """

    name: str
    description: str
    kind: str
    threshold: float
    metric: str = ""
    numerator: str = ""
    denominator: str = ""


@dataclass(frozen=True)
class SloStatus:
    """Outcome of one rule at one evaluation instant."""

    name: str
    description: str
    value: float
    threshold: float
    ok: bool
    evaluated_at: float

    def to_dict(self) -> Dict[str, object]:
        return {spec.name: getattr(self, spec.name) for spec in fields(self)}


def default_slo_rules() -> Tuple[SloRule, ...]:
    """The shipped rule catalog (see docs/observability.md)."""
    return (
        SloRule(name="detection-latency-p95",
                description="p95 per-trigger detection latency stays under "
                            "2x the paper's sub-250ms envelope",
                kind="histogram_p95", threshold=500.0,
                metric="validator_detection_ms"),
        SloRule(name="late-drop-rate",
                description="fraction of responses arriving after their "
                            "trigger was decided",
                kind="ratio", threshold=0.02,
                numerator="validator_late_responses_total",
                denominator="validator_responses_total"),
    )


class SloMonitor:
    """Evaluate threshold rules against a metrics registry on sim time."""

    def __init__(self, rules: Optional[Sequence[SloRule]] = None):
        self.rules: Tuple[SloRule, ...] = tuple(
            rules if rules is not None else default_slo_rules())

    def evaluate(self, registry, now: float) -> List[SloStatus]:
        """Run every rule against ``registry`` at simulated time ``now``."""
        from repro.harness.metrics import percentile

        statuses: List[SloStatus] = []
        for rule in self.rules:
            if rule.kind == "histogram_p95":
                samples: List[float] = []
                for name, _, instrument, _ in registry.instruments(
                        "histogram"):
                    if name == rule.metric:
                        samples.extend(instrument.samples)
                value = percentile(sorted(samples), 0.95) if samples else 0.0
            elif rule.kind == "ratio":
                value = _ratio(registry.family_total(rule.numerator),
                               registry.family_total(rule.denominator))
            else:
                raise ValueError(f"unknown SLO rule kind: {rule.kind!r}")
            statuses.append(SloStatus(
                name=rule.name, description=rule.description,
                value=value, threshold=rule.threshold,
                ok=value <= rule.threshold, evaluated_at=now))
        return statuses

    def breached(self, registry, now: float) -> List[SloStatus]:
        """The subset of rules currently out of budget."""
        return [status for status in self.evaluate(registry, now)
                if not status.ok]
