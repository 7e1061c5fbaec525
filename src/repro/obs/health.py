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
the observer seam it reads the seam's log when it is evaluated; on its
own, its hooks (:meth:`record_response`, :meth:`record_decision`) write
those rows to a private log. Every derived number comes out of
:meth:`evaluate`, which sorts the events and replays
fixed window boundaries from t=0. Because sorting erases arrival-order
differences, the sequential validator and the sharded pipeline produce
identical health reports at any shard count — the same determinism contract
the tracer keeps, tested by the differential suite. Like every observer in
``repro.obs``, the tracker sits behind a ``None`` fast path and cannot
perturb decisions.

:class:`SloMonitor` evaluates a small catalog of threshold rules over a
:class:`~repro.obs.metrics.MetricsRegistry` snapshot — detection-latency
p95 and late-drop rate — on simulated time.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass, fields
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
        #: The event log, read from position ``_start`` on: the seam's, or
        #: a private one the hooks below write to.
        self._log, self._start = None, 0

    # ------------------------------------------------------------------
    # Hooks for a tracker used on its own (rows of a private log)
    # ------------------------------------------------------------------
    def _own_log(self) -> obs_trace.Tracer:
        if self._log is None:
            self._log = obs_trace.Tracer()
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
            {}) | log.facts(responses, alarms) << obs_trace.FACTS_SHIFT)

    # ------------------------------------------------------------------
    # Pure evaluation
    # ------------------------------------------------------------------
    def evaluate(self, now: float) -> Dict[str, HealthReport]:
        """Replay window boundaries up to ``now`` and score every replica.

        Deterministic: the event logs are sorted first, so any arrival-order
        difference between engines (or shard interleavings at the same
        simulated instant) evaluates identically.
        """
        from repro.harness.metrics import percentile

        responses, decisions = self._events()
        responses = sorted(responses, key=lambda e: (
            e[0], e[1], -1.0 if e[2] is None else e[2]))
        decisions = sorted(decisions)
        response_times = [event[0] for event in responses]
        decision_times = [event[0] for event in decisions]

        first_seen: Dict[str, float] = {}
        for at, cid, _ in responses:
            if cid not in first_seen:
                first_seen[cid] = at
        replicas = sorted(set(first_seen)
                          | {cid for _, responders, offenders, _ in decisions
                             for cid in responders + offenders})
        totals_responses = Counter(cid for _, cid, _ in responses)
        totals_decisions = Counter(
            cid for _, responders, offenders, _ in decisions
            for cid in set(responders) | set(offenders))

        hysteresis = {cid: _HysteresisState() for cid in replicas}
        last_window: Dict[str, _ReplicaWindow] = {
            cid: _ReplicaWindow() for cid in replicas}
        boundary = self.interval_ms
        while boundary <= now:
            windows = self._window_stats(
                boundary, responses, decisions,
                response_times, decision_times, first_seen, replicas)
            for cid in replicas:
                window = windows[cid]
                last_window[cid] = window
                score = self._score(window, percentile)
                self._advance_hysteresis(hysteresis[cid], score, boundary)
            boundary += self.interval_ms

        reports: Dict[str, HealthReport] = {}
        for cid in replicas:
            window = last_window[cid]
            lags = window.lags or []
            reports[cid] = HealthReport(
                controller_id=cid,
                score=self._score(window, percentile),
                disagreement_rate=_ratio(window.offender, window.involved),
                timeout_miss_rate=_ratio(window.missed_timeouts,
                                         window.expected_timeouts),
                lag_p50_ms=percentile(lags, 0.5) if lags else 0.0,
                lag_p95_ms=percentile(lags, 0.95) if lags else 0.0,
                responses=totals_responses.get(cid, 0),
                decisions=totals_decisions.get(cid, 0),
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
    def _events(self) -> Tuple[list, list]:
        """The log's events in arrival order, as ``(time, controller, lag
        or None)`` and ``(time, responders, offenders, timed_out)`` rows."""
        answered: list = []
        decided: list = []
        if self._log is not None:
            for at, _, (stage, verdict, _, attrs), lag, facts, _ in \
                    self._log.rows(self._start):
                if stage == obs_trace.INGEST:
                    answered.append((at, dict(attrs)["controller"],
                                     None if lag != lag else lag))
                elif stage == obs_trace.DECIDE and facts is not None:
                    decided.append((at, *facts[:2], verdict == "timeout"))
        return answered, decided

    def _window_stats(self, boundary, responses, decisions,
                      response_times, decision_times, first_seen, replicas):
        lo = bisect_left(response_times, boundary - self.window_ms)
        hi = bisect_left(response_times, boundary)
        windows = {cid: _ReplicaWindow() for cid in replicas}
        for at, cid, lag in responses[lo:hi]:
            window = windows[cid]
            if lag is not None:
                if window.lags is None:
                    window.lags = []
                window.lags.append(lag)
        lo = bisect_left(decision_times, boundary - self.window_ms)
        hi = bisect_left(decision_times, boundary)
        for at, responders, offenders, timed_out in decisions[lo:hi]:
            involved = set(responders) | set(offenders)
            for cid in involved:
                windows[cid].involved += 1
            for cid in offenders:
                windows[cid].offender += 1
            if timed_out:
                responder_set = set(responders)
                for cid in replicas:
                    if first_seen.get(cid, boundary) >= at:
                        continue  # not yet known to respond at that time
                    windows[cid].expected_timeouts += 1
                    if cid not in responder_set:
                        windows[cid].missed_timeouts += 1
        return windows

    def _score(self, window: _ReplicaWindow, percentile) -> float:
        lags = window.lags or []
        lag_p95 = percentile(lags, 0.95) if lags else 0.0
        lag_term = min(1.0, lag_p95 / self.lag_budget_ms) \
            if self.lag_budget_ms > 0 else 0.0
        w_disagree, w_timeout, w_lag = self.weights
        return (w_disagree * _ratio(window.offender, window.involved)
                + w_timeout * _ratio(window.missed_timeouts,
                                     window.expected_timeouts)
                + w_lag * lag_term)

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
        #: (evaluated_at, statuses) per evaluate() call, oldest first.
        self.history: List[Tuple[float, Tuple[SloStatus, ...]]] = []

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
        self.history.append((now, tuple(statuses)))
        return statuses

    def breached(self, registry, now: float) -> List[SloStatus]:
        """The subset of rules currently out of budget."""
        return [status for status in self.evaluate(registry, now)
                if not status.ok]
