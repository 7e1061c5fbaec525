"""Unit tests for replica health scoring, hysteresis, and SLO rules."""

import pytest

from repro.obs.health import (
    ReplicaHealthTracker,
    SloMonitor,
    SloRule,
    default_slo_rules,
)
from repro.obs.metrics import MetricsRegistry


class _FakeResponse:
    def __init__(self, cid):
        self.controller_id = cid


class _FakeAlarm:
    def __init__(self, offender):
        self.offending_controller = offender


def _decision(tracker, now, responders, offenders=(), timed_out=False):
    tracker.record_decision(
        now, [_FakeResponse(c) for c in responders],
        [_FakeAlarm(c) for c in offenders], timed_out)


# ----------------------------------------------------------------------
# Scoring
# ----------------------------------------------------------------------

def test_quiet_replica_scores_near_zero():
    tracker = ReplicaHealthTracker(window_ms=1000.0, interval_ms=250.0)
    for at in range(0, 1000, 50):
        tracker.record_response(float(at), "c1", lag_ms=5.0)
        _decision(tracker, float(at) + 1.0, ["c1"])
    report = tracker.evaluate(1000.0)["c1"]
    assert report.score < 0.05
    assert report.disagreement_rate == 0.0
    assert not report.suspected


def test_offender_drives_disagreement_rate_and_score():
    tracker = ReplicaHealthTracker(window_ms=1000.0, interval_ms=250.0)
    for at in range(0, 2000, 50):
        tracker.record_response(float(at), "c1", lag_ms=5.0)
        tracker.record_response(float(at), "c2", lag_ms=5.0)
        _decision(tracker, float(at) + 1.0, ["c1", "c2"], offenders=["c2"])
    reports = tracker.evaluate(2000.0)
    assert reports["c2"].disagreement_rate == 1.0
    assert reports["c2"].score > reports["c1"].score
    assert reports["c2"].suspected and not reports["c1"].suspected


def test_timeout_misses_only_count_known_replicas():
    """A replica is only expected on a timed-out trigger after it has been
    seen responding at least once before the decision."""
    tracker = ReplicaHealthTracker(window_ms=1000.0, interval_ms=250.0)
    tracker.record_response(10.0, "c1", lag_ms=1.0)
    # c2 first appears *after* this timed-out decision: not expected there.
    _decision(tracker, 100.0, ["c1"], timed_out=True)
    tracker.record_response(150.0, "c2", lag_ms=1.0)
    _decision(tracker, 200.0, ["c1"], timed_out=True)
    reports = tracker.evaluate(250.0)
    assert reports["c2"].timeout_miss_rate == pytest.approx(1.0)
    assert reports["c2"].decisions >= 0
    # c2 was expected on one timeout (at 200), not two.
    assert reports["c1"].timeout_miss_rate == 0.0


def test_lag_term_saturates_at_budget():
    tracker = ReplicaHealthTracker(window_ms=1000.0, interval_ms=250.0,
                                   lag_budget_ms=100.0)
    for at in range(0, 1000, 20):
        tracker.record_response(float(at), "slow", lag_ms=10_000.0)
    report = tracker.evaluate(1000.0)["slow"]
    # Weights (0.5, 0.3, 0.2): a saturated lag term alone contributes 0.2.
    assert report.score == pytest.approx(0.2)
    assert report.lag_p95_ms == pytest.approx(10_000.0)


# ----------------------------------------------------------------------
# Order independence (the pipeline-equivalence property, in miniature)
# ----------------------------------------------------------------------

def test_evaluation_is_arrival_order_independent():
    events = [(float(at), cid, 1.0 + (at % 7))
              for at in range(0, 1500, 30) for cid in ("c1", "c2", "c3")]
    forward = ReplicaHealthTracker()
    backward = ReplicaHealthTracker()
    for at, cid, lag in events:
        forward.record_response(at, cid, lag_ms=lag)
    for at, cid, lag in reversed(events):
        backward.record_response(at, cid, lag_ms=lag)
    _decision(forward, 700.0, ["c1", "c2", "c3"], offenders=["c3"])
    _decision(backward, 700.0, ["c1", "c2", "c3"], offenders=["c3"])
    assert forward.evaluate(1500.0) == backward.evaluate(1500.0)


def test_empty_windows_evaluate_to_zero_lag_not_a_crash():
    """Long-run guard: a replica that goes silent leaves later windows with
    no lag samples. Every ``percentile`` call site must be gated on a
    non-empty window (``percentile([])`` raises by contract), so a soak
    that outlives its traffic still evaluates — with zero lag terms."""
    tracker = ReplicaHealthTracker(window_ms=1000.0, interval_ms=250.0)
    tracker.record_response(10.0, "c1", lag_ms=4.0)
    _decision(tracker, 11.0, ["c1"])
    # c2 is known only as a decision participant: it never reported a lag.
    _decision(tracker, 12.0, ["c1", "c2"])
    reports = tracker.evaluate(20_000.0)  # 19 windows past the last event
    assert set(reports) == {"c1", "c2"}
    for report in reports.values():
        assert report.lag_p95_ms == 0.0
        assert not report.suspected


# ----------------------------------------------------------------------
# Hysteresis
# ----------------------------------------------------------------------

def _tracker_with_score_sequence(scores, interval_ms=100.0):
    """Drive the hysteresis with a synthetic per-window offender pattern."""
    tracker = ReplicaHealthTracker(
        window_ms=interval_ms, interval_ms=interval_ms,
        suspect_threshold=0.5, clear_threshold=0.2,
        suspect_after=2, clear_after=2)
    for index, bad in enumerate(scores):
        at = index * interval_ms + interval_ms / 2.0
        offenders = ["c1"] if bad else []
        _decision(tracker, at, ["c1"], offenders=offenders)
    return tracker, (len(scores)) * interval_ms


def test_single_bad_window_does_not_flag():
    tracker, horizon = _tracker_with_score_sequence([0, 1, 0, 0])
    assert tracker.suspected(horizon) == []


def test_consecutive_bad_windows_flag_and_flag_sticks():
    tracker, horizon = _tracker_with_score_sequence([1, 1, 1, 0])
    # suspect_after=2 consecutive >=0.5 windows flips the flag; the single
    # clean window after is below clear_after, so the flag holds.
    report = tracker.evaluate(horizon)["c1"]
    assert report.suspected
    assert report.suspected_since is not None


def test_flag_clears_after_clear_streak():
    tracker, horizon = _tracker_with_score_sequence([1, 1, 0, 0, 0])
    assert tracker.suspected(horizon) == []


def test_no_flapping_under_alternation():
    """Alternating good/bad windows never build a streak: no flapping."""
    tracker, horizon = _tracker_with_score_sequence([1, 0] * 6)
    assert tracker.suspected(horizon) == []


def test_snapshot_shape():
    tracker = ReplicaHealthTracker()
    tracker.record_response(10.0, "c1", lag_ms=2.0)
    snapshot = tracker.snapshot(500.0)
    assert set(snapshot) == {"time_ms", "window_ms", "replicas"}
    assert list(snapshot["replicas"]) == ["c1"]
    report = snapshot["replicas"]["c1"]
    assert {"controller_id", "score", "suspected"} <= set(report)


# ----------------------------------------------------------------------
# SLO rules
# ----------------------------------------------------------------------

def test_default_rule_catalog_names():
    names = [rule.name for rule in default_slo_rules()]
    assert names == ["detection-latency-p95", "late-drop-rate"]


def test_slo_histogram_p95_rule():
    registry = MetricsRegistry()
    for value in range(100):
        registry.histogram("validator_detection_ms").observe(float(value))
    monitor = SloMonitor()
    statuses = {s.name: s for s in monitor.evaluate(registry, 1000.0)}
    status = statuses["detection-latency-p95"]
    assert 90.0 <= status.value <= 99.0
    assert status.ok


def test_slo_ratio_rule_breaches():
    registry = MetricsRegistry()
    registry.counter("validator_responses_total", kind="cache").inc(100)
    registry.counter("validator_late_responses_total").inc(10)
    monitor = SloMonitor()
    statuses = {s.name: s for s in monitor.evaluate(registry, 1000.0)}
    status = statuses["late-drop-rate"]
    assert status.value == pytest.approx(0.1)
    assert not status.ok
    assert [b.name for b in monitor.breached(registry, 1001.0)] \
        == ["late-drop-rate"]


def test_slo_ratio_rule_empty_denominator_is_zero():
    monitor = SloMonitor()
    statuses = monitor.evaluate(MetricsRegistry(), 0.0)
    assert all(s.ok for s in statuses)
    assert all(s.value == 0.0 for s in statuses)


def test_slo_unknown_kind_raises():
    monitor = SloMonitor(rules=(SloRule(
        name="x", description="", kind="bogus", threshold=1.0),))
    with pytest.raises(ValueError):
        monitor.evaluate(MetricsRegistry(), 0.0)
