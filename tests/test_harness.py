"""Tests for the experiment harness, metrics, and reporting."""

import pytest

from repro.errors import WorkloadError
from repro.api import Jury
from repro.config import JuryConfig
from repro.harness.experiment import DetectionStats
from repro.harness.metrics import cdf_points, mbps, percentile
from repro.harness.reporting import format_table


def test_percentile_basics():
    samples = list(range(1, 101))
    assert percentile(samples, 0.0) == 1
    assert percentile(samples, 1.0) == 100
    assert abs(percentile(samples, 0.5) - 50.5) < 1.0
    assert abs(percentile(samples, 0.95) - 95.05) < 1.0


def test_percentile_single_sample():
    assert percentile([7.0], 0.5) == 7.0


def test_percentile_errors():
    with pytest.raises(ValueError):
        percentile([], 0.5)
    with pytest.raises(ValueError):
        percentile([1.0], 1.5)


def test_percentile_boundaries_are_min_and_max():
    # Linear interpolation between closest ranks: q=0 and q=1 hit the
    # extremes exactly, regardless of sample order.
    samples = [9.0, 3.0, 41.0, 7.0]
    assert percentile(samples, 0.0) == 3.0
    assert percentile(samples, 1.0) == 41.0


def test_percentile_single_sample_any_q():
    for q in (0.0, 0.25, 0.5, 0.99, 1.0):
        assert percentile([42.0], q) == 42.0


def test_percentile_interpolates_between_ranks():
    # Two samples: q=0.5 must land exactly halfway — interpolation, not
    # nearest-rank (which would return one of the samples).
    assert percentile([10.0, 20.0], 0.5) == 15.0
    assert percentile([10.0, 20.0], 0.25) == 12.5


def test_percentile_duplicated_values():
    samples = [5.0, 5.0, 5.0, 5.0]
    for q in (0.0, 0.3, 0.5, 1.0):
        assert percentile(samples, q) == 5.0
    # A run of duplicates anchors the quantiles that fall inside it.
    samples = [1.0, 2.0, 2.0, 2.0, 3.0]
    assert percentile(samples, 0.5) == 2.0
    assert percentile(samples, 0.25) == 2.0


def test_cdf_points_monotonic():
    points = cdf_points([5.0, 1.0, 3.0, 2.0, 4.0])
    xs = [x for x, _ in points]
    ys = [y for _, y in points]
    assert xs == sorted(xs)
    assert ys == sorted(ys)
    assert ys[-1] == 1.0


def test_cdf_points_downsamples():
    points = cdf_points(list(range(1000)), points=50)
    assert len(points) == 50


def test_cdf_points_empty():
    assert cdf_points([]) == []


def test_mbps():
    assert mbps(125_000, 1000.0) == pytest.approx(1.0)
    assert mbps(100, 0.0) == 0.0


def test_format_table_alignment():
    text = format_table("Title", ["a", "bb"], [[1, 2.5], ["xx", "y"]])
    lines = text.splitlines()
    assert lines[0] == "Title"
    assert "a" in lines[2]
    assert "2.50" in lines[3]


def test_detection_stats_properties():
    stats = DetectionStats(samples=[10.0, 20.0, 30.0, 40.0], timeouts=2)
    assert stats.count == 4
    assert stats.median == 25.0
    assert stats.p95 > stats.median
    assert stats.timeouts == 2
    empty = DetectionStats(samples=[], timeouts=0)
    assert empty.median == 0.0


def test_experiment_vanilla_has_no_jury():
    exp = Jury.experiment(JuryConfig(kind="onos", n=2, switches=2, seed=1, k=None, timeout_ms=200.0))
    assert exp.jury is None
    with pytest.raises(WorkloadError):
        _ = exp.validator
    with pytest.raises(WorkloadError):
        exp.detection_stats()


def test_experiment_rejects_unknowns():
    with pytest.raises(WorkloadError):
        Jury.experiment(JuryConfig(kind="floodlight", k=None, timeout_ms=200.0))
    with pytest.raises(WorkloadError):
        Jury.experiment(JuryConfig(topology="torus", k=None, timeout_ms=200.0))


def test_three_tier_experiment_builds():
    exp = Jury.experiment(JuryConfig(kind="onos", n=3, topology="three_tier", seed=2, k=None, timeout_ms=200.0))
    assert len(exp.topology.switches) == 14


def test_throughput_requires_window():
    exp = Jury.experiment(JuryConfig(kind="onos", n=2, switches=2, seed=3, k=None, timeout_ms=200.0))
    with pytest.raises(WorkloadError):
        exp.throughput()
    exp.warmup()
    exp.begin_window()
    exp.run(100.0)
    point = exp.throughput()
    assert point.window_ms == pytest.approx(100.0)


def test_overhead_mbps_reports_jury_counters():
    exp = Jury.experiment(JuryConfig(kind="onos", n=3, k=2, switches=4, seed=4, timeout_ms=200.0))
    exp.warmup()
    exp.begin_window()
    hosts = exp.topology.host_list()
    hosts[0].open_connection(hosts[2])
    exp.run(500.0)
    overheads = exp.overhead_mbps()
    assert set(overheads) == {"inter_controller", "replication", "validator"}
    assert overheads["replication"] > 0


def test_profile_overrides_applied():
    exp = Jury.experiment(JuryConfig(kind="onos", n=2, switches=2, seed=5,
                           profile_overrides=(("lldp_period_ms", 123.0),), k=None, timeout_ms=200.0))
    controller = exp.cluster.controller("c1")
    assert controller.profile.lldp_period_ms == 123.0
