"""Unit tests for the Prometheus/JSONL exporters and the snapshot sink."""

import json

from repro.obs.export import (
    SnapshotSink,
    escape_label_value,
    health_jsonl,
    lint_prometheus_text,
    metrics_jsonl,
    prometheus_text,
)
from repro.obs.health import ReplicaHealthTracker, SloMonitor
from repro.obs.metrics import MetricsRegistry


def _registry():
    registry = MetricsRegistry()
    registry.counter("validator_responses_total", kind="cache").inc(7)
    registry.counter("validator_responses_total", kind="network").inc(3)
    registry.gauge("pipeline_queue_depth", shard="0").set(12.0)
    for value in (1.0, 2.0, 10.0):
        registry.histogram("validator_detection_ms").observe(value)
    return registry


# ----------------------------------------------------------------------
# Prometheus rendering
# ----------------------------------------------------------------------

def test_counter_and_gauge_series():
    text = prometheus_text(registry=_registry())
    assert "# TYPE validator_responses_total counter" in text
    assert 'validator_responses_total{kind="cache"} 7' in text
    assert "# TYPE pipeline_queue_depth gauge" in text
    assert 'pipeline_queue_depth{shard="0"} 12' in text


def test_histograms_render_as_summaries_with_sum_and_count():
    text = prometheus_text(registry=_registry())
    assert "# TYPE validator_detection_ms summary" in text
    assert 'validator_detection_ms{quantile="0.5"}' in text
    assert 'validator_detection_ms{quantile="0.95"}' in text
    assert "validator_detection_ms_sum 13" in text
    assert "validator_detection_ms_count 3" in text


def test_type_header_appears_once_per_family():
    text = prometheus_text(registry=_registry())
    assert text.count("# TYPE validator_responses_total counter") == 1


def test_health_and_slo_families():
    tracker = ReplicaHealthTracker()
    tracker.record_response(10.0, "c1", lag_ms=2.0)
    reports = tracker.evaluate(500.0)
    registry = _registry()
    monitor = SloMonitor()
    statuses = monitor.evaluate(registry, 500.0)
    text = prometheus_text(registry=registry, health_reports=reports,
                           slo_statuses=statuses)
    assert 'jury_replica_health_score{replica="c1"}' in text
    assert 'jury_replica_suspected{replica="c1"} 0' in text
    assert 'jury_slo_ok{rule="late-drop-rate"} 1' in text
    assert 'jury_slo_threshold{rule="detection-latency-p95"} 500' in text


def test_label_escaping():
    assert escape_label_value('a"b\\c\nd') == 'a\\"b\\\\c\\nd'
    registry = MetricsRegistry()
    registry.counter("weird_total", detail='say "hi"\n').inc()
    text = prometheus_text(registry=registry)
    assert 'detail="say \\"hi\\"\\n"' in text
    assert lint_prometheus_text(text) == []


def test_generated_documents_always_lint_clean():
    tracker = ReplicaHealthTracker()
    tracker.record_response(1.0, "c1", lag_ms=1.0)
    monitor = SloMonitor()
    registry = _registry()
    text = prometheus_text(registry=registry,
                           health_reports=tracker.evaluate(100.0),
                           slo_statuses=monitor.evaluate(registry, 100.0))
    assert lint_prometheus_text(text) == []


def test_every_family_gets_a_help_line_before_its_type():
    text = prometheus_text(registry=_registry())
    lines = text.splitlines()
    for index, line in enumerate(lines):
        if line.startswith("# TYPE "):
            family = line.split()[2]
            assert lines[index - 1].startswith(f"# HELP {family} "), \
                f"{family}: TYPE must be preceded by its HELP"
    assert "# HELP validator_responses_total Responses" in text
    # Families without curated help still get the generic fallback.
    registry = MetricsRegistry()
    registry.counter("never_documented_total").inc()
    assert ("# HELP never_documented_total JURY reproduction metric."
            in prometheus_text(registry=registry))


def _profiled_registry():
    from repro.obs.profile import merge_profile
    registry = MetricsRegistry()
    merge_profile(registry, "threads", 0, {"batch": (3, 0.0004, 0.0001,
                                                     0.0002)})
    merge_profile(registry, "threads", 0, {"batch": (2, 0.3, 0.1, 0.2)})
    return registry


def test_backend_stage_wall_ms_renders_as_a_real_histogram():
    text = prometheus_text(registry=_profiled_registry())
    assert "# TYPE backend_stage_wall_ms histogram" in text
    # Cumulative buckets: the 0.4 ms delta is <= 0.5, the 300 ms one only
    # <= 500; +Inf mirrors _count.
    assert ('backend_stage_wall_ms_bucket{backend="threads",le="0.5",'
            'shard="0",stage="batch"} 1') in text
    assert ('backend_stage_wall_ms_bucket{backend="threads",le="500",'
            'shard="0",stage="batch"} 2') in text
    assert ('backend_stage_wall_ms_bucket{backend="threads",le="+Inf",'
            'shard="0",stage="batch"} 2') in text
    assert ('backend_stage_wall_ms_count{backend="threads",shard="0",'
            'stage="batch"} 2') in text
    assert "backend_stage_wall_ms_sum" in text
    assert ("# HELP backend_stage_operations_total"
            in text)
    assert lint_prometheus_text(text) == []


# ----------------------------------------------------------------------
# The line-format linter itself
# ----------------------------------------------------------------------

def test_lint_accepts_minimal_valid_document():
    text = ("# TYPE a_total counter\n"
            "a_total 1\n"
            'a_total{x="y"} 2.5\n')
    assert lint_prometheus_text(text) == []


def test_lint_flags_undeclared_family():
    errors = lint_prometheus_text("mystery_metric 1\n")
    assert any("undeclared" in error for error in errors)


def test_lint_flags_duplicate_series():
    text = ("# TYPE a_total counter\n"
            "a_total 1\n"
            "a_total 2\n")
    assert any("duplicate" in error for error in lint_prometheus_text(text))


def test_lint_flags_malformed_sample_and_unknown_type():
    assert lint_prometheus_text("# TYPE a wibble\n") != []
    assert lint_prometheus_text("# TYPE a_total counter\n!!bad line\n") != []


def test_lint_flags_type_after_samples():
    text = ("# TYPE a_total counter\n"
            "a_total 1\n"
            "# TYPE a_total counter\n")
    assert lint_prometheus_text(text) != []


def test_lint_flags_help_violations():
    assert any("malformed HELP" in error
               for error in lint_prometheus_text("# HELP a_total\n"))
    duplicate = ("# HELP a_total one\n"
                 "# HELP a_total two\n"
                 "# TYPE a_total counter\n"
                 "a_total 1\n")
    assert any("duplicate HELP" in error
               for error in lint_prometheus_text(duplicate))
    late = ("# TYPE a_total counter\n"
            "a_total 1\n"
            "# HELP a_total too late\n")
    assert any("HELP for 'a_total' after samples" in error
               for error in lint_prometheus_text(late))


def _histogram_doc(samples):
    return "# TYPE h histogram\n" + "\n".join(samples) + "\n"


def test_lint_accepts_well_formed_histogram():
    text = _histogram_doc(['h_bucket{le="1"} 1',
                           'h_bucket{le="+Inf"} 2',
                           "h_sum 3.5",
                           "h_count 2"])
    assert lint_prometheus_text(text) == []


def test_lint_enforces_histogram_bucket_discipline():
    cases = (
        (["h_bucket 1", 'h_bucket{le="+Inf"} 1', "h_count 1"],
         "without an le label"),
        (['h_bucket{le="2"} 1', 'h_bucket{le="1"} 1',
          'h_bucket{le="+Inf"} 1', "h_count 1"],
         "out of order"),
        (['h_bucket{le="1"} 3', 'h_bucket{le="2"} 1',
          'h_bucket{le="+Inf"} 3', "h_count 3"],
         "not cumulative"),
        (['h_bucket{le="1"} 1', "h_count 1"], "missing +Inf"),
        (['h_bucket{le="1"} 1', 'h_bucket{le="+Inf"} 2', "h_count 3"],
         "+Inf bucket 2.0 != _count 3.0"),
    )
    for samples, expected in cases:
        errors = lint_prometheus_text(_histogram_doc(samples))
        assert any(expected in error for error in errors), \
            f"{samples}: expected {expected!r}, got {errors}"


# ----------------------------------------------------------------------
# JSONL exporters
# ----------------------------------------------------------------------

def test_metrics_jsonl_record_parses_and_is_stable():
    first = metrics_jsonl(_registry(), 250.0)
    record = json.loads(first)
    assert record["kind"] == "metrics" and record["time_ms"] == 250.0
    assert any("validator_responses_total" in key
               for key in record["metrics"])
    assert metrics_jsonl(_registry(), 250.0) == first


def test_health_jsonl_carries_reports_and_slo():
    tracker = ReplicaHealthTracker()
    tracker.record_response(1.0, "c1", lag_ms=1.0)
    monitor = SloMonitor()
    registry = _registry()
    record = json.loads(health_jsonl(
        tracker.evaluate(100.0),
        slo_statuses=monitor.evaluate(registry, 100.0), now=100.0))
    assert record["kind"] == "health"
    assert list(record["replicas"]) == ["c1"]
    assert {s["name"] for s in record["slo"]} \
        == {"detection-latency-p95", "ingest-overflow-rate", "late-drop-rate"}
    # SLO statuses are optional (standalone health tracker, no registry).
    bare = json.loads(health_jsonl(tracker.evaluate(100.0), now=100.0))
    assert bare["slo"] == []


# ----------------------------------------------------------------------
# SnapshotSink
# ----------------------------------------------------------------------

def test_sink_records_once_per_boundary():
    sink = SnapshotSink(100.0, registry=_registry())
    sink.observe(10.0)      # below the first boundary: nothing
    assert sink.records == []
    sink.observe(105.0)     # crosses 100
    sink.observe(107.0)     # same interval: no new record
    sink.observe(350.0)     # idle gap: one record at the first uncrossed
    assert [r["boundary_ms"] for r in sink.records] == [100.0, 200.0]
    sink.observe(360.0)     # 400 not yet crossed
    assert len(sink.records) == 2


def test_sink_jsonl_round_trip(tmp_path):
    tracker = ReplicaHealthTracker()
    tracker.record_response(5.0, "c1", lag_ms=1.0)
    sink = SnapshotSink(50.0, registry=_registry(), health=tracker)
    sink.observe(60.0)
    sink.observe(120.0)
    path = tmp_path / "snapshots.jsonl"
    sink.dump(str(path))
    lines = path.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 2
    for line in lines:
        record = json.loads(line)
        assert record["kind"] == "snapshot"
        assert "metrics" in record and "health" in record


def test_sequential_deployment_ticks_the_snapshot_sink():
    """The sink rides the end of every engine step, the sequential
    validator's included — not only a pipeline shard's flush."""
    from repro import Jury, JuryConfig
    from repro.workloads.traffic import TrafficDriver

    experiment = Jury.experiment(JuryConfig(
        kind="onos", n=5, k=2, switches=6, seed=7, pipeline=None,
        snapshot_interval_ms=100.0, metrics=True))
    experiment.warmup()
    TrafficDriver(experiment.sim, experiment.topology,
                  packet_in_rate_per_s=300.0, duration_ms=1000.0).start()
    experiment.run(1000.0)
    records = experiment.jury.snapshot_sink.records
    assert records, "pipeline=None must still take periodic snapshots"
    boundaries = [record["boundary_ms"] for record in records]
    assert boundaries == sorted(set(boundaries))
    assert all("metrics" in record for record in records)
