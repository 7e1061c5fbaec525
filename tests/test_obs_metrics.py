"""The metrics registry: instruments, determinism, and conservation.

The conservation properties tie the two observability views together: the
tracer's span ledger, the metrics counters, and the engines' own stats
must all agree on how many responses and decisions flowed through — even
when a tiny shard queue forces the overflow path.
"""

from __future__ import annotations

from repro.core.pipeline import ValidationPipeline
from repro.core.timeouts import StaticTimeout
from repro.core.validator import Validator
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    collect_pipeline,
    dump_metrics,
)
from repro.obs.trace import ACCEPT, ALARM, DECIDE, INGEST, LATE_DROP, Tracer
from repro.sim.simulator import Simulator
from repro.workloads.synthetic import synthetic_validation_workload

K = 2
TIMEOUT_MS = 100.0


# ----------------------------------------------------------------------
# Instruments
# ----------------------------------------------------------------------

def test_counter_and_gauge_units():
    counter = Counter()
    counter.inc()
    counter.inc(4)
    assert counter.value == 5
    gauge = Gauge()
    gauge.set(3.0)
    gauge.max(1.0)
    assert gauge.value == 3.0
    gauge.max(7.0)
    assert gauge.value == 7.0


def test_histogram_percentiles_match_harness_math():
    from repro.harness.metrics import percentile
    histogram = Histogram()
    assert histogram.snapshot() == {"count": 0}
    samples = [float(v) for v in range(1, 101)]
    for value in samples:
        histogram.observe(value)
    assert histogram.count == 100
    assert histogram.percentile(0.5) == percentile(samples, 0.5)
    snapshot = histogram.snapshot()
    assert snapshot["min"] == 1.0 and snapshot["max"] == 100.0


def test_registry_get_or_create_identity_and_label_order():
    registry = MetricsRegistry()
    a = registry.counter("x_total", kind="cache", controller="c1")
    b = registry.counter("x_total", controller="c1", kind="cache")
    assert a is b  # label order never splits a child
    a.inc(3)
    assert registry.value("x_total", controller="c1", kind="cache") == 3
    registry.counter("x_total", kind="net").inc(2)
    assert registry.family_total("x_total") == 5
    assert registry.value("never_touched") == 0


def test_snapshot_is_deterministic_across_feed_order():
    first, second = MetricsRegistry(), MetricsRegistry()
    first.counter("a_total", x=1).inc()
    first.gauge("depth").set(2)
    second.gauge("depth").set(2)
    second.counter("a_total", x=1).inc()
    assert first.snapshot() == second.snapshot()
    assert first.to_json() == second.to_json()
    assert "a_total{x=1}" in first.snapshot()
    assert len(first.rows()) == 2


# ----------------------------------------------------------------------
# Conservation: spans == counters == engine stats
# ----------------------------------------------------------------------

def _run(make_engine, triggers=40, truncate_every=7):
    sim = Simulator(seed=0)
    tracer = Tracer()
    registry = MetricsRegistry()
    engine = make_engine(sim, tracer, registry)
    workload = synthetic_validation_workload(triggers, k=K, seed=5,
                                             fault_rate=0.2)
    fed = 0
    for index, responses in enumerate(workload):
        subset = (responses[: K + 1]
                  if index % truncate_every == 0 else responses)
        for response in subset:
            engine.ingest(response)
            fed += 1
    if hasattr(engine, "drain"):
        engine.drain()
    sim.run(until=10 * TIMEOUT_MS)
    return engine, tracer, registry, fed


def _check_ledger(engine, tracer, registry, fed):
    counts = tracer.stage_counts()
    # Every response fed produced exactly one ingest span and one counter
    # tick, whatever queue/overflow path it took inside the engine.
    assert counts.get(INGEST, 0) == fed
    assert registry.family_total("validator_responses_total") == fed
    assert engine.responses_received == fed
    # Every decision produced one decide span; alarms and accepts
    # partition the decided triggers.
    assert counts.get(DECIDE, 0) == engine.triggers_decided
    assert registry.family_total("validator_decisions_total") == \
        engine.triggers_decided
    assert counts.get(ACCEPT, 0) == \
        engine.triggers_decided - engine.triggers_alarmed
    assert counts.get(ALARM, 0) == len(engine.alarms)
    assert registry.family_total("validator_alarms_total") == \
        len(engine.alarms)
    assert counts.get(LATE_DROP, 0) == engine.late_responses
    assert registry.value("validator_late_responses_total") == \
        engine.late_responses


def test_sequential_conservation():
    engine, tracer, registry, fed = _run(
        lambda sim, tracer, registry: Validator(
            sim, K, timeout=StaticTimeout(TIMEOUT_MS),
            tracer=tracer, metrics=registry))
    assert engine.triggers_decided == 40
    _check_ledger(engine, tracer, registry, fed)


def test_pipeline_conservation_through_overflow():
    # A 2-slot queue forces the overflow ring on nearly every batch; the
    # ledger must still balance exactly.
    engine, tracer, registry, fed = _run(
        lambda sim, tracer, registry: ValidationPipeline(
            sim, K, shards=4, timeout=StaticTimeout(TIMEOUT_MS),
            queue_capacity=2, batch_max=2,
            tracer=tracer, metrics=registry))
    assert engine.triggers_decided == 40
    _check_ledger(engine, tracer, registry, fed)
    assert engine.stats.total("overflow_enqueued") > 0, \
        "queue_capacity=2 must exercise the overflow path"


def test_collect_pipeline_is_idempotent():
    engine, tracer, registry, fed = _run(
        lambda sim, tracer, registry: ValidationPipeline(
            sim, K, shards=2, timeout=StaticTimeout(TIMEOUT_MS),
            tracer=tracer, metrics=registry))
    collect_pipeline(registry, engine)
    first = registry.snapshot()
    collect_pipeline(registry, engine)  # scraping again must not double
    assert registry.snapshot() == first
    assert registry.value("pipeline_responses_routed_total") == fed
    decided = sum(
        registry.value("pipeline_shard_decided_total", shard=i)
        for i in range(2))
    assert decided == engine.triggers_decided


def test_detection_histogram_counts_decisions():
    engine, tracer, registry, fed = _run(
        lambda sim, tracer, registry: Validator(
            sim, K, timeout=StaticTimeout(TIMEOUT_MS),
            tracer=tracer, metrics=registry))
    histogram = registry.histogram("validator_detection_ms")
    assert histogram.count == engine.triggers_decided
    snapshot = registry.snapshot()["validator_detection_ms"]
    assert snapshot["value"]["count"] == engine.triggers_decided


# ----------------------------------------------------------------------
# Stable export encoding (label-set ordering, dump_metrics round-trip)
# ----------------------------------------------------------------------

def test_snapshot_renders_label_sets_in_sorted_order():
    registry = MetricsRegistry()
    # Kwargs order differs between the two series; the rendered keys must
    # not depend on it.
    registry.counter("checks_total", verdict="ok", check="sanity").inc()
    registry.counter("checks_total", check="policy", verdict="fail").inc()
    keys = [key for key in registry.snapshot() if key.startswith("checks")]
    assert keys == ["checks_total{check=policy,verdict=fail}",
                    "checks_total{check=sanity,verdict=ok}"]


def test_dump_metrics_is_stable_across_label_insertion_order(tmp_path):
    def build(flip):
        registry = MetricsRegistry()
        if flip:
            registry.counter("c_total", b="2", a="1").inc(3)
            registry.gauge("g", zone="x", rack="r").set(5.0)
        else:
            registry.counter("c_total", a="1", b="2").inc(3)
            registry.gauge("g", rack="r", zone="x").set(5.0)
        return registry

    first, second = tmp_path / "a.json", tmp_path / "b.json"
    dump_metrics(build(False), str(first))
    dump_metrics(build(True), str(second))
    assert first.read_text(encoding="utf-8") \
        == second.read_text(encoding="utf-8")


def test_instruments_iterates_sorted_with_kind_filter():
    registry = MetricsRegistry()
    registry.counter("b_total").inc()
    registry.counter("a_total", x="1").inc()
    registry.gauge("depth").set(1.0)
    registry.histogram("lat_ms").observe(2.0)
    everything = list(registry.instruments())
    names = [item[0] for item in everything]
    kinds = [item[3] for item in everything]
    assert names == ["a_total", "b_total", "depth", "lat_ms"]
    assert kinds == ["counter", "counter", "gauge", "histogram"]
    only_histograms = list(registry.instruments("histogram"))
    assert [item[0] for item in only_histograms] == ["lat_ms"]
