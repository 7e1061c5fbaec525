"""Span accounting and wrapper removal."""

import time

import pytest

from bench import measure
from bench.trace import SpanRecorder
from bench.workloads import (
    DEPLOY_NAME,
    DEPLOY_SETTLE_MS,
    STREAMS,
    _DeployRun,
    _StreamProbes,
    _StreamRun,
    run_workload,
)


def test_self_time_is_duration_minus_children():
    recorder = SpanRecorder()
    recorder.on = True
    inner = recorder.wrap("b.inner", lambda: time.sleep(0.02))

    def outer_body():
        time.sleep(0.01)
        inner()
        inner()

    outer = recorder.wrap("a.outer", outer_body)
    started = time.perf_counter()
    outer()
    window = time.perf_counter() - started
    recorder.on = False
    outer()  # not recorded
    self_s = recorder.self_seconds()
    assert recorder.calls("b.inner") == 2 and recorder.calls("a.outer") == 1
    assert self_s["b"] == pytest.approx(0.04, abs=0.01)
    assert self_s["a"] == pytest.approx(0.01, abs=0.008)
    assert sum(self_s.values()) == pytest.approx(recorder.root_total)
    shares = recorder.shares(window)
    assert sum(shares.values()) == pytest.approx(100.0)
    assert 0.0 <= shares["unattributed"] < 5.0
    assert list(recorder.parent_col) == [-1, 0, 0]


def test_deploy_layer_shares_sum_to_the_window():
    result = run_workload(DEPLOY_NAME, seed=15, seconds=2.0, traced=True,
                          started_at=time.perf_counter())
    assert result.verdict.correct
    shares = [value for name, value in result.metrics.items()
              if name.endswith(".self_share")]
    assert len(shares) == 8 and all(value >= 0.0 for value in shares)
    total = sum(shares) + result.metrics["unattributed_share"]
    assert total == pytest.approx(100.0, abs=1.0)
    assert result.metrics["unattributed_share"] < 5.0
    for counter in ("sim.events", "datastore.puts", "replicator.copies",
                    "module.shadow_runs", "validator.ingests"):
        assert result.metrics[counter] > 0


def test_layer_wrappers_are_fully_removed():
    from repro.controllers.base import Controller
    from repro.datastore import events
    from repro.sim.simulator import Simulator

    from bench.layers import LayerTracer, _class_wraps

    run = _DeployRun(seed=15, window_ms=500.0)
    experiment = run.experiment
    watched = [(owner, attr) for _, owner, attr, _ in _class_wraps()]
    watched += [(Simulator, "schedule_at"), (type(experiment.store),
                                             "propagate"),
                (events, "cache_canonical")]
    originals = [owner.__dict__[attr] for owner, attr in watched]
    controller = next(iter(experiment.cluster.controllers.values()))
    proxy = next(iter(experiment.cluster.proxies.values()))
    hooks = (controller.network_tap, proxy.on_switch_to_controller,
             list(controller.store.listeners))

    tracer = LayerTracer(SpanRecorder(), experiment)
    tracer.install()
    assert Controller.__dict__["cache_write"] is not originals[
        watched.index((Controller, "cache_write"))]
    tracer.recorder.on = True
    experiment.run(DEPLOY_SETTLE_MS)
    tracer.recorder.on = False
    tracer.remove()

    assert [owner.__dict__[attr] for owner, attr in watched] == originals
    assert (controller.network_tap, proxy.on_switch_to_controller,
            list(controller.store.listeners)) == hooks
    assert len(tracer.recorder) > 0
    # Events scheduled while tracing still carry the dispatcher; they must
    # run (untraced) without recording anything further.
    spans = len(tracer.recorder)
    experiment.run(100.0)
    assert len(tracer.recorder) == spans


def test_stream_probes_removed_and_untraced_rate_is_back():
    from repro.core import pipeline as pipeline_module

    spec = next(s for s in STREAMS if s.name == "stream-obs-full")
    run = _StreamRun(spec, seed=15)
    shard_of = pipeline_module.shard_of
    run.feed(1500)

    def best_ms_per_trigger(slices):
        return min(wall * 1000.0 / decided / probe_ms
                   for wall, decided, probe_ms in slices if decided > 0)

    before = best_ms_per_trigger(run.timed_window(1500))
    recorder = SpanRecorder()
    probes = _StreamProbes(run, recorder)
    probes.install()
    plain, traced, _ = run.interleaved_window(3000, recorder)
    probes.remove()
    assert plain and traced and not recorder.on
    assert pipeline_module.shard_of is shard_of
    for observer in (run.engine.tracer, run.engine.metrics,
                     run.engine.health, run.engine.forensics):
        assert not any(name in vars(observer) for name in (
            "emit", "counter", "histogram", "record_response",
            "record_decision", "observe_decision"))
    assert recorder.calls("obs.tracer_emit") > 0
    assert recorder.calls("pipeline.route") > 0
    after = best_ms_per_trigger(run.timed_window(1500))
    # Best slice against best slice, each relative to its speed probe; the
    # identity checks above are the precise test, this is the end-to-end
    # one: the untraced rate is back within the metric's bound.
    assert after == pytest.approx(before, rel=0.25)
    run.drain()
    assert run.verdict().correct


def test_segment_median_ignores_a_burst():
    probe = measure.REFERENCE_PROBE_MS
    slices = [(0.010, 64, probe)] * 100
    slices[37] = (0.500, 64, probe)  # one stalled slice
    summary = measure.window_summary(slices)
    assert summary["triggers_per_s"] == pytest.approx(6400.0)
    assert summary["raw_triggers_per_s"] == pytest.approx(6400.0)
    assert summary["trigger_ms_p50"] == pytest.approx(0.15625)
    assert summary["slice_ms_max"] == pytest.approx(7.8125)
    assert summary["segment_spread_pct"] > 50.0


def test_rates_are_normalised_to_the_reference_host_speed():
    probe = measure.REFERENCE_PROBE_MS
    # A host running 25% slow: every slice and every probe takes 1.25x.
    slow = [(0.0125, 64, probe * 1.25)] * 40
    summary = measure.window_summary(slow)
    assert summary["raw_triggers_per_s"] == pytest.approx(5120.0)
    assert summary["triggers_per_s"] == pytest.approx(6400.0)
    assert summary["trigger_ms_p50"] == pytest.approx(0.15625)
