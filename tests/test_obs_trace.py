"""The tracing layer: span model, determinism, replay, and lookups.

Trace determinism is the load-bearing property: the same recorded response
stream must produce a byte-identical canonical trace through the
sequential validator and through the pipeline at any shard count —
including streams where triggers time out. These tests drive that with the
synthetic benchmark workload (no live experiment needed); the recorded
live-stream variant lives in test_pipeline_differential.py.
"""

from __future__ import annotations

import json

import pytest

from repro.core.timeouts import StaticTimeout
from repro.core.pipeline import ValidationPipeline
from repro.core.validator import Validator
from repro.obs.trace import (
    ACCEPT,
    ALARM,
    CHECK_CONSENSUS,
    DECIDE,
    INGEST,
    NullTracer,
    Span,
    Tracer,
    active_tracer,
    dump_trace,
    load_trace,
    match_trigger_key,
    span_sort_key,
)
from repro.sim.simulator import Simulator
from repro.workloads.synthetic import synthetic_validation_workload

K = 2
TIMEOUT_MS = 100.0


# ----------------------------------------------------------------------
# Unit behaviour
# ----------------------------------------------------------------------

def test_emit_and_lookup():
    tracer = Tracer()
    tau = ("ext", 7)
    tracer.emit(1.5, tau, INGEST, kind="cache", controller="c1")
    tracer.emit(2.5, tau, DECIDE, verdict="full-count")
    tracer.emit(2.0, ("ext", 8), INGEST, kind="net")
    assert len(tracer) == 3
    assert [s.stage for s in tracer.spans_for(tau)] == [INGEST, DECIDE]
    assert tracer.spans_for("('ext', 7)")[0].attr("controller") == "c1"
    assert tracer.spans_for(("ext", 99)) == []
    assert tracer.stage_counts() == {INGEST: 2, DECIDE: 1}


def test_span_attrs_are_sorted_and_hashable():
    span = Span(at=0.0, trigger_id=("ext", 1), stage=INGEST,
                attrs=(("b", 2), ("a", 1)))
    hash(span)  # frozen dataclass with tuple attrs
    tracer = Tracer()
    emitted = tracer.emit(0.0, ("ext", 1), INGEST, b=2, a=1)
    assert emitted.attrs == (("a", 1), ("b", 2))


def test_canonical_sort_orders_time_trigger_stage():
    tracer = Tracer()
    tracer.emit(2.0, ("ext", 1), DECIDE)
    tracer.emit(1.0, ("ext", 2), INGEST)
    tracer.emit(2.0, ("ext", 1), CHECK_CONSENSUS)
    ordered = sorted(tracer.spans, key=span_sort_key)
    assert [s.stage for s in ordered] == [INGEST, DECIDE, CHECK_CONSENSUS]


def test_null_tracer_normalises_to_none():
    assert active_tracer(None) is None
    assert active_tracer(NullTracer()) is None
    tracer = Tracer()
    assert active_tracer(tracer) is tracer
    assert NullTracer().emit(0.0, ("ext", 1), INGEST) is None


def test_timeline_verdicts():
    tracer = Tracer()
    tau = ("ext", 3)
    assert tracer.timeline(tau).verdict == "undecided"
    tracer.emit(0.0, tau, INGEST)
    tracer.emit(1.0, tau, DECIDE, verdict="full-count")
    assert tracer.timeline(tau).verdict == "undecided"
    tracer.emit(1.0, tau, ALARM, verdict="consensus_mismatch")
    timeline = tracer.timeline(tau)
    assert timeline.verdict == "alarm:consensus_mismatch"
    assert timeline.decided_at == 1.0
    other = ("ext", 4)
    tracer.emit(2.0, other, ACCEPT, verdict="ok")
    assert tracer.timeline(other).verdict == "accept"
    assert len(timeline.rows()) == 3


def test_match_trigger_key_forms():
    tracer = Tracer()
    tracer.emit(0.0, ("ext", 42), INGEST)
    tracer.emit(0.0, ("int", "c1", 3), INGEST)
    assert match_trigger_key(tracer, "('ext', 42)") == "('ext', 42)"
    assert match_trigger_key(tracer, "ext:42") == "('ext', 42)"
    assert match_trigger_key(tracer, "int:c1:3") == "('int', 'c1', 3)"
    assert match_trigger_key(tracer, "42") == "('ext', 42)"
    assert match_trigger_key(tracer, "nope:1") is None


# ----------------------------------------------------------------------
# Determinism on the synthetic workload (full-count AND timeout paths)
# ----------------------------------------------------------------------

def _run_traced(make_engine, truncate_every: int = 7):
    """Feed the synthetic workload, starving every Nth trigger so that it
    decides by θτ expiry — the timeout path must trace identically too."""
    sim = Simulator(seed=0)
    tracer = Tracer()
    engine = make_engine(sim, tracer)
    workload = synthetic_validation_workload(40, k=K, seed=5, fault_rate=0.2)
    for index, responses in enumerate(workload):
        subset = (responses[: K + 1]
                  if index % truncate_every == 0 else responses)
        for response in subset:
            engine.ingest(response)
    if hasattr(engine, "drain"):
        engine.drain()
    sim.run(until=10 * TIMEOUT_MS)
    return tracer, engine


def _sequential(sim, tracer):
    return Validator(sim, K, timeout=StaticTimeout(TIMEOUT_MS), tracer=tracer)


def _pipeline(shards):
    def make(sim, tracer):
        return ValidationPipeline(sim, K, shards=shards,
                                  timeout=StaticTimeout(TIMEOUT_MS),
                                  tracer=tracer)
    return make


def test_trace_replay_is_deterministic():
    first, _ = _run_traced(_sequential)
    second, _ = _run_traced(_sequential)
    assert first.canonical() == second.canonical()
    assert len(first) > 0


@pytest.mark.parametrize("shards", [1, 4])
def test_trace_is_engine_independent(shards):
    sequential_trace, sequential = _run_traced(_sequential)
    pipeline_trace, pipeline = _run_traced(_pipeline(shards))
    assert pipeline.triggers_decided == sequential.triggers_decided
    assert pipeline_trace.canonical() == sequential_trace.canonical()


def test_timeout_triggers_trace_the_timeout_verdict():
    tracer, engine = _run_traced(_sequential)
    timeout_decides = [s for s in tracer.spans
                       if s.stage == DECIDE and s.verdict == "timeout"]
    full_decides = [s for s in tracer.spans
                    if s.stage == DECIDE and s.verdict == "full-count"]
    assert timeout_decides, "starved triggers must decide by timeout"
    assert full_decides, "fed triggers must decide by full count"
    assert len(timeout_decides) + len(full_decides) == engine.triggers_decided


# ----------------------------------------------------------------------
# Export / reload
# ----------------------------------------------------------------------

def test_payload_roundtrip_preserves_canonical_encoding(tmp_path):
    tracer, _ = _run_traced(_sequential)
    path = str(tmp_path / "trace.json")
    dump_trace(tracer, path)
    reloaded = load_trace(path)
    assert reloaded.canonical() == tracer.canonical()
    assert len(reloaded) == len(tracer)
    assert set(reloaded.trigger_keys()) == set(tracer.trigger_keys())
    payload = json.loads(open(path).read())
    assert payload["format"] == "jury-trace"
    assert payload["span_count"] == len(tracer)


def test_from_payload_rejects_foreign_json():
    with pytest.raises(ValueError):
        Tracer.from_payload({"format": "not-a-trace"})
