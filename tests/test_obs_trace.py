"""The tracing layer: span model, determinism, replay, and lookups.

Trace determinism is the load-bearing property: the same recorded response
stream must produce a byte-identical canonical trace through the
sequential validator and through the pipeline at any shard count —
including streams where triggers time out. These tests drive that with the
synthetic benchmark workload (no live experiment needed); the recorded
live-stream variant lives in test_pipeline_differential.py.
"""

from __future__ import annotations

import gc
import json
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.alarms import ValidationResult
from repro.core.timeouts import StaticTimeout
from repro.core.pipeline import ValidationPipeline
from repro.core.validator import Validator
from repro.obs.diagnose import AlarmForensics
from repro.obs.health import ReplicaHealthTracker
from repro.obs.metrics import MetricsRegistry
from repro.obs.observer import Observer
from repro.obs.recorder import FlightRecorder
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
    assert tracer.emit(0.0, ("ext", 1), INGEST, b=2, a=1) is None
    assert tracer.spans[-1].attrs == (("a", 1), ("b", 2))


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

def test_payload_roundtrip_preserves_canonical_encoding():
    tracer, _ = _run_traced(_sequential)
    payload = json.loads(json.dumps(tracer.to_payload(), sort_keys=True))
    reloaded = Tracer.from_payload(payload)
    assert reloaded.canonical() == tracer.canonical()
    assert len(reloaded) == len(tracer)
    assert set(reloaded.trigger_keys()) == set(tracer.trigger_keys())
    assert payload["format"] == "jury-trace"
    assert payload["span_count"] == len(tracer)


def test_from_payload_rejects_foreign_json():
    with pytest.raises(ValueError):
        Tracer.from_payload({"format": "not-a-trace"})


# ----------------------------------------------------------------------
# Storage: collector-invisible rows, interned attrs, lazy index
# ----------------------------------------------------------------------

def test_spans_add_no_collector_tracked_objects():
    """Every span is kept, yet none is an object the cyclic collector has
    to scan: one tracked object per retained span is what made the
    unsampled observer stack spend a third of its time in the collector."""
    workload = synthetic_validation_workload(2600, k=K, seed=5)
    decisions = [(float(index), responses, ValidationResult(
        trigger_id=responses[0].trigger_id, ok=True, external=True,
        decided_at=float(index), n_responses=len(responses)))
        for index, responses in enumerate(workload)]
    no_checks = (None, None, None, None)
    tracer = Tracer()
    observer = Observer(tracer=tracer)
    gc.collect()
    before = len(gc.get_objects())
    for now, responses, result in decisions:
        for response in responses:
            observer.ingest(now, response)
        observer.decision(now, result, responses, no_checks)
    gc.collect()
    growth = len(gc.get_objects()) - before
    assert len(tracer) >= 20_000
    assert growth < 500, f"{growth} tracked objects for {len(tracer)} spans"


def test_attr_interning_keeps_each_value_type():
    tracer = Tracer()
    for value in (1, True, 1.0):
        tracer.emit(0.0, ("ext", 1), INGEST, x=value)
    spans = list(tracer.spans)
    assert len({span.canonical_line() for span in spans}) == 3
    assert [type(span.attr("x")) for span in spans] == [int, bool, float]


_ATTR_VALUES = st.one_of(
    st.text(max_size=2), st.integers(-2, 2), st.booleans(), st.floats(),
    st.none(), st.tuples(st.integers(0, 1), st.text(max_size=1)),
    st.lists(st.integers(0, 1), max_size=2))


@st.composite
def _attr_dicts(draw):
    """1–4 attributes, inserted in a random order."""
    keys = draw(st.lists(st.sampled_from("abcd"), min_size=1, max_size=4,
                         unique=True))
    return {key: draw(_ATTR_VALUES) for key in keys}


@settings(max_examples=200, deadline=None)
@given(st.lists(_attr_dicts(), min_size=1, max_size=12))
def test_frozen_attrs_are_sorted_typed_and_shared_per_attribute_set(dicts):
    tracer = Tracer()
    for index, attrs in enumerate(dicts):
        tracer.emit(float(index), ("ext", index), INGEST, **attrs)
    shared = {}
    for attrs, span, row in zip(dicts, tracer.spans, tracer._rows):
        expected = tuple(sorted(attrs.items()))
        assert span.attrs == expected
        assert ([type(value) for _, value in span.attrs]
                == [type(value) for _, value in expected])
        if all(type(value) in (str, int, bool, type(None))
               for value in attrs.values()):
            # One interned tuple per insertion-ordered (key, value, type)
            # set: 1 and True stay apart, equal sets share one object.
            identity = tuple((key, value, type(value))
                             for key, value in attrs.items())
            assert shared.setdefault(identity, row[5]) is row[5]
    assert len(tracer._interned) == len(shared)


def _full_stack_run(triggers: int) -> Tracer:
    """The synthetic stream through a 4-shard pipeline with every observer
    attached; every seventh trigger is starved so it decides by timeout."""
    sim = Simulator(seed=0)
    tracer = Tracer()
    engine = ValidationPipeline(
        sim, K, shards=4, timeout=StaticTimeout(TIMEOUT_MS),
        keep_results=False, tracer=tracer, metrics=MetricsRegistry(),
        forensics=AlarmForensics(), health=ReplicaHealthTracker(),
        recorder=FlightRecorder())
    workload = synthetic_validation_workload(triggers, k=K, seed=9,
                                             fault_rate=0.05)
    for index, responses in enumerate(workload):
        sim.run(until=float(index))
        for response in (responses[: K + 1] if index % 7 == 0
                         else responses):
            engine.ingest(response)
    engine.drain()
    sim.run(until=triggers + 10 * TIMEOUT_MS)
    return tracer


def test_intern_table_follows_attribute_sets_not_triggers():
    tracer = _full_stack_run(2000)
    assert len(tracer) > 10 * 2000
    assert len(tracer._interned) <= 36
    copies = list(tracer._interned.values())
    assert all(any(attrs is copy for copy in copies)
               for *_, attrs in tracer._rows if attrs)


def _eager_index(tracer: Tracer):
    index = {}
    for span in tracer.spans:
        index.setdefault(repr(span.trigger_id), []).append(span)
    return index


def _interleaved_spans(triggers: int):
    """``(at, τ, stage, verdict, attrs)`` for ``triggers`` triggers opened
    in a shuffled order, each deciding two openings later: their spans
    interleave, and first-seen order is neither id nor ``repr`` order."""
    workload = synthetic_validation_workload(triggers, k=K, seed=3)
    random.Random(3).shuffle(workload)
    events = []
    for opened, responses in enumerate(workload):
        tau = responses[0].trigger_id
        for offset, response in enumerate(responses):
            events.append((opened + 2.0 * offset / len(responses), tau,
                           INGEST, None, {"kind": response.kind.value,
                                          "controller": response.controller_id}))
        events.append((opened + 2.0, tau, DECIDE, "full-count",
                       {"external": True, "n_responses": len(responses)}))
        events.append((opened + 2.0, tau, ACCEPT, "ok", {}))
    events.sort(key=lambda event: event[0])
    return events


def test_lazy_index_matches_an_eager_one():
    tracer = Tracer()
    for step, (at, tau, stage, verdict, attrs) in enumerate(
            _interleaved_spans(12)):
        tracer.emit(at, tau, stage, verdict=verdict, **attrs)
        if step % 3:
            continue  # the index falls behind between reads
        reference = _eager_index(tracer)
        assert tracer.trigger_keys() == list(reference)
        assert len(tracer) == sum(map(len, reference.values()))
        assert tracer.stage_counts() == dict(
            Counter(span.stage for span in tracer.spans))
        for key, spans in reference.items():
            assert tracer.spans_for(key) == spans
            assert tracer.timeline(key).spans == sorted(spans,
                                                        key=span_sort_key)
    keys = tracer.trigger_keys()
    assert keys != sorted(keys)
    assert tracer.spans_for(("ext", 99)) == []

    reloaded = Tracer.from_payload(tracer.to_payload())
    assert reloaded.canonical() == tracer.canonical()
    assert reloaded.trigger_keys() == tracer.trigger_keys()


def test_spans_are_read_only_and_null_tracer_records_nothing():
    tracer = Tracer()
    tracer.emit(0.0, ("ext", 1), INGEST)
    with pytest.raises(AttributeError):
        tracer.spans.append(tracer.spans[0])  # jury: ignore[H406] — must raise
    assert len(tracer) == 1

    null = NullTracer()
    assert null.emit(0.0, ("ext", 1), INGEST, kind="cache") is None
    assert len(null) == 0
    assert list(null.spans) == [] and null.trigger_keys() == []
