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
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.alarms import ValidationResult
from repro.core.timeouts import StaticTimeout
from repro.core.pipeline import ValidationPipeline
from repro.core.validator import Validator
from repro.obs.diagnose import AlarmForensics
from repro.obs.health import (
    HealthReport,
    ReplicaHealthTracker,
    _HysteresisState,
    _ReplicaWindow,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.observer import Observer
from repro.obs.recorder import FlightRecorder
from repro.obs.trace import (
    ACCEPT,
    ALARM,
    CHECK_CONSENSUS,
    DECIDE,
    ENGINE_CHECKPOINT,
    INGEST,
    STAGE_RANK,
    Span,
    Tracer,
    _ReprKey,
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
# Storage: columns of machine words, interned shapes, lazy index
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


def _tracked_growth(feed, warm: int, count: int):
    """Objects the collector tracks that ``feed(count)`` leaves, once
    ``feed(warm)`` has warmed it: counted with the collector off (born),
    then after a collection (kept)."""
    feed(warm)
    gc.collect()
    gc.disable()
    try:
        before = len(gc.get_objects())
        feed(count)
        born = len(gc.get_objects()) - before
    finally:
        gc.enable()
    gc.collect()
    return born, len(gc.get_objects()) - before


def test_retained_spans_and_health_events_add_no_tracked_objects():
    """Once its triggers and shapes are warm, a span or a health response
    leaves no object for the collector: none retained, and none born
    tracked either (with the collector off, a retained tuple per span would
    count here until a collection untracked it). The same holds for the
    observer seam with every view attached: 50 000 observed ingests plus
    their decisions are rows of its one log."""
    triggers = [("ext", index) for index in range(64)]
    controllers = [f"c{index}" for index in range(7)]
    tracer, health = Tracer(), ReplicaHealthTracker()

    def feed(count):
        for index in range(count):
            tau, cid = triggers[index % 64], controllers[index % 7]
            tracer.emit(float(index), tau, INGEST, kind="cache_update",
                        controller=cid)
            health.record_response(float(index), cid,
                                   0.5 if index % 3 else None)

    born, kept = _tracked_growth(feed, 64 * 7, 50_000)
    assert len(tracer) == 64 * 7 + 50_000
    assert born <= 16 and kept <= 16, (born, kept)

    responses = [[SimpleNamespace(
        trigger_id=tau, controller_id=cid,
        kind=SimpleNamespace(_value_="cache_update"),
        trigger_received_at=0.0) for cid in controllers] for tau in triggers]
    results = [SimpleNamespace(
        trigger_id=tau, alarms=[], external=True, timed_out=False,
        n_responses=len(controllers), detection_ms=1.5) for tau in triggers]
    checks = (SimpleNamespace(ok=True, reason=None, offending=""), None, [],
              None)
    seam = Observer(tracer=Tracer(), metrics=MetricsRegistry(),
                    health=ReplicaHealthTracker(), recorder=FlightRecorder())

    def observe(count):
        for index in range(count):
            slot, now = index % 64, float(index)
            seam.ingest(now, responses[slot][index % 7])
            if index % 7 == 6:
                seam.decision(now, results[slot], responses[slot], checks)

    born, kept = _tracked_growth(observe, 64 * 7, 50_000)
    assert seam.metrics.family_total("validator_responses_total") == \
        64 * 7 + 50_000
    assert born <= 16 and kept <= 16, (born, kept)


class _Formatted(str):
    """A ``str`` that prints differently from the ``str`` it equals."""

    __slots__ = ()

    def __format__(self, spec: str) -> str:
        return f"<{str(self)}>"


class _RowTracer:
    """The reference tracer: every span a plain row in one list."""

    def __init__(self, rows=()) -> None:
        self.rows = list(rows)

    def emit(self, at, trigger_id, stage, verdict=None, detail="", **attrs):
        self.rows.append((at, trigger_id, stage, verdict, detail,
                          tuple(sorted(attrs.items()))))

    def ordered(self, engine: bool):
        return sorted((row for row in self.rows
                       if engine or not row[2].startswith("engine:")),
                      key=lambda row: (row[0], repr(row[1]), STAGE_RANK.get(
                          row[2], len(STAGE_RANK))))

    def canonical(self) -> bytes:
        return "\n".join(
            f"{at:.9f}|{tau!r}|{stage}|{'-' if verdict is None else verdict}"
            f"|{detail}|{';'.join(f'{k}={v!r}' for k, v in attrs)}"
            for at, tau, stage, verdict, detail, attrs in self.ordered(False)
        ).encode("utf-8")

    def to_payload(self):
        spans = [{"t": at, "trigger": repr(tau), "stage": stage,
                  "verdict": verdict, "detail": detail, "attrs": dict(attrs)}
                 for at, tau, stage, verdict, detail, attrs
                 in self.ordered(True)]
        return {"format": "jury-trace", "version": 1,
                "span_count": len(spans),
                "trigger_count": len(self.trigger_keys()), "spans": spans}

    @staticmethod
    def from_payload(payload) -> "_RowTracer":
        return _RowTracer(
            (float(entry["t"]), _ReprKey(entry["trigger"]),
             str(entry["stage"]), entry.get("verdict"),
             str(entry.get("detail", "")),
             tuple(sorted(dict(entry.get("attrs") or {}).items())))
            for entry in payload["spans"])

    def trigger_keys(self):
        return list(dict.fromkeys(repr(row[1]) for row in self.rows))

    def stage_counts(self):
        return dict(Counter(row[2] for row in self.rows))

    def spans_for(self, key):
        return [Span(*row) for row in self.rows if repr(row[1]) == key]


class _RowHealth(ReplicaHealthTracker):
    """The reference health tracker: plain row lists, evaluated by sorting
    every event and replaying each window from scratch (the columnar
    tracker's algorithm before it folded windows)."""

    def __init__(self) -> None:
        super().__init__()
        self.responses, self.decisions = [], []

    def record_response(self, now, controller_id, lag_ms=None):
        self.responses.append((now, controller_id, lag_ms))

    def record_decision(self, now, responses, alarms, timed_out):
        self.decisions.append((
            now, tuple(sorted({r.controller_id for r in responses})),
            tuple(sorted({a.offending_controller for a in alarms
                          if a.offending_controller})), timed_out))

    def evaluate(self, now):
        from repro.harness.metrics import percentile

        responses = sorted(self.responses, key=lambda e: (
            e[0], e[1], -1.0 if e[2] is None else e[2]))
        decisions = sorted(self.decisions)
        first_seen = {}
        for at, cid, _ in responses:
            first_seen.setdefault(cid, at)
        replicas = sorted(set(first_seen) | {
            cid for _, responders, offenders, _ in decisions
            for cid in responders + offenders})
        states = {cid: _HysteresisState() for cid in replicas}
        last = {cid: _ReplicaWindow() for cid in replicas}
        boundary = self.interval_ms
        while boundary <= now:
            last = {cid: _ReplicaWindow() for cid in replicas}
            for at, cid, lag in responses:
                if boundary - self.window_ms <= at < boundary and (
                        lag is not None):
                    last[cid].lags = (last[cid].lags or []) + [lag]
            for at, responders, offenders, timed_out in decisions:
                if not boundary - self.window_ms <= at < boundary:
                    continue
                for cid in set(responders) | set(offenders):
                    last[cid].involved += 1
                for cid in offenders:
                    last[cid].offender += 1
                for cid in replicas if timed_out else ():
                    if first_seen.get(cid, boundary) < at:
                        last[cid].expected_timeouts += 1
                        last[cid].missed_timeouts += cid not in responders
            for cid in replicas:
                self._advance_hysteresis(states[cid], self._score(last[cid]),
                                         boundary)
            boundary += self.interval_ms
        totals = Counter(cid for _, cid, _ in responses)
        involved = Counter(cid for _, responders, offenders, _ in decisions
                           for cid in set(responders) | set(offenders))
        reports = {}
        for cid in replicas:
            window, lags = last[cid], last[cid].lags or []
            reports[cid] = HealthReport(
                cid, self._score(window),
                window.offender / window.involved if window.involved else 0.0,
                window.missed_timeouts / window.expected_timeouts
                if window.expected_timeouts else 0.0,
                percentile(lags, 0.5) if lags else 0.0,
                percentile(lags, 0.95) if lags else 0.0,
                totals.get(cid, 0), involved.get(cid, 0),
                states[cid].suspected, states[cid].suspected_since)
        return reports


def _typed(value):
    """``value`` with each part's type, ``repr`` and format beside it: equal
    only if every part is equal, of the same type, and prints the same."""
    if isinstance(value, Span):
        value = (value.at, value.trigger_id, value.stage, value.verdict,
                 value.detail, value.attrs)
    if isinstance(value, dict):
        return [(_typed(k), _typed(v)) for k, v in value.items()]
    if isinstance(value, (list, tuple)):
        return (type(value), [_typed(v) for v in value])
    return (type(value), repr(value), f"{value}")


_TRIGGERS = st.sampled_from([
    ("ext", 1), ("ext", True), ("ext", 1.0), ("ext", -0.0), ("ext", 0.0),
    ("int", "c1", 3), ("int", _Formatted("c1"), 3), ("ext", (1, 2)),
    ("engine", "checkpoint")])
_VALUES = st.one_of(
    st.sampled_from([1, True, 1.0, -0.0, 0.0, None, "x", _Formatted("x")]),
    st.lists(st.integers(0, 1), max_size=2))
_SPANS = st.tuples(
    st.sampled_from([0.0, -0.0, 1.0, 2.5]), _TRIGGERS,
    st.sampled_from([INGEST, DECIDE, ALARM, ACCEPT, ENGINE_CHECKPOINT,
                     "custom", _Formatted(INGEST)]),
    st.sampled_from([None, "ok", "", _Formatted("ok")]),
    st.sampled_from(["", "c1", _Formatted("c1")]),
    st.dictionaries(st.sampled_from("abc"), _VALUES, max_size=3))
_CONTROLLERS = st.sampled_from(["c1", "c2", _Formatted("c1")])
_RESPONSES = st.tuples(st.sampled_from([0.0, 120.0, 260.0, 900.0]),
                       _CONTROLLERS, st.sampled_from([None, 0.0, 1.5, 300.0]))
_DECISIONS = st.tuples(st.sampled_from([100.0, 300.0, 800.0]),
                       st.lists(_CONTROLLERS, max_size=3),
                       st.lists(_CONTROLLERS, max_size=2),
                       st.sampled_from([True, False, 1, 0]))


@settings(max_examples=200, deadline=None)
@given(st.lists(_SPANS, max_size=30), st.lists(_RESPONSES, max_size=12),
       st.lists(_DECISIONS, max_size=6))
@example(  # every equal-but-unlike pair, each first recorded out of order
    spans=[(1.0, ("ext", value), INGEST, "ok", "c1", {"a": value})
           for value in (1, True, 1.0, -0.0, 0.0)] + [
        (2.5, ("int", _Formatted("c1"), 3), _Formatted(INGEST),
         _Formatted("ok"), _Formatted("c1"), {"a": _Formatted("x")}),
        (2.5, ("int", "c1", 3), INGEST, "ok", "c1", {"a": "x"}),
        (0.0, ("ext", 1), ENGINE_CHECKPOINT, None, "", {"b": [1]})],
    responses=[(260.0, _Formatted("c2"), 1.5), (120.0, "c2", None)],
    decisions=[(800.0, [_Formatted("c1")], [_Formatted("c1")], 1),
               (100.0, ["c1"], ["c1"], True)])
def test_columnar_storage_matches_a_row_list_reference(spans, responses,
                                                       decisions):
    tracer, reference = Tracer(), _RowTracer()
    for at, tau, stage, verdict, detail, attrs in spans:
        for sink in (tracer, reference):
            sink.emit(at, tau, stage, verdict, detail, **attrs)
    assert tracer.canonical() == reference.canonical()
    assert _typed(tracer.to_payload()) == _typed(reference.to_payload())
    reloaded = Tracer.from_payload(tracer.to_payload())
    expected = _RowTracer.from_payload(reference.to_payload())
    assert reloaded.canonical() == expected.canonical()
    assert _typed(reloaded.to_payload()) == _typed(expected.to_payload())
    for left, right in ((tracer, reference), (reloaded, expected)):
        assert _typed(left.stage_counts()) == _typed(right.stage_counts())
        assert left.trigger_keys() == right.trigger_keys()
        for key in right.trigger_keys():
            assert _typed(left.spans_for(key)) == _typed(right.spans_for(key))
    for tau in {repr(tau): tau for _, tau, *_ in spans}.values():
        assert (_typed(tracer.spans_for(tau))
                == _typed(reference.spans_for(repr(tau))))

    health, rows = ReplicaHealthTracker(), _RowHealth()
    for sink in (health, rows):
        for at, cid, lag in responses:
            sink.record_response(at, cid, lag)
        for at, responders, offenders, timed_out in decisions:
            sink.record_decision(
                at, [SimpleNamespace(controller_id=c) for c in responders],
                [SimpleNamespace(offending_controller=c) for c in offenders],
                timed_out)
    for now in (0.0, 250.0, 1000.0, 2500.0):
        assert _typed({cid: report.to_dict() for cid, report
                       in health.evaluate(now).items()}) == _typed(
            {cid: report.to_dict() for cid, report
             in rows.evaluate(now).items()})


def test_observer_hot_stages_keep_value_types():
    """The seam's shape cache keys on types too: an ingest, decide or check
    span reads back exactly as ``Tracer.emit`` would have stored it."""
    tracer, reference = Tracer(), Tracer()
    observer = Observer(tracer=tracer)
    kind = SimpleNamespace(_value_="cache_update")
    for at, controller in enumerate(("c1", _Formatted("c1"), "c1")):
        observer.ingest(float(at), SimpleNamespace(
            trigger_id=("ext", 1), kind=kind, controller_id=controller,
            trigger_received_at=None))
        reference.emit(float(at), ("ext", 1), INGEST, kind="cache_update",
                       controller=controller)
    for at, (external, n, offending) in enumerate((
            (True, 3, "c2"), (1, 3, _Formatted("c2")), (True, True, "c2"))):
        tau = ("ext", 2 + at)
        observer.decision(float(at), SimpleNamespace(
            trigger_id=tau, alarms=(), external=external, timed_out=False,
            n_responses=n, detection_ms=0.0), (), (SimpleNamespace(
                ok=False, reason=SimpleNamespace(value="mismatch"),
                offending=offending), None, None, None))
        reference.emit(float(at), tau, DECIDE, verdict="full-count",
                       external=external, n_responses=n)
        reference.emit(float(at), tau, CHECK_CONSENSUS, verdict="mismatch",
                       detail=offending)
        reference.emit(float(at), tau, ACCEPT, verdict="ok")
    assert _typed(tracer.spans) == _typed(reference.spans)


def test_from_payload_accepts_attrs_named_like_span_fields():
    entry = {"t": 1.0, "trigger": "('ext', 1)", "stage": INGEST,
             "verdict": None, "detail": "c1",
             "attrs": {"stage": "x", "verdict": 1, "detail": True}}
    tracer = Tracer.from_payload({"format": "jury-trace", "spans": [entry]})
    (span,) = tracer.spans
    assert (span.stage, span.verdict, span.detail) == (INGEST, None, "c1")
    assert span.attrs == (("detail", True), ("stage", "x"), ("verdict", 1))
    assert tracer.to_payload()["spans"] == [entry]


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
    unshared = 0
    for attrs, span in zip(dicts, tracer.spans):
        expected = tuple(sorted(attrs.items()))
        assert span.attrs == expected
        assert ([type(value) for _, value in span.attrs]
                == [type(value) for _, value in expected])
        if all(type(value) in (str, int, bool, type(None))
               for value in attrs.values()):
            # One shape per (key, value, type) set, whatever the insertion
            # order: 1 and True stay apart, equal sets share one entry.
            identity = tuple(sorted((key, value, type(value))
                                    for key, value in attrs.items()))
            assert shared.setdefault(identity, span.attrs) is span.attrs
        else:
            unshared += 1
    assert len(tracer._shapes) == len(shared) + unshared


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
    assert len(tracer._shapes) <= 36
    assert len(set(tracer._shapes)) == len(tracer._shapes)
    assert len(tracer._triggers) == len(tracer.trigger_keys())
    copies = [attrs for *_, attrs in tracer._shapes]
    assert all(any(span.attrs is copy for copy in copies)
               for span in tracer.spans if span.attrs)


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


def test_spans_are_read_only():
    tracer = Tracer()
    tracer.emit(0.0, ("ext", 1), INGEST)
    with pytest.raises(AttributeError):
        tracer.spans.append(tracer.spans[0])  # jury: ignore[H406] — must raise
    assert len(tracer) == 1
