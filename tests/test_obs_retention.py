"""The bounded event log: what retires, what every view keeps, and the bound.

The tracer keeps every row of the newest ``RETAINED_TRIGGERS`` traced
triggers and of every alarmed one, and retires the rest in chunks once each
view has folded it (:class:`repro.obs.trace.Tracer`). Here the constant is
patched down so retirement happens inside small streams:

* every view still equals the eager reference of ``test_obs_eventlog``
  type-exactly, and the trace equals a log that kept everything, filtered
  by the retention rule written out naively;
* the retained trace is engine-independent and round-trips through its
  payload, and ``report QUERY`` on a retired trigger says so;
* traced heap stops growing once rows retire (``python -m
  tests.test_obs_retention`` runs the full 200 000-trigger bound).
"""

from __future__ import annotations

import gc
import json
import sys
import tracemalloc
from contextlib import contextmanager
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.checkpoint import replay_stream
from repro.core.pipeline import ValidationPipeline
from repro.core.timeouts import StaticTimeout
from repro.core.validator import Validator
from repro.harness.inspect import report_text
from repro.obs import trace as obs_trace
from repro.obs.diagnose import AlarmForensics
from repro.obs.health import ReplicaHealthTracker
from repro.obs.metrics import MetricsRegistry
from repro.obs.observer import Observer
from repro.obs.recorder import FlightRecorder
from repro.obs.sampling import HeadSampler
from repro.obs.trace import Tracer
from repro.sim.simulator import Simulator
from repro.workloads.synthetic import trigger_responses
from tests.test_obs_eventlog import (
    RATES,
    TRIGGERS,
    _ALARM,
    _apply,
    _assert_views_same,
    _decide,
    _EagerObserver,
    _ops,
)
from tests.test_obs_trace import _RowTracer, _typed
from tests.test_one_engine import SOAK_K, TIMEOUT_MS, _faulty_soak_stream


@contextmanager
def _retaining(triggers: int):
    """Tracers built inside keep ``triggers`` traced triggers."""
    with mock.patch.object(obs_trace, "RETAINED_TRIGGERS", triggers):
        yield


# ----------------------------------------------------------------------
# The retention rule, written out
# ----------------------------------------------------------------------

def _kept_rows(log: Tracer, window: int):
    """The shown rows of ``log`` (which retired nothing) that a tracer
    keeping ``window`` traced triggers (whose first row is shown) shows,
    replaying the rule row by row: a row for a trigger that has left the
    kept set, and is not among the newest ``window``, starts it afresh."""
    current, traced, alarmed, rows = {}, [], [], []
    for position in range(log._end()):
        key, hidden = repr(log._triggers[log._trigger[position]]), not (
            log._code[position] & obs_trace._SHOWN)
        live = current.get(key)
        if live is not None and not (
                live >= len(traced) - window or alarmed[live] or traced[live]
                and sum(traced[live + 1:]) < window):
            live = None
        if live is None:
            live = current[key] = len(traced)
            traced.append(not hidden)
            alarmed.append(False)
        if not hidden:
            span = tuple(vars(log._span(position)).values())
            alarmed[live] = alarmed[live] or span[2] == obs_trace.ALARM
            rows.append((live, span))
    newest = [n for n, was in enumerate(traced) if was][-window:]
    keep = set(newest) | {n for n, was in enumerate(alarmed) if was}
    return [row for live, row in rows if live in keep]


def _assert_trace_retains(tracer: Tracer, log: Tracer, window: int) -> None:
    expected = _RowTracer()
    expected.rows = _kept_rows(log, window)
    assert tracer.canonical() == expected.canonical()
    assert tracer.trigger_keys() == expected.trigger_keys()
    assert _typed(list(tracer.spans)) == _typed(
        [obs_trace.Span(*row) for row in expected.rows])
    assert _typed(tracer.stage_counts()) == _typed(expected.stage_counts())
    payload = tracer.to_payload()
    assert payload["spans"] == expected.to_payload()["spans"]
    assert ("retired" in payload) == (len(expected.rows) < len(log))


# ----------------------------------------------------------------------
# Every view stays exact while rows retire
# ----------------------------------------------------------------------

def _run_retiring(rate, capacity, ops, window, max_dumps=3):
    """Feed ``ops`` (in simulated-time order, as every engine reports) to a
    retiring observer, the eager reference and a log that keeps all."""
    log = Tracer()
    everything = Observer(tracer=log, sampler=HeadSampler(rate),
                          recorder=FlightRecorder(capacity, max_dumps))
    with _retaining(window):
        observer = Observer(tracer=Tracer(), metrics=MetricsRegistry(),
                            health=ReplicaHealthTracker(),
                            recorder=FlightRecorder(capacity, max_dumps),
                            sampler=HeadSampler(rate))
        reference = _EagerObserver(rate, capacity, max_dumps)
        for op in sorted(ops, key=lambda op: op[1]):
            _apply(op, (observer, reference, everything))
            if op[0] == "read":
                _assert_views_same(observer, reference, op[1], (op[1],))
                _assert_trace_retains(observer.tracer, log, window)
        _assert_views_same(observer, reference, 1300.0, (1300.0, 1500.0))
        _assert_trace_retains(observer.tracer, log, window)
    return observer


@st.composite
def _streams(draw):
    rate = draw(st.sampled_from(RATES))
    ops = draw(st.lists(_ops(rate), max_size=60))
    return rate, draw(st.sampled_from([3, 256])), draw(
        st.sampled_from([1, 2, 4])), ops


@settings(max_examples=200, deadline=None)
@given(_streams())
@example((  # rows retire while the alarmed trigger stays
    1, 3, 1, [_decide(n, _ALARM if n == TRIGGERS[1][0] else ())
              for n in TRIGGERS[1]] + [("read", 100.0)]))
@example((  # an unsampled decision's hidden row retires past the ring
    64, 3, 1, [_decide(n) for n in TRIGGERS[64] * 3] + [("read", 100.0)]))
def test_every_view_stays_exact_while_rows_retire(stream):
    """Metrics, health and flight equal the eager reference type-exactly at
    rates 1, 8 and 64 with rows retiring, and the trace equals a log that
    kept everything, filtered by the retention rule."""
    rate, capacity, window, ops = stream
    _run_retiring(rate, capacity, ops, window)


def test_rows_retire_and_triggers_leave_the_tables():
    """A retired trigger holds no Python object: it leaves the interning
    tables, and its rows the columns."""
    ops = [_decide(n, _ALARM if n == 0 else (), now=float(n))
           for n in range(40)]
    tracer = _run_retiring(1, 3, ops, 2).tracer
    named = [trigger for trigger in tracer._triggers
             if trigger is not obs_trace._HOLE]
    assert ("ext", 0) in named  # it alarmed
    assert len(named) < 20
    assert set(tracer._trigger_ordinals) <= set(named)
    assert len(tracer._at) < 20 * 4  # (a decision is four rows)


# ----------------------------------------------------------------------
# Engines, payloads and the report
# ----------------------------------------------------------------------

def _observed(make_engine, window):
    with _retaining(window):
        return replay_stream(_faulty_soak_stream(), make_engine,
                             settle_ms=4 * TIMEOUT_MS).tracer


def test_retained_trace_is_engine_independent():
    """The sequential validator and the serial N=4 pipeline retain the same
    canonical trace of the faulty soak stream, alarms and all."""
    window = 32
    timeout = StaticTimeout(TIMEOUT_MS)
    sequential = _observed(lambda sim: Validator(
        sim, SOAK_K, timeout=timeout, tracer=Tracer()), window)
    pipeline = _observed(lambda sim: ValidationPipeline(
        sim, SOAK_K, shards=4, timeout=timeout, tracer=Tracer()), window)
    assert "retired" in sequential.to_payload()
    assert sequential.canonical() == pipeline.canonical()
    assert (sequential.to_payload()["retired"]
            == pipeline.to_payload()["retired"])


def test_a_retained_trace_round_trips_through_its_payload():
    """``Tracer.from_payload(t.to_payload())`` reproduces a retained trace
    byte for byte, its retention fields included."""
    tracer = _observed(lambda sim: Validator(
        sim, SOAK_K, timeout=StaticTimeout(TIMEOUT_MS), tracer=Tracer()), 32)
    payload = tracer.to_payload()
    reloaded = Tracer.from_payload(json.loads(json.dumps(payload)))
    assert json.dumps(reloaded.to_payload(), sort_keys=True) == json.dumps(
        payload, sort_keys=True)
    assert reloaded.canonical() == tracer.canonical()


def test_report_query_on_a_retired_trigger_says_it_retired():
    tracer = _observed(lambda sim: Validator(
        sim, SOAK_K, timeout=StaticTimeout(TIMEOUT_MS), tracer=Tracer()), 32)
    payload = {"trace": tracer.to_payload()}
    first, last = payload["trace"]["retired"]["window"]
    with pytest.raises(LookupError, match=r"retired") as error:
        report_text(payload, "ext:0")
    assert first in str(error.value) and last in str(error.value)
    assert "decide" in report_text(payload, last)  # a kept one renders


# ----------------------------------------------------------------------
# The heap bound
# ----------------------------------------------------------------------

#: θτ and trigger spacing of the bound's stream: the validator's own
#: late-drop window (20·θτ) holds 1 000 triggers.
BOUND_TIMEOUT_MS, BOUND_SPACING_MS, BOUND_K = 50.0, 1.0, 2


def _heap_growth(triggers: int, measured_from: int, **observers) -> float:
    """Traced-heap bytes per trigger gained between ``measured_from`` and
    ``triggers`` clean triggers through a sequential validator."""
    sim = Simulator(seed=0)
    engine = Validator(sim, BOUND_K, timeout=StaticTimeout(BOUND_TIMEOUT_MS),
                       keep_results=False, **observers)
    tracemalloc.start()
    try:
        heap = {}
        for index in range(triggers):
            if index in (measured_from, triggers - 1):
                gc.collect()
                heap[index] = tracemalloc.get_traced_memory()[0]
            sim.run(until=index * BOUND_SPACING_MS)
            for response in trigger_responses(index, BOUND_K, index % 50,
                                              faulty=False):
                engine.ingest(response)
    finally:
        tracemalloc.stop()
    assert engine.triggers_alarmed == 0
    return (heap[triggers - 1] - heap[measured_from]) / (
        triggers - 1 - measured_from)


def heap_growth_per_trigger(triggers: int, measured_from: int,
                            rate: int) -> float:
    """What every observer attached (sampled 1 in ``rate``) adds to the
    bare validator's heap growth per clean trigger (its late-drop window
    fills up to 20 000 entries). The sampler's memo, bounded at 8 192 ids,
    is cycled to its steady fill first (it evicts half of them every 4 096
    new ones, so one cycle later it is back at the same fill and size)."""
    sampler = None
    if rate > 1:
        sampler = HeadSampler(rate)
        for index in range(4 * HeadSampler._MEMO_LIMIT):
            sampler.sampled(("warm", index))
    return _heap_growth(
        triggers, measured_from, tracer=Tracer(), metrics=MetricsRegistry(),
        forensics=AlarmForensics(), health=ReplicaHealthTracker(),
        recorder=FlightRecorder(), sampler=sampler,
    ) - _heap_growth(triggers, measured_from)


@pytest.mark.parametrize("rate", [1, 64])
def test_traced_heap_stops_growing_once_rows_retire(rate):
    """With 64 traced triggers kept, heap growth after the first horizons
    stays within 16 bytes per clean trigger (a detection sample is 8),
    measured over one eviction cycle of the sampler's memo."""
    with _retaining(64):
        growth = heap_growth_per_trigger(6097, 2000, rate)
    assert growth <= 16.0, f"{growth:.1f} B per trigger at rate {rate}"


if __name__ == "__main__":
    # The full bound: 200 000 triggers, growth from 100 000 on.
    failed = False
    for rate in (1, 64):
        growth = heap_growth_per_trigger(200_000, 100_000, rate)
        print(f"rate {rate}: {growth:.2f} B per trigger")
        failed |= growth > 16.0
    sys.exit(1 if failed else 0)
