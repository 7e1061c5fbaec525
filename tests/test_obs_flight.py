"""Flight recorder, head sampling, trace diffing.

The PR-8 observability layer has three determinism contracts, all pinned
here:

* **Recorder determinism** — the flight recorder sees only simulated time
  and decision facts, so two replays of the same recorded stream produce
  byte-identical ``to_json`` dumps.
* **Sampling purity** — the head sampler gates observers only: alarm
  streams are byte-identical at any rate, and alarmed decisions always
  appear in the trace (the severity override).
* **Diff alignment** — ``diff_tracers`` is empty iff the canonical
  encodings are byte-identical, and pinpoints the first divergence
  otherwise (the ``jury-repro trace-diff`` contract, exit 0/1/2).
"""

from __future__ import annotations

import json

import pytest

from repro.core.alarms import canonical_alarm_stream
from repro.core.checkpoint import replay_stream
from repro.core.pipeline import ValidationPipeline
from repro.core.timeouts import StaticTimeout
from repro.core.validator import Validator
from repro.faults.injector import default_policy_engine
from repro.fuzz import DifferentialOracle
from repro.harness.inspect import REPORT_FORMAT, REPORT_VERSION, load_report
from repro.obs.diff import (
    diff_payloads,
    diff_tracers,
    first_divergence_detail,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.recorder import (
    FLIGHT_FORMAT,
    FlightRecorder,
    render_flight,
)
from repro.obs.sampling import HeadSampler, active_sampler
from repro.obs.trace import Tracer


# ----------------------------------------------------------------------
# Head sampler: pure, stable, bounded
# ----------------------------------------------------------------------

def test_sampler_rejects_bad_rates():
    for bad in (0, -1, True, 2.0, "4"):
        with pytest.raises(ValueError, match="sampling rate"):
            HeadSampler(bad)


def test_sampler_rate_one_records_everything():
    sampler = HeadSampler(1)
    assert all(sampler.sampled(("ext", i)) for i in range(100))
    assert sampler.describe() == "off (record all)"


def test_sampler_is_a_pure_function_of_the_trigger_id():
    a, b = HeadSampler(8), HeadSampler(8)
    ids = [("ext", i) for i in range(500)] + [("pkt", i) for i in range(500)]
    decisions = [a.sampled(tau) for tau in ids]
    assert decisions == [b.sampled(tau) for tau in ids], \
        "two samplers at the same rate must agree on every trigger"
    assert decisions == [a.sampled(tau) for tau in ids], \
        "re-asking must never flip a decision"
    kept = sum(decisions)
    # CRC-32 buckets are uniform-ish: 1/8 of 1000 ids, generous bounds.
    assert 60 <= kept <= 190, f"1/8 sampling kept {kept}/1000"


def test_active_sampler_normalises_off_to_none():
    assert active_sampler(None) is None
    assert active_sampler(HeadSampler(1)) is None
    sampler = HeadSampler(4)
    assert active_sampler(sampler) is sampler


def test_sampler_memo_eviction_is_bounded_and_keeps_recent_decisions():
    """Regression for the long-run memo bug: overflow used to clear the
    whole memo, so a trigger still in flight re-hashed mid-lifecycle and
    a soak leaked one dict entry per trigger between clears. Eviction
    must (a) drop only the *oldest* half, so recently-inserted (in-flight)
    triggers keep their memoised decision across the sweep, and (b) keep
    the memo within ``_MEMO_LIMIT`` forever, without ever flipping a
    decision."""
    sampler = HeadSampler(8)
    limit = HeadSampler._MEMO_LIMIT
    # Fill the memo: old completed triggers first, in-flight ones last.
    for i in range(limit - 16):
        sampler.sampled(("pkt", ("done", i)))
    inflight = [("ext", ("live", i)) for i in range(16)]
    expected = {tau: sampler.sampled(tau) for tau in inflight}
    assert len(sampler._memo) == limit
    # The overflow insert sweeps the oldest half; the in-flight triggers
    # were inserted last, so they must survive with their decisions.
    sampler.sampled(("pkt", ("done", "overflow")))
    assert len(sampler._memo) == limit - limit // 2 + 1
    for tau in inflight:
        assert tau in sampler._memo, "recently-inserted trigger was evicted"
        assert sampler.sampled(tau) is expected[tau]
    assert ("pkt", ("done", 0)) not in sampler._memo, "oldest entry survived"
    # Long-run bound: 3x the limit of fresh ids never grows the memo past
    # the cap, and re-asking an evicted id still answers identically
    # (purity: eviction changes cost, never the decision).
    for i in range(3 * limit):
        sampler.sampled(("pkt", ("flood", i)))
        assert len(sampler._memo) <= limit, \
            f"memo grew past the bound after {i + 1} inserts"
    for tau in inflight:
        assert sampler.sampled(tau) is expected[tau]


# ----------------------------------------------------------------------
# Flight recorder: ring discipline and byte-stable dumps
# ----------------------------------------------------------------------

def test_recorder_ring_is_bounded_and_counts_everything():
    recorder = FlightRecorder(capacity=4)
    for i in range(10):
        recorder.record(float(i), "decision", ("ext", i), verdict="ok")
    assert len(recorder) == 4
    assert recorder.events_recorded == 10
    recorder.trigger("alarm", 9.0)
    dump = recorder.last_dump()
    assert [e["key"] for e in dump["events"]] == \
        [repr(("ext", i)) for i in (6, 7, 8, 9)], "ring must keep the tail"


def test_recorder_coalesces_same_instant_triggers():
    recorder = FlightRecorder()
    recorder.record(1.0, "decision", ("ext", 1), verdict="alarmed")
    first = recorder.trigger("alarm", 1.0)
    assert recorder.trigger("alarm", 1.0) is first, \
        "an alarm burst at one instant is one anomaly"
    assert recorder.dumps_triggered == 1
    recorder.trigger("alarm", 2.0)
    assert recorder.dumps_triggered == 2


def test_recorder_rejects_degenerate_capacity():
    with pytest.raises(ValueError):
        FlightRecorder(capacity=0)
    with pytest.raises(ValueError):
        FlightRecorder(max_dumps=0)


def test_flight_payload_roundtrip_and_render():
    recorder = FlightRecorder(capacity=8)
    recorder.record(1.5, "decision", ("ext", 1), verdict="ok", n=3)
    recorder.record(2.5, "alarm", ("ext", 2), verdict="primary_omission")
    recorder.trigger("alarm", 2.5)
    metrics = MetricsRegistry()
    metrics.counter("validator_alarms_total").inc()
    payload = json.loads(recorder.to_json(now=3.0, metrics=metrics))
    assert payload["format"] == FLIGHT_FORMAT
    assert payload["exported_at"] == 3.0
    assert payload["events_recorded"] == 2
    assert len(payload["dumps"]) == 1
    assert payload["metrics"]["validator_alarms_total"]["value"] == 1
    human = render_flight(payload)
    assert "reason=alarm" in human
    assert "primary_omission" in human


# ----------------------------------------------------------------------
# Integration: one recorded faulted scenario, replayed many ways
# ----------------------------------------------------------------------

@pytest.fixture(scope="module")
def faulted_live(small_fuzz_corpus):
    """One faulted generated scenario, recorded live once."""
    spec = next(s for s in small_fuzz_corpus if s.faults)
    return DifferentialOracle().record(spec)


def _replay(live, shards=None, tracer=None, metrics=None, sampler=None,
            recorder=None):
    lookup = live.mastership.get

    def factory(sim):
        kwargs = dict(timeout=StaticTimeout(live.spec.timeout_ms),
                      policy_engine=default_policy_engine(),
                      mastership_lookup=lookup, tracer=tracer,
                      metrics=metrics, sampler=sampler, recorder=recorder)
        if shards is None:
            return Validator(sim, live.spec.k, **kwargs)
        return ValidationPipeline(sim, live.spec.k, shards=shards, **kwargs)

    return replay_stream(live.records, factory)


def test_recorder_dumps_are_byte_identical_across_runs(faulted_live):
    dumps = []
    for _ in range(2):
        recorder = FlightRecorder()
        engine = _replay(faulted_live, recorder=recorder)
        assert engine.alarms, "the faulted scenario must alarm"
        assert recorder.dumps_triggered >= 1, "alarms must trigger dumps"
        dumps.append(recorder.to_json(now=123.0))
    assert dumps[0] == dumps[1], \
        "same scenario, same simulated clock => byte-identical flight dumps"


def test_recorder_sees_decisions_and_alarms(faulted_live):
    recorder = FlightRecorder(capacity=100_000)
    engine = _replay(faulted_live, recorder=recorder)
    payload = recorder.payload(now=faulted_live.ended_at)
    kinds = {event["kind"] for event in payload["ring"]}
    assert "decision" in kinds and "alarm" in kinds
    decisions = [e for e in payload["ring"] if e["kind"] == "decision"]
    assert len(decisions) == engine.triggers_decided
    alarmed = [e for e in decisions if e["verdict"] == "alarmed"]
    assert alarmed, "alarmed decisions are recorded with their verdict"


def test_sampling_never_moves_the_alarm_stream(faulted_live):
    expected = canonical_alarm_stream(_replay(faulted_live).alarms)
    for shards in (None, 2, 4):
        engine = _replay(faulted_live, shards=shards,
                         sampler=HeadSampler(16), metrics=MetricsRegistry(),
                         tracer=Tracer())
        assert canonical_alarm_stream(engine.alarms) == expected, \
            f"shards={shards}: sampling changed the alarm stream"


def test_sampled_traces_shrink_but_keep_every_alarm(faulted_live):
    full_tracer = Tracer()
    _replay(faulted_live, tracer=full_tracer)
    sampled_tracer = Tracer()
    engine = _replay(faulted_live, tracer=sampled_tracer,
                     sampler=HeadSampler(16))
    assert len(sampled_tracer) < len(full_tracer), \
        "1/16 sampling must drop spans"
    alarm_triggers = {alarm.trigger_id for alarm in engine.alarms}
    traced = {span.trigger_id for span in sampled_tracer.spans
              if span.stage == "alarm"}
    assert alarm_triggers <= traced, \
        "severity override: every alarmed trigger appears in the trace"


def test_sampled_traces_are_identical_across_engines(faulted_live):
    canonicals = set()
    for shards in (None, 2, 4):
        tracer = Tracer()
        _replay(faulted_live, shards=shards, tracer=tracer,
                sampler=HeadSampler(4))
        canonicals.add(tracer.canonical())
    assert len(canonicals) == 1, \
        "the head decision is pure per-τ: sampled traces stay byte-identical"


# ----------------------------------------------------------------------
# Trace diffing: alignment, first divergence, file round-trip
# ----------------------------------------------------------------------

def _tracer_with(spans):
    tracer = Tracer()
    for at, tau, stage, kwargs in spans:
        tracer.emit(at, tau, stage, **kwargs)
    return tracer


def test_diff_identical_traces_is_empty(faulted_live):
    left, right = Tracer(), Tracer()
    _replay(faulted_live, tracer=left)
    _replay(faulted_live, shards=2, tracer=right)
    diff = diff_tracers(left, right)
    assert diff.identical
    assert diff.first_divergence is None
    assert diff.common == diff.left_spans == diff.right_spans
    assert first_divergence_detail(diff) == "no divergence"
    assert "identical" in diff.render()


def test_diff_pinpoints_changed_and_one_sided_spans():
    base = [(1.0, ("ext", 1), "ingest", {}),
            (2.0, ("ext", 1), "decide", {"verdict": "full-count"}),
            (3.0, ("ext", 2), "ingest", {})]
    left = _tracer_with(base)
    right = _tracer_with([
        base[0],
        (2.0, ("ext", 1), "decide", {"verdict": "timeout"}),  # changed
        base[2],
        (4.0, ("ext", 3), "ingest", {}),                      # right-only
    ])
    diff = diff_tracers(left, right)
    assert not diff.identical
    assert diff.common == 2
    assert [e.kind for e in diff.entries] == ["changed", "right-only"]
    first = diff.first_divergence
    assert (first.at, first.stage) == (2.0, "decide")
    assert "full-count" in first.left and "timeout" in first.right
    detail = first_divergence_detail(diff)
    assert "t=2.000" in detail and "stage=decide" in detail
    payload = diff.to_dict(limit=1)
    assert payload["divergent"] == 2 and payload["truncated"]


def test_diff_ignores_engine_plumbing_spans():
    left = _tracer_with([(1.0, ("ext", 1), "ingest", {})])
    right = _tracer_with([(1.0, ("ext", 1), "ingest", {}),
                          (2.0, ("engine", "checkpoint"), "engine:checkpoint",
                           {})])
    assert diff_tracers(left, right).identical, \
        "canonical comparisons exclude engine:* spans; so must the diff"


def _write_report(path, tracer=None):
    """A minimal report file: the header plus, optionally, a trace."""
    payload = {"format": REPORT_FORMAT, "version": REPORT_VERSION}
    if tracer is not None:
        payload["trace"] = tracer.to_payload()
    path.write_text(json.dumps(payload, sort_keys=True), encoding="utf-8")
    return str(path)


def test_diff_trace_files_roundtrip(tmp_path, faulted_live):
    tracer = Tracer()
    _replay(faulted_live, tracer=tracer)
    a = _write_report(tmp_path / "a.json", tracer)
    b = _write_report(tmp_path / "b.json", tracer)
    assert diff_payloads(load_report(a)["trace"],
                         load_report(b)["trace"]).identical
    assert diff_payloads(tracer.to_payload(), tracer.to_payload()).identical


# ----------------------------------------------------------------------
# CLI: jury-repro trace-diff (exit 0 identical / 1 divergent / 2 usage)
# ----------------------------------------------------------------------

@pytest.fixture()
def trace_files(tmp_path, faulted_live):
    left, right = Tracer(), Tracer()
    _replay(faulted_live, tracer=left)
    _replay(faulted_live, tracer=right,
            sampler=HeadSampler(16))  # sampled => genuinely different trace
    return (_write_report(tmp_path / "left.json", left),
            _write_report(tmp_path / "right.json", right))


def test_cli_trace_diff_self_is_empty_and_exits_zero(trace_files, capsys):
    from repro.cli import main
    a, _ = trace_files
    assert main(["trace-diff", a, a]) == 0
    assert "identical" in capsys.readouterr().out


def test_cli_trace_diff_reports_first_divergence(trace_files, capsys):
    from repro.cli import main
    a, b = trace_files
    assert main(["trace-diff", a, b, "--format", "json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["identical"] is False
    assert payload["first_divergence"]["kind"] in (
        "left-only", "right-only", "changed")
    assert payload["divergent"] >= 1


def test_cli_trace_diff_prints_its_verdict_once(trace_files, capsys):
    from repro.cli import main
    a, b = trace_files
    assert main(["trace-diff", a, b]) == 1
    captured = capsys.readouterr()
    assert captured.out.count("traces diverge") == 1
    assert captured.out.count("first divergence") == 1
    # One stderr line names the first divergence for scripts.
    assert captured.err.startswith("trace-diff: first divergence at t=")
    assert captured.err.count("\n") == 1


def test_cli_trace_diff_unreadable_file_is_usage_error(tmp_path, capsys):
    from repro.cli import main
    missing = str(tmp_path / "nope.json")
    assert main(["trace-diff", missing, missing]) == 2
    assert "trace-diff" in capsys.readouterr().err


def test_cli_trace_diff_needs_a_trace_section(tmp_path, capsys):
    from repro.cli import main
    bare = _write_report(tmp_path / "bare.json")
    assert main(["trace-diff", bare, bare]) == 2
    assert "no trace section" in capsys.readouterr().err
