"""Differential equivalence: sequential validator vs. sharded pipeline.

The pipeline's contract (docs/pipeline.md) is that at flush interval 0 it is
*byte-identical* to the sequential validator: same decisions, same alarms,
same timestamps, for any response stream. These tests record real validator
input streams from live experiments — benign seeded traffic and fault
injections covering T1/T2/T3 from Table 1 — and replay each identical
stream through the sequential :class:`Validator` and through
:class:`ValidationPipeline` at N ∈ {1, 2, 4, 8}, asserting the canonical
alarm streams compare equal byte for byte.

Recording (not re-running) is load-bearing: trigger ids come from
process-global counters, so two live runs never produce comparable ids —
only replays of one recorded stream do. A live run is recorded by attaching
a :class:`WriteAheadLog` to its validator after warm-up; the stream is the
log's ingest records.
"""

from __future__ import annotations

import pytest

from repro.core.alarms import canonical_alarm_stream
from repro.core.checkpoint import WriteAheadLog, replay_stream, wal_ingests
from repro.core.pipeline import ValidationPipeline
from repro.core.timeouts import StaticTimeout
from repro.core.validator import Validator
from repro.faults.base import run_scenario
from repro.faults.injector import default_policy_engine
from repro.faults.synthetic import (
    FaultyProactiveFault,
    LinkFailureFault,
    UndesirableFlowModFault,
)
from repro import Jury, JuryConfig, Tracer
from repro.workloads.traffic import TrafficDriver

K = 4
TIMEOUT_MS = 250.0
SHARD_COUNTS = (1, 2, 4, 8)
BENIGN_SEEDS = (11, 23, 47)


def _build(seed: int):
    experiment = Jury.experiment(JuryConfig(
        kind="onos", n=5, k=K, switches=8, seed=seed,
        timeout_ms=TIMEOUT_MS, policies=("default",),
        with_northbound=True))
    experiment.warmup()
    experiment.jury.validator.wal = WriteAheadLog()
    return experiment


def _recorded(experiment):
    """The recorded stream and the mastership map it replays against."""
    cluster = experiment.cluster
    return (wal_ingests(experiment.jury.validator.wal.records()),
            {dpid: cluster.master_of(dpid) for dpid in cluster.proxies})


def _record_benign(seed: int):
    experiment = _build(seed)
    driver = TrafficDriver(experiment.sim, experiment.topology,
                           packet_in_rate_per_s=400.0, duration_ms=400.0)
    driver.start()
    experiment.run(400.0 + 4 * TIMEOUT_MS)
    return _recorded(experiment)


def _record_fault(seed: int, scenario):
    experiment = _build(seed)
    result = run_scenario(experiment, scenario)
    assert result.detected, f"{scenario.name} must be detected live"
    return _recorded(experiment)


@pytest.fixture(scope="module")
def workloads():
    """Recorded validator input streams: 3 benign seeds + T1/T2/T3 faults."""
    recorded = {}
    for seed in BENIGN_SEEDS:
        recorded[f"benign-{seed}"] = _record_benign(seed)
    recorded["fault-t1"] = _record_fault(
        91, LinkFailureFault(1, 2))
    recorded["fault-t2"] = _record_fault(
        92, UndesirableFlowModFault("c2"))
    recorded["fault-t3"] = _record_fault(
        93, FaultyProactiveFault("c3"))
    return recorded


def _replay(records, mastership, make):
    lookup = mastership.get

    def factory(sim):
        return make(sim, lookup)

    return replay_stream(records, factory)


def _sequential(records, mastership):
    return _replay(records, mastership, lambda sim, lookup: Validator(
        sim, K, timeout=StaticTimeout(TIMEOUT_MS),
        policy_engine=default_policy_engine(), mastership_lookup=lookup))


def _pipeline(records, mastership, shards):
    return _replay(records, mastership, lambda sim, lookup: ValidationPipeline(
        sim, K, shards=shards, timeout=StaticTimeout(TIMEOUT_MS),
        policy_engine=default_policy_engine(), mastership_lookup=lookup))


def _result_fingerprint(validator):
    return sorted(
        (repr(r.trigger_id), r.decided_at, r.n_responses, r.external,
         r.timed_out, r.ok, len(r.alarms))
        for r in validator.results)


def _names(workloads):
    return sorted(workloads)


# ----------------------------------------------------------------------
# The recording rig itself
# ----------------------------------------------------------------------

def test_recordings_are_non_trivial(workloads):
    for name, (records, _) in workloads.items():
        assert len(records) > 0, f"{name} recorded nothing"
        times = [r[1] for r in records]
        assert times == sorted(times), f"{name} timestamps must be ordered"


def test_replay_is_deterministic(workloads):
    records, mastership = workloads["benign-11"]
    first = _sequential(records, mastership)
    second = _sequential(records, mastership)
    assert (canonical_alarm_stream(first.alarms)
            == canonical_alarm_stream(second.alarms))
    assert _result_fingerprint(first) == _result_fingerprint(second)
    assert first.triggers_decided == second.triggers_decided


# ----------------------------------------------------------------------
# The headline equivalence assertions
# ----------------------------------------------------------------------

@pytest.mark.parametrize("seed", BENIGN_SEEDS)
def test_benign_streams_byte_identical(workloads, seed):
    records, mastership = workloads[f"benign-{seed}"]
    sequential = _sequential(records, mastership)
    assert sequential.triggers_decided > 20, "workload too small to mean much"
    expected = canonical_alarm_stream(sequential.alarms)
    for shards in SHARD_COUNTS:
        pipeline = _pipeline(records, mastership, shards)
        assert canonical_alarm_stream(pipeline.alarms) == expected, \
            f"alarm stream diverged at N={shards}"
        assert _result_fingerprint(pipeline) == _result_fingerprint(sequential)
        assert pipeline.triggers_decided == sequential.triggers_decided
        assert pipeline.responses_received == sequential.responses_received
        assert pipeline.late_responses == sequential.late_responses


@pytest.mark.parametrize("name,reason", [
    ("fault-t1", "consensus_mismatch"),
    ("fault-t2", "sanity_mismatch"),
    ("fault-t3", "policy_violation"),
])
def test_fault_streams_byte_identical(workloads, name, reason):
    records, mastership = workloads[name]
    sequential = _sequential(records, mastership)
    reasons = {a.reason.value for a in sequential.alarms}
    assert reason in reasons, \
        f"replayed {name} lost its {reason} alarm ({reasons})"
    expected = canonical_alarm_stream(sequential.alarms)
    assert expected, "fault workload must alarm"
    for shards in SHARD_COUNTS:
        pipeline = _pipeline(records, mastership, shards)
        assert canonical_alarm_stream(pipeline.alarms) == expected, \
            f"alarm stream diverged at N={shards} on {name}"
        assert _result_fingerprint(pipeline) == _result_fingerprint(sequential)
        assert pipeline.triggers_decided == sequential.triggers_decided
        assert pipeline.responses_received == sequential.responses_received
        assert pipeline.late_responses == sequential.late_responses


def _sequential_traced(records, mastership, tracer):
    return _replay(records, mastership, lambda sim, lookup: Validator(
        sim, K, timeout=StaticTimeout(TIMEOUT_MS),
        policy_engine=default_policy_engine(), mastership_lookup=lookup,
        tracer=tracer))


def _pipeline_traced(records, mastership, shards, tracer):
    return _replay(records, mastership, lambda sim, lookup: ValidationPipeline(
        sim, K, shards=shards, timeout=StaticTimeout(TIMEOUT_MS),
        policy_engine=default_policy_engine(), mastership_lookup=lookup,
        tracer=tracer))


def test_tracing_on_keeps_alarm_streams_byte_identical(workloads):
    """The differential contract must survive tracing being enabled —
    tracers are read-only observers, at every shard count."""
    for name in ("benign-11", "fault-t1", "fault-t2", "fault-t3"):
        records, mastership = workloads[name]
        baseline = _sequential(records, mastership)
        expected = canonical_alarm_stream(baseline.alarms)
        seq_tracer = Tracer()
        traced = _sequential_traced(records, mastership, seq_tracer)
        assert canonical_alarm_stream(traced.alarms) == expected, \
            f"tracing changed the sequential alarm stream on {name}"
        assert _result_fingerprint(traced) == _result_fingerprint(baseline)
        for shards in SHARD_COUNTS:
            tracer = Tracer()
            pipeline = _pipeline_traced(records, mastership, shards, tracer)
            assert canonical_alarm_stream(pipeline.alarms) == expected, \
                f"alarm stream diverged at N={shards} with tracing on ({name})"


def test_traces_are_engine_and_shard_count_independent(workloads):
    """Same recorded stream → byte-identical canonical trace, whether it
    runs through the sequential validator or the pipeline at any N; engine
    recovery spans (``engine:*``) are excluded from ``canonical()`` by
    design, so the validation story reads the same everywhere."""
    for name in ("benign-11", "fault-t2"):
        records, mastership = workloads[name]
        seq_tracer = Tracer()
        _sequential_traced(records, mastership, seq_tracer)
        expected = seq_tracer.canonical()
        assert expected, "traced replay must produce spans"
        for shards in SHARD_COUNTS:
            tracer = Tracer()
            _pipeline_traced(records, mastership, shards, tracer)
            assert tracer.canonical() == expected, \
                f"trace diverged at N={shards} on {name}"


def _full_stack(records, mastership, shards=None):
    """Replay with the whole observability stack attached."""
    from repro.obs.diagnose import AlarmForensics
    from repro.obs.health import ReplicaHealthTracker
    from repro.obs.metrics import MetricsRegistry

    forensics = AlarmForensics()
    health = ReplicaHealthTracker()
    registry = MetricsRegistry()

    def make(sim, lookup):
        kwargs = dict(timeout=StaticTimeout(TIMEOUT_MS),
                      policy_engine=default_policy_engine(),
                      mastership_lookup=lookup, metrics=registry,
                      forensics=forensics, health=health)
        if shards is None:
            return Validator(sim, K, **kwargs)
        return ValidationPipeline(sim, K, shards=shards, **kwargs)

    engine = _replay(records, mastership, make)
    return engine, forensics, health, registry


def test_forensics_and_health_keep_alarm_streams_byte_identical(workloads):
    """Diagnosis + health enabled must not move a single alarm byte."""
    for name in ("benign-11", "fault-t1", "fault-t2", "fault-t3"):
        records, mastership = workloads[name]
        expected = canonical_alarm_stream(
            _sequential(records, mastership).alarms)
        engine, _, _, _ = _full_stack(records, mastership)
        assert canonical_alarm_stream(engine.alarms) == expected, \
            f"forensics/health changed the sequential alarm stream on {name}"
        for shards in SHARD_COUNTS:
            engine, _, _, _ = _full_stack(records, mastership, shards=shards)
            assert canonical_alarm_stream(engine.alarms) == expected, \
                (f"alarm stream diverged at N={shards} with the full "
                 f"stack on ({name})")


def test_explanations_are_engine_and_shard_count_independent(workloads):
    """Same stream → byte-identical diagnosis payload at any shard count."""
    import json

    from repro.obs.diagnose import export_explanations

    for name in ("fault-t1", "fault-t2", "fault-t3"):
        records, mastership = workloads[name]
        _, forensics, _, _ = _full_stack(records, mastership)
        expected = json.dumps(export_explanations(forensics.explanations()),
                              sort_keys=True)
        assert forensics.alarm_count > 0, f"{name} must explain something"
        for shards in SHARD_COUNTS:
            _, forensics, _, _ = _full_stack(records, mastership,
                                             shards=shards)
            actual = json.dumps(export_explanations(forensics.explanations()),
                                sort_keys=True)
            assert actual == expected, \
                f"explanations diverged at N={shards} on {name}"


def test_health_and_exports_are_shard_count_independent(workloads):
    """Health reports, SLO statuses, and the Prometheus document all match
    between the sequential validator and the pipeline at every N."""
    from repro.obs.export import lint_prometheus_text, prometheus_text
    from repro.obs.health import SloMonitor

    for name in ("benign-11", "fault-t1"):
        records, mastership = workloads[name]
        horizon = max(r[1] for r in records) + 4 * TIMEOUT_MS

        def render(engine_tuple):
            _, _, health, registry = engine_tuple
            reports = health.evaluate(horizon)
            statuses = SloMonitor().evaluate(registry, horizon)
            # No collect_pipeline scrape: per-shard queue series are the
            # one legitimately engine-shaped family.
            return reports, prometheus_text(registry=registry,
                                            health_reports=reports,
                                            slo_statuses=statuses)

        expected_reports, expected_text = render(
            _full_stack(records, mastership))
        assert expected_reports, "health must have seen replicas"
        assert lint_prometheus_text(expected_text) == []
        for shards in SHARD_COUNTS:
            reports, text = render(
                _full_stack(records, mastership, shards=shards))
            assert reports == expected_reports, \
                f"health reports diverged at N={shards} on {name}"
            assert text == expected_text, \
                f"prometheus export diverged at N={shards} on {name}"


def test_pipeline_stats_account_for_every_response(workloads):
    records, mastership = workloads["benign-11"]
    pipeline = _pipeline(records, mastership, 4)
    stats = pipeline.stats
    assert stats.responses_routed == len(records)
    assert stats.total("enqueued") == stats.responses_routed
    # Replay runs to quiescence: everything enqueued was processed.
    assert stats.total("processed") == stats.total("enqueued")
    assert stats.total("decided") == pipeline.triggers_decided


# ----------------------------------------------------------------------
# Generator-drawn workloads (the fuzzer's scenarios through this rig)
# ----------------------------------------------------------------------

def test_fuzz_generated_workloads_byte_identical(small_fuzz_corpus):
    """The differential contract holds on fuzz-generated scenarios too:
    record each generated spec live, then assert sequential == pipeline at
    every shard count — and that the replay reproduces the live stream."""
    from repro.fuzz import DifferentialOracle

    oracle = DifferentialOracle()
    faulted = next(s for s in small_fuzz_corpus if s.faults)
    clean = next(s for s in small_fuzz_corpus if not s.faults)
    for spec in (faulted, clean):
        live = oracle.record(spec)
        assert live.records, f"seed {spec.seed} recorded nothing"
        lookup = live.mastership.get

        def sequential_factory(sim):
            return Validator(
                sim, spec.k, timeout=StaticTimeout(spec.timeout_ms),
                policy_engine=default_policy_engine(),
                mastership_lookup=lookup)

        sequential = replay_stream(live.records, sequential_factory)
        expected = canonical_alarm_stream(sequential.alarms)
        assert expected == live.alarm_stream, \
            f"replay lost the live alarm stream on seed {spec.seed}"
        for shards in SHARD_COUNTS:
            def pipeline_factory(sim):
                return ValidationPipeline(
                    sim, spec.k, shards=shards,
                    timeout=StaticTimeout(spec.timeout_ms),
                    policy_engine=default_policy_engine(),
                    mastership_lookup=lookup)

            pipeline = replay_stream(live.records, pipeline_factory)
            assert canonical_alarm_stream(pipeline.alarms) == expected, \
                f"seed {spec.seed} diverged at N={shards}"
            assert pipeline.triggers_decided == sequential.triggers_decided


# ----------------------------------------------------------------------
# Crash recovery: kill at every checkpoint interval, stream never moves
# ----------------------------------------------------------------------

@pytest.mark.parametrize("name", ["benign-11", "fault-t1"])
@pytest.mark.parametrize("shards", (None,) + SHARD_COUNTS,
                         ids=lambda s: "seq" if s is None else f"N{s}")
def test_kill_and_recover_at_every_interval(workloads, name, shards):
    """Sweep the kill point across checkpoint-interval boundaries: for
    each quarter of the stream, crash there, restore the newest snapshot,
    replay the WAL tail + remainder, and demand the uninterrupted stream
    byte for byte. Covers kills landing exactly on an interval edge, just
    after a snapshot, and deep inside an interval, for the sequential
    validator and every shard count."""
    from repro.core.checkpoint import run_with_recovery

    records, mastership = workloads[name]
    lookup = mastership.get
    if shards is None:
        expected_engine = _sequential(records, mastership)

        def make(sim):
            return Validator(
                sim, K, timeout=StaticTimeout(TIMEOUT_MS),
                policy_engine=default_policy_engine(),
                mastership_lookup=lookup)
    else:
        expected_engine = _pipeline(records, mastership, shards)

        def make(sim):
            return ValidationPipeline(
                sim, K, shards=shards, timeout=StaticTimeout(TIMEOUT_MS),
                policy_engine=default_policy_engine(),
                mastership_lookup=lookup)

    expected = canonical_alarm_stream(expected_engine.alarms)
    quarter = max(1, len(records) // 4)
    for kill_index in (quarter, 2 * quarter, 3 * quarter):
        recovered = run_with_recovery(records, make, kill_index,
                                      checkpoint_every=quarter)
        got = canonical_alarm_stream(recovered.alarms)
        assert got == expected, \
            f"{name} N={shards}: recovery diverged at kill={kill_index}"
        assert recovered.triggers_decided == expected_engine.triggers_decided
