"""Unit tests for the sharded validation pipeline internals."""

from __future__ import annotations

import pytest

from repro.core.alarms import (
    Alarm,
    AlarmReason,
    alarm_merge_key,
    canonical_alarm_stream,
)
from repro.core.pipeline import ValidationPipeline, shard_of
from repro.core.timeouts import StaticTimeout
from repro.api import Jury
from repro.config import JuryConfig
from repro.sim.simulator import Simulator
from repro.workloads.synthetic import synthetic_validation_workload
from repro.workloads.traffic import TrafficDriver


def make_pipeline(sim, k=6, **kwargs):
    kwargs.setdefault("timeout", StaticTimeout(10_000.0))
    return ValidationPipeline(sim, k, **kwargs)


# ----------------------------------------------------------------------
# Shard routing
# ----------------------------------------------------------------------

def test_shard_of_is_stable_and_in_range():
    taus = [("ext", i) for i in range(500)] + \
           [("int", f"c{i % 5}", i) for i in range(500)]
    for shards in (1, 2, 4, 8):
        first = [shard_of(tau, shards) for tau in taus]
        second = [shard_of(tau, shards) for tau in taus]
        assert first == second
        assert all(0 <= s < shards for s in first)


def test_shard_of_spreads_triggers():
    counts = [0, 0, 0, 0]
    for i in range(4000):
        counts[shard_of(("ext", i), 4)] += 1
    # CRC-32 of distinct reprs should land far from degenerate: every
    # shard sees a substantial share of a uniform id space.
    assert min(counts) > 500


def test_all_responses_of_a_trigger_share_a_shard():
    workload = synthetic_validation_workload(triggers=200, k=3, seed=5)
    sim = Simulator(seed=0)
    pipeline = make_pipeline(sim, k=3, shards=4)
    for responses in workload:
        for response in responses:
            pipeline.ingest(response)
    pipeline.drain()
    # Every trigger decided at the full 2k+2 count proves no trigger's
    # responses split across shards (a split would force timeouts).
    assert pipeline.triggers_decided == 200
    assert all(r.n_responses == 2 * 3 + 2 for r in pipeline.results)


# ----------------------------------------------------------------------
# Backpressure and overflow accounting
# ----------------------------------------------------------------------

def test_tiny_queue_drops_nothing():
    workload = synthetic_validation_workload(triggers=300, k=3, seed=9)
    sim = Simulator(seed=0)
    pipeline = make_pipeline(sim, k=3, shards=2, queue_capacity=4,
                             batch_max=8)
    for responses in workload:
        for response in responses:
            pipeline.ingest(response)
    pipeline.drain()
    stats = pipeline.stats
    assert pipeline.triggers_decided == 300
    assert stats.total("enqueued") == 300 * (2 * 3 + 2)
    assert stats.total("processed") == stats.total("enqueued")
    assert stats.total("overflow_enqueued") == stats.total("overflow_drained")
    assert stats.total("overflow_enqueued") > 0, \
        "capacity 4 must overflow under this load"
    assert stats.total("backpressure_events") > 0


def test_queue_high_water_respects_capacity():
    workload = synthetic_validation_workload(triggers=100, k=3, seed=2)
    sim = Simulator(seed=0)
    pipeline = make_pipeline(sim, k=3, shards=2, queue_capacity=16)
    for responses in workload:
        for response in responses:
            pipeline.ingest(response)
    pipeline.drain()
    snapshot = pipeline.stats.snapshot()
    assert snapshot["aggregate"]["queue_high_water"] <= 16


def test_constructor_validation():
    sim = Simulator(seed=0)
    with pytest.raises(ValueError):
        ValidationPipeline(sim, 4, shards=0)
    with pytest.raises(ValueError):
        ValidationPipeline(sim, 4, queue_capacity=0)
    with pytest.raises(ValueError):
        ValidationPipeline(sim, 4, batch_max=0)


# ----------------------------------------------------------------------
# Deterministic merge order
# ----------------------------------------------------------------------

def test_alarm_merge_order_is_time_then_trigger_id():
    def alarm(tau, at):
        return Alarm(trigger_id=tau, reason=AlarmReason.CONSENSUS_MISMATCH,
                     offending_controller="c1", raised_at=at)

    alarms = [alarm(("ext", 12), 5.0), alarm(("ext", 2), 5.0),
              alarm(("ext", 30), 1.0), alarm(("int", "c1", 3), 5.0)]
    ordered = sorted(alarms, key=alarm_merge_key)
    assert [a.raised_at for a in ordered] == [1.0, 5.0, 5.0, 5.0]
    # At equal time, repr order of the trigger id breaks the tie.
    assert [a.trigger_id for a in ordered[1:]] == \
        sorted([a.trigger_id for a in ordered[1:]], key=repr)
    # The canonical stream is invariant under emission-order permutations.
    assert canonical_alarm_stream(alarms) == canonical_alarm_stream(
        list(reversed(alarms)))


def test_pipeline_alarms_property_is_merge_ordered():
    workload = synthetic_validation_workload(triggers=400, k=3, seed=3,
                                             fault_rate=0.2)
    sim = Simulator(seed=0)
    pipeline = make_pipeline(sim, k=3, shards=4)
    for responses in workload:
        for response in responses:
            pipeline.ingest(response)
    pipeline.drain()
    assert pipeline.triggers_alarmed > 0
    keys = [alarm_merge_key(a) for a in pipeline.alarms]
    assert keys == sorted(keys)


# ----------------------------------------------------------------------
# Validator API parity behind the deployment
# ----------------------------------------------------------------------

def test_config_pipeline_experiment_is_drop_in():
    experiment = Jury.experiment(JuryConfig(kind="onos", n=5, k=4, switches=6,
                                  seed=13, timeout_ms=250.0, pipeline=2))
    experiment.warmup()
    assert isinstance(experiment.validator, ValidationPipeline)
    driver = TrafficDriver(experiment.sim, experiment.topology,
                           packet_in_rate_per_s=300.0, duration_ms=300.0)
    driver.start()
    experiment.begin_window()
    experiment.run(300.0 + 1000.0)
    validator = experiment.validator
    assert validator.triggers_decided > 0
    assert validator.false_positive_rate() == 0.0
    assert validator.detection_times()
    # The harness-facing summary helpers work unchanged.
    stats = experiment.detection_stats()
    assert stats.count > 0
    assert validator.pending_count == 0


def test_pipeline_on_alarm_callback_fires():
    workload = synthetic_validation_workload(triggers=50, k=3, seed=8,
                                             fault_rate=1.0)
    sim = Simulator(seed=0)
    pipeline = make_pipeline(sim, k=3, shards=2)
    seen = []
    pipeline.on_alarm = seen.append
    for responses in workload:
        for response in responses:
            pipeline.ingest(response)
    pipeline.drain()
    assert len(seen) == len(pipeline.alarms) > 0

