"""The scoped collector policy around an ``Experiment``'s simulator runs.

:func:`repro.harness.experiment._advance` raises only the young-generation
threshold to :data:`~repro.harness.experiment.YOUNG` while ``sim.run``
executes. These tests pin that it restores the caller's exact collector
state (also when a callback raises), that it respects a caller who turned
automatic collection off or asked for a higher threshold, and that
collector timing never reaches the simulation: the same deployment gives
byte-identical validator input and alarm stream however it is driven.
"""

from __future__ import annotations

import gc
import hashlib

import pytest

from repro import Jury, JuryConfig
from repro.core.alarms import canonical_alarm_stream
from repro.core.checkpoint import WriteAheadLog, wal_ingests
from repro.errors import WorkloadError
from repro.harness import experiment as experiment_module
from repro.harness.experiment import YOUNG
from repro.workloads.traffic import TrafficDriver


@pytest.fixture(autouse=True)
def _collector_state():
    """Start every test from the default thresholds and put the caller's back."""
    saved, enabled = gc.get_threshold(), gc.isenabled()
    gc.set_threshold(700, 10, 10)
    gc.enable()
    yield
    gc.set_threshold(*saved)
    if enabled:
        gc.enable()
    else:
        gc.disable()


def _small(k=None, keep_results=True):
    return Jury.experiment(JuryConfig(
        kind="onos", n=2, k=k, switches=2, seed=3, timeout_ms=200.0,
        keep_results=keep_results))


def _collector():
    return gc.get_threshold(), gc.isenabled()


def _seen_inside(experiment):
    """Run 10 ms and return the collector state a callback saw."""
    seen = []
    experiment.sim.schedule(1.0, lambda: seen.append(_collector()))
    experiment.run(10.0)
    return seen[0]


def test_warmup_and_run_restore_the_callers_exact_state():
    gc.set_threshold(700, 11, 12)
    experiment = _small()
    before = _collector()
    experiment.warmup()
    assert _collector() == before
    experiment.run(50.0)
    assert _collector() == before


def test_state_is_restored_when_a_callback_raises():
    gc.set_threshold(700, 11, 12)
    experiment = _small()
    before = _collector()

    def boom():
        raise RuntimeError("callback failed")

    experiment.sim.schedule(1.0, boom)
    with pytest.raises(RuntimeError, match="callback failed"):
        experiment.run(10.0)
    assert _collector() == before
    # The simulator is usable again, and so is the policy.
    assert _seen_inside(experiment) == ((YOUNG, 11, 12), True)
    assert _collector() == before


def test_a_callback_inside_run_sees_only_the_young_threshold_raised():
    gc.set_threshold(700, 11, 12)
    assert _seen_inside(_small()) == ((YOUNG, 11, 12), True)


def test_a_disabled_collector_stays_disabled():
    gc.disable()
    experiment = _small()
    assert _seen_inside(experiment) == ((YOUNG, 10, 10), False)
    assert _collector() == ((700, 10, 10), False)


@pytest.mark.parametrize("young", [0, YOUNG, 4 * YOUNG])
def test_a_threshold_of_zero_or_at_least_young_is_kept(young):
    gc.set_threshold(young, 5, 6)
    experiment = _small()
    assert _seen_inside(experiment) == ((young, 5, 6), True)
    assert _collector() == ((young, 5, 6), True)


# ----------------------------------------------------------------------
# Collector timing never reaches the simulation
# ----------------------------------------------------------------------

def _plain_advance(sim, until):
    sim.run(until=until)


def _drive(monkeypatch, mode: str):
    """One JURY deployment (ONOS, n=7, k=6) driven as ``mode`` says.

    ``experiment``: every phase through the policy. ``sim``: the policy
    bypassed and the traffic window through ``experiment.sim.run`` under
    the default thresholds. ``aggressive``: the same under
    ``gc.set_threshold(50, 1, 1)``.
    """
    if mode != "experiment":
        monkeypatch.setattr(experiment_module, "_advance", _plain_advance)
    if mode == "aggressive":
        gc.set_threshold(50, 1, 1)
    experiment = Jury.experiment(JuryConfig(
        kind="onos", n=7, k=6, switches=6, topology="linear",
        timeout_ms=60.0, seed=15))
    wal = WriteAheadLog()
    experiment.jury.validator.wal = wal
    experiment.warmup()
    TrafficDriver(experiment.sim, experiment.topology,
                  packet_in_rate_per_s=1500.0, duration_ms=200.0).start()
    if mode == "experiment":
        experiment.run(600.0)
    else:
        experiment.sim.run(until=experiment.sim.now + 600.0)
    gc.set_threshold(700, 10, 10)
    monkeypatch.undo()
    digest = hashlib.sha256()
    records = wal_ingests(wal.records())
    for _, time_ms, response in records:
        digest.update(repr((time_ms, response.__reduce__()[1])).encode())
    validator = experiment.jury.validator
    return (len(records), digest.hexdigest(), experiment.sim.events_fired,
            validator.triggers_decided,
            canonical_alarm_stream(validator.alarms))


def test_collector_timing_never_reaches_the_simulation(monkeypatch):
    through_experiment = _drive(monkeypatch, "experiment")
    assert _drive(monkeypatch, "sim") == through_experiment
    assert _drive(monkeypatch, "aggressive") == through_experiment
    responses, _, _, decided, alarms = through_experiment
    assert responses > 1000 and decided > 100
    # θτ=60 ms races the response tail, so the pinned stream is not empty.
    assert alarms


# ----------------------------------------------------------------------
# Measurements that cannot be taken
# ----------------------------------------------------------------------

def test_throughput_over_an_empty_window_is_refused():
    experiment = _small()
    experiment.warmup()
    experiment.begin_window()
    with pytest.raises(WorkloadError, match="empty window"):
        _ = experiment.throughput().flow_mod_rate_per_s
    experiment.run(20.0)
    assert experiment.throughput().window_ms == pytest.approx(20.0)


def test_detection_stats_without_kept_results_is_refused():
    experiment = _small(k=1, keep_results=False)
    experiment.warmup()
    with pytest.raises(WorkloadError, match="keep_results=False"):
        experiment.detection_stats()
