"""The differential oracle's invariant catalog and the shrinker.

These tests run real scenarios end-to-end, so they pick the smallest
cheap-but-meaningful shapes: seed 9 (the lightest generated clean spec)
and the planted k=0 evasion that the regression corpus pins.
"""

from __future__ import annotations

import pytest

from repro.fuzz.oracle import DifferentialOracle
from repro.fuzz.runner import run_campaign
from repro.fuzz.scenario import FaultSpec, ScenarioGen, ScenarioSpec
from repro.fuzz.shrink import Shrinker


@pytest.fixture(scope="module")
def oracle():
    return DifferentialOracle()


def _planted_evasion() -> ScenarioSpec:
    """k=0: no shadow replicas, so a corrupted primary is never outvoted."""
    return ScenarioSpec(
        seed=11, n=3, k=0, switches=4, timeout_ms=200.0,
        faults=(FaultSpec(name="response-corruption",
                          params=(("faulty_controller", "c1"),)),))


# ----------------------------------------------------------------------
# Oracle verdicts
# ----------------------------------------------------------------------

def test_clean_generated_scenario_passes_every_invariant(oracle):
    spec = ScenarioGen().spec(9)
    assert not spec.faults, "test assumes seed 9 draws a clean scenario"
    report = oracle.run(spec)
    assert report.ok, [str(v) for v in report.violations]
    assert report.triggers_decided > 20
    assert report.records > 0
    # Digests are the seed-stability contract: all three must be present.
    assert len(report.spec_digest) == 64
    assert len(report.alarm_digest) == 64
    assert len(report.trace_digest) == 64


def test_faulted_generated_scenario_detects_and_passes(oracle):
    spec = ScenarioGen().spec(7)
    assert spec.faults, "test assumes seed 7 draws a faulted scenario"
    report = oracle.run(spec)
    assert report.ok, [str(v) for v in report.violations]
    assert report.fault_outcomes and all(
        outcome.detected for outcome in report.fault_outcomes)


def test_planted_k0_evasion_is_caught_as_fault_undetected(oracle):
    report = oracle.run(_planted_evasion())
    assert not report.ok
    assert report.codes() == ("FAULT_UNDETECTED",)
    outcome = report.fault_outcomes[0]
    assert outcome.name == "response-corruption" and not outcome.detected


def test_report_to_dict_is_json_shaped(oracle):
    import json

    report = oracle.run(ScenarioGen().spec(9))
    payload = report.to_dict()
    assert json.loads(json.dumps(payload)) == payload
    assert payload["ok"] is True
    assert payload["spec"]["seed"] == 9


def test_oracle_runs_are_reproducible(oracle):
    """Same spec, two fresh runs in one process → identical digests.

    This is the in-process half of the seed-stability satellite (the
    cross-process half lives in test_fuzz_cli.py); it only holds because
    the oracle resets the global trigger-id counters per run."""
    spec = ScenarioGen().spec(9)
    first = oracle.run(spec)
    second = oracle.run(spec)
    assert first.spec_digest == second.spec_digest
    assert first.alarm_digest == second.alarm_digest
    assert first.trace_digest == second.trace_digest


# ----------------------------------------------------------------------
# Shrinking
# ----------------------------------------------------------------------

def test_shrinker_minimizes_the_planted_evasion(oracle):
    plant = _planted_evasion()
    result = Shrinker(oracle=oracle, budget=25).shrink(plant)
    assert result.signature == ("FAULT_UNDETECTED",)
    assert result.minimized.digest() != plant.digest()
    minimized = result.minimized
    assert minimized.n < plant.n or minimized.switches < plant.switches
    assert minimized.faults, "the shrinker must keep the failing fault"
    assert minimized.k == 0, "k=0 is the essence of the failure"
    # The minimized spec still fails with the same signature.
    assert oracle.run(minimized).codes() == ("FAULT_UNDETECTED",)


def test_shrinker_respects_its_budget(oracle):
    result = Shrinker(oracle=oracle, budget=3).shrink(_planted_evasion())
    assert result.evaluations <= 3


def test_shrinker_rejects_passing_specs(oracle):
    with pytest.raises(ValueError):
        Shrinker(oracle=oracle).shrink(ScenarioGen().spec(9),
                                       signature=())


# ----------------------------------------------------------------------
# The campaign runner
# ----------------------------------------------------------------------

def test_campaign_clean_seeds(oracle):
    result = run_campaign(base_seed=8, runs=2, oracle=oracle)
    assert result.ok
    assert result.completed_runs == 2
    assert [r.spec.seed for r in result.reports] == [8, 9]


def test_campaign_time_budget_uses_injected_clock(oracle):
    ticks = iter(range(100))

    def clock():
        return float(next(ticks))

    result = run_campaign(base_seed=8, runs=10, oracle=oracle,
                          time_budget_s=1.0, clock=clock)
    # The fake clock advances 1s per call: the first scenario always runs,
    # the next between-scenario check sees the budget spent.
    assert result.budget_exhausted
    assert 1 <= result.completed_runs < 10


def test_campaign_time_budget_requires_clock(oracle):
    with pytest.raises(ValueError):
        run_campaign(base_seed=8, runs=1, oracle=oracle, time_budget_s=5.0)


class _PlantedGen(ScenarioGen):
    """Generator stub whose every draw is the planted evasion."""

    def spec(self, seed):
        return _planted_evasion().replace(seed=seed)


def test_campaign_shrinks_counterexamples(oracle):
    result = run_campaign(base_seed=11, runs=1, oracle=oracle,
                          gen=_PlantedGen(), shrink=True, shrink_budget=15)
    assert not result.ok
    counterexample = result.counterexamples[0]
    assert counterexample.report.codes() == ("FAULT_UNDETECTED",)
    assert counterexample.shrink is not None
    assert counterexample.minimal_spec.n <= counterexample.spec.n
    payload = counterexample.to_dict()
    assert payload["minimal_spec"]["k"] == 0
