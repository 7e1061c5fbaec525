"""Integration tests: every fault in the paper is detected and attributed.

These are the Table 1 / §VII-A1 claims: T1 faults via consensus, T2 via the
network/cache sanity check, T3 via administrator policies — in the worst
case configuration shape (full replication).
"""

import pytest

from repro.core.alarms import AlarmReason
from repro.faults import (
    CATALOG,
    FaultClass,
    FaultyProactiveFault,
    OdlFlowModDropFault,
    OdlIncorrectFlowModFault,
    OnosDatabaseLockFault,
    UndesirableFlowModFault,
)
from repro.faults.base import run_scenario
from repro.faults.injector import FaultDriver, default_policy_engine
from repro.api import Jury
from repro.config import JuryConfig


def build(kind="onos", seed=50):
    exp = Jury.experiment(JuryConfig(
        kind=kind, n=7, k=6, switches=12, seed=seed,
        timeout_ms=None,  # the paper's θτ for the kind
        policy_engine=default_policy_engine(), with_northbound=True))
    exp.warmup()
    return exp


def assert_detected(scenario):
    exp = build(scenario.kind)
    result = run_scenario(exp, scenario)
    assert result.detected, (
        f"{scenario.name} not detected; alarms={result.all_alarms}")
    if scenario.expected_offender is not None:
        assert result.attribution_correct, (
            f"{scenario.name} misattributed: {result.matching_alarms}")
    return result


# --- The catalog: real (§III-B), synthetic (§VII-A1), Appendix and generic
# (§III-B) faults, each on its own kind with its catalog arguments ---------

#: The mechanism that must raise the first matching alarm, where it is one.
FIRST_REASON = {
    "onos-database-locking": AlarmReason.PRIMARY_OMISSION,
    "odl-flow-mod-drop": AlarmReason.SANITY_MISMATCH,
    "odl-incorrect-flow-mod": AlarmReason.POLICY_VIOLATION,
    "link-failure": AlarmReason.CONSENSUS_MISMATCH,
    "faulty-proactive": AlarmReason.POLICY_VIOLATION,
    "onos-pending-add": AlarmReason.POLICY_VIOLATION,
    "crash": AlarmReason.PRIMARY_OMISSION,  # a crash reads as an omission
    "response-corruption": AlarmReason.CONSENSUS_MISMATCH,
    "store-desync": AlarmReason.STALE_REPLICA,  # the staleness monitor
}


def test_catalog_keys_are_class_names_and_kinds_are_known():
    assert len(CATALOG) == 16
    for name, fault in CATALOG.items():
        assert fault.name == name
        assert fault.kind in ("onos", "odl")
        assert isinstance(fault.fault_class, FaultClass)
    assert {name for name, fault in CATALOG.items()
            if fault.kind == "odl"} == {
        "odl-flow-mod-drop", "odl-incorrect-flow-mod",
        "odl-flow-deletion-failure", "odl-flow-instantiation-failure"}


@pytest.mark.parametrize("name", sorted(CATALOG))
def test_catalog_fault_detected(name):
    result = assert_detected(CATALOG[name]())
    if name in FIRST_REASON:
        assert result.matching_alarms[0].reason == FIRST_REASON[name]


def test_odl_incorrect_flow_mod_undetected_without_policy():
    """T3 is invisible to consensus and sanity — policies are required."""
    exp = Jury.experiment(JuryConfig(kind="odl", n=7, k=6, switches=12, seed=51,
                           timeout_ms=1200.0, policy_engine=None,
                           with_northbound=True))
    exp.warmup()
    result = run_scenario(exp, OdlIncorrectFlowModFault("c1"))
    assert not result.detected


def test_synthetic_faulty_proactive_needs_policy():
    exp = Jury.experiment(JuryConfig(kind="onos", n=7, k=6, switches=12, seed=52,
                           timeout_ms=250.0, policy_engine=None))
    exp.warmup()
    result = run_scenario(exp, FaultyProactiveFault("c3"))
    assert not result.detected  # T3: consensus/sanity cannot see it


# --- Detection latency bounds (§VII-A1) ---------------------------------

def test_onos_detection_within_timeout_bound():
    """ONOS faults detected in sub-second time, ~the validation timeout."""
    exp = build("onos")
    result = run_scenario(exp, OnosDatabaseLockFault("c1"))
    assert result.detected
    assert result.detection_ms < 2 * 250.0 + 100.0


def test_odl_detection_within_timeout_bound():
    exp = build("odl")
    result = run_scenario(exp, OdlFlowModDropFault("c1"))
    assert result.detected
    assert result.detection_ms < 2 * 1200.0 + 100.0


# --- The driver (repetitions) -------------------------------------------

def test_fault_driver_repeats_and_aggregates():
    driver = FaultDriver(lambda seed: Jury.experiment(JuryConfig(
        kind="onos", n=5, k=4, switches=8, seed=seed, timeout_ms=250.0,
        policy_engine=default_policy_engine(), with_northbound=True)))
    report = driver.run(lambda: UndesirableFlowModFault("c2"), repetitions=3)
    assert report.runs == 3
    assert report.detected == 3
    assert report.detection_rate == 1.0
    assert report.attribution_correct == 3
    assert report.max_detection_ms is not None


def test_fault_classes_assigned():
    assert OnosDatabaseLockFault().fault_class == FaultClass.T1
    assert OdlFlowModDropFault().fault_class == FaultClass.T2
    assert OdlIncorrectFlowModFault().fault_class == FaultClass.T3
    assert UndesirableFlowModFault().fault_class == FaultClass.T2
    assert FaultyProactiveFault().fault_class == FaultClass.T3


def test_store_desync_invisible_to_per_trigger_consensus():
    """With the staleness monitor off, the desync passes silently —
    state-aware consensus cannot distinguish it from transient asynchrony."""
    from repro.faults import StoreDesyncFault

    exp = Jury.experiment(JuryConfig(kind="onos", n=7, k=6, switches=12, seed=53,
                           timeout_ms=250.0, with_northbound=True))
    exp.warmup()
    exp.validator.staleness_threshold = None
    scenario = StoreDesyncFault("c2")
    scenario.inject(exp)
    exp.validator.staleness_threshold = None  # inject() re-enables it
    result = run_scenario(exp, _NoopInject(scenario))
    stale = [a for a in result.all_alarms
             if a.reason == AlarmReason.STALE_REPLICA]
    assert not stale


class _NoopInject:
    """Wraps an already-injected scenario so run_scenario skips inject()."""

    def __init__(self, scenario):
        self._scenario = scenario
        self.name = scenario.name
        self.expected_reasons = scenario.expected_reasons
        self.expected_offender = None

    def inject(self, experiment):
        pass

    def trigger(self, experiment):
        self._scenario.trigger(experiment)

    def settle_ms(self, experiment):
        return self._scenario.settle_ms(experiment)


def test_fault_combination_all_members_detected():
    """§VII-A1: combinations of faults in different parts of the network."""
    from repro.faults import UndesirableFlowModFault, FaultyProactiveFault
    from repro.faults.combination import run_combination

    exp = build("onos")
    results = run_combination(exp, [
        UndesirableFlowModFault("c2"),
        FaultyProactiveFault("c3"),
    ])
    assert len(results) == 2
    for result in results:
        assert result.detected, result.scenario
        assert result.attribution_correct


def test_fault_combination_attribution_separates_offenders():
    from repro.faults import UndesirableFlowModFault
    from repro.faults.combination import run_combination

    exp = build("onos", seed=54)
    results = run_combination(exp, [
        UndesirableFlowModFault("c2", dpid=2),
        UndesirableFlowModFault("c4", dpid=4),
    ])
    blamed = {r.matching_alarms[0].offending_controller for r in results}
    assert blamed == {"c2", "c4"}


def test_combination_requires_members():
    from repro.faults.combination import CombinationScenario

    with pytest.raises(ValueError):
        CombinationScenario([])
