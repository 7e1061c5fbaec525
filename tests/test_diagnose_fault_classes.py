"""T1/T2/T3 classification: injected faults vs. diagnosed fault class.

Drives one fault from each family of the catalog through a live deployment
with forensics enabled and asserts the attached
:class:`~repro.obs.diagnose.AlarmExplanation` infers the taxonomy class the
scenario injects. Two catalog entries are detected by a *different*
mechanism than the family they model (documented below); for those the
assertion pins the mechanism-implied class so a silent change in detection
path fails loudly.
"""

import pytest

from repro import Jury, JuryConfig
from repro.faults import (
    FaultyProactiveFault,
    FlowInstantiationFailureFault,
    LinkFailureFault,
    PendingAddFault,
    StoreDesyncFault,
    UndesirableFlowModFault,
)
from repro.faults.base import run_scenario


def _run(scenario, kind="onos"):
    experiment = Jury.experiment(JuryConfig(
        kind=kind, n=5, k=4, switches=8, seed=7, timeout_ms=250.0,
        policies=("default",), with_northbound=True, observe=True))
    experiment.warmup()
    result = run_scenario(experiment, scenario)
    assert result.detected, f"{scenario.name} must be detected"
    alarm = result.matching_alarms[0]
    explanation = experiment.jury.observer.forensics.explanation_for(alarm)
    assert explanation is not None, \
        "forensics must record an explanation for every alarm"
    return alarm, explanation, experiment


@pytest.mark.parametrize("make,kind", [
    (lambda: LinkFailureFault(1, 2), "onos"),          # T1: wrong response
    (lambda: StoreDesyncFault("c2"), "onos"),          # T1: desynced replica
    (lambda: UndesirableFlowModFault("c2"), "onos"),   # T2: cache/net split
    (lambda: FaultyProactiveFault("c3"), "onos"),      # T3: agreed-but-wrong
])
def test_explanation_matches_injected_class(make, kind):
    scenario = make()
    alarm, explanation, _ = _run(scenario, kind=kind)
    assert explanation.fault_class == scenario.fault_class.value, \
        (f"{scenario.name}: injected {scenario.fault_class.value}, "
         f"diagnosed {explanation.fault_class} "
         f"(via {alarm.reason.value})")


@pytest.mark.parametrize("make,kind,detected_as", [
    # Declares T2 (stranded pending_add state) but is *caught* by the
    # stranded-pending-add policy rule, so the mechanism-implied class is T3.
    (lambda: PendingAddFault(4), "onos", "T3"),
    # Declares T2 but the dropped installation surfaces as a consensus
    # deviation from the replica majority first: mechanism-implied T1.
    (lambda: FlowInstantiationFailureFault("c1"), "odl", "T1"),
])
def test_mechanism_mismatch_faults_pin_detected_class(make, kind, detected_as):
    scenario = make()
    alarm, explanation, _ = _run(scenario, kind=kind)
    assert explanation.fault_class == detected_as, \
        (f"{scenario.name}: detection mechanism {alarm.reason.value} "
         f"implies {detected_as}, diagnosed {explanation.fault_class}")


def test_explanation_names_the_faulty_replica():
    _, explanation, _ = _run(UndesirableFlowModFault("c2"))
    assert explanation.offending_controller == "c2"
    assert "c2" in explanation.dissenting_replicas


def test_diagnose_payload_covers_every_alarm():
    scenario = LinkFailureFault(1, 2)
    alarm, _, experiment = _run(scenario)
    payload = experiment.jury.report()["alarms"]
    assert payload["alarm_count"] == len(experiment.jury.alarms)
    ids = [entry["id"] for entry in payload["alarms"]]
    assert ids == sorted(ids) and len(set(ids)) == len(ids)
    assert any(entry["trigger_id"] == repr(alarm.trigger_id)
               for entry in payload["alarms"])
