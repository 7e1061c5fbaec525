"""Fault combinations.

§VII-A1: "We wrote a driver program to inject *combination of the faults*
in different parts of the network". :class:`CombinationScenario` composes
independent scenarios — injected together, triggered together — and counts
as detected only when *every* member fault was detected with the right
attribution.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.faults.base import FaultClass, FaultScenario, ScenarioResult
from repro.harness.experiment import Experiment


class CombinationScenario(FaultScenario):
    """Several simultaneous faults in different parts of the network."""

    fault_class = FaultClass.T1  # mixed; per-member classes still apply

    def __init__(self, scenarios: Sequence[FaultScenario]):
        if not scenarios:
            raise ValueError("a combination needs at least one scenario")
        self.scenarios = list(scenarios)
        self.name = "combo(" + "+".join(s.name for s in self.scenarios) + ")"
        # Any member's expected reasons count toward the combined match set.
        reasons = []
        for scenario in self.scenarios:
            reasons.extend(scenario.expected_reasons)
        self.expected_reasons = tuple(dict.fromkeys(reasons))
        self.expected_offender = None  # judged per member instead

    def inject(self, experiment: Experiment) -> None:
        for scenario in self.scenarios:
            scenario.inject(experiment)

    def trigger(self, experiment: Experiment) -> None:
        for scenario in self.scenarios:
            scenario.trigger(experiment)

    def settle_ms(self, experiment: Experiment) -> float:
        return max(s.settle_ms(experiment) for s in self.scenarios)


def run_combination(experiment: Experiment,
                    scenarios: Sequence[FaultScenario]) -> List[ScenarioResult]:
    """Inject and trigger all scenarios at once; judge each member.

    Returns one :class:`ScenarioResult` per member scenario, each evaluated
    against the member's own expected reasons and offender over the shared
    alarm stream.
    """
    combined = CombinationScenario(scenarios)
    validator = experiment.validator
    alarms_before = len(validator.alarms)
    combined.inject(experiment)
    trigger_time = experiment.sim.now
    combined.trigger(experiment)
    experiment.run(combined.settle_ms(experiment))

    new_alarms = validator.alarms[alarms_before:]
    results = []
    for scenario in scenarios:
        matching = [
            alarm for alarm in new_alarms
            if (not scenario.expected_reasons
                or alarm.reason in tuple(scenario.expected_reasons))
            and (scenario.expected_offender is None
                 or alarm.offending_controller == scenario.expected_offender)
        ]
        detected = bool(matching)
        detection_ms = None
        if detected:
            first = min(matching, key=lambda a: a.raised_at)
            detection_ms = first.raised_at - trigger_time
        results.append(ScenarioResult(
            scenario=scenario.name,
            detected=detected,
            detection_ms=detection_ms,
            matching_alarms=matching,
            attribution_correct=detected if scenario.expected_offender else None,
            all_alarms=list(new_alarms),
        ))
    return results
