"""Fault-scenario framework.

A :class:`FaultScenario` is the unit the paper's "driver program" injects:
it arms a fault on a chosen controller (:meth:`inject`), causes the trigger
that elicits the faulty behaviour (:meth:`trigger`), and declares what the
validator is expected to raise. :func:`run_scenario` executes one scenario
against a built experiment and reports whether JURY detected the fault, how
fast, and whether attribution named the right controller.
"""

from __future__ import annotations

import enum
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from repro.core.alarms import Alarm, AlarmReason
from repro.harness.experiment import Experiment


class FaultClass(enum.Enum):
    """Table 1's fault taxonomy."""

    T1 = "T1"  # reactive: wrong cache and/or network on an external trigger
    T2 = "T2"  # proactive: cache and network inconsistent with each other
    T3 = "T3"  # proactive: cache = network but both wrong (policy-only)


class FaultScenario(ABC):
    """One injectable fault plus the stimulus that elicits it."""

    #: Catalog key (:data:`repro.faults.CATALOG`).
    name: str = "fault"
    #: Table 1 class.
    fault_class: FaultClass = FaultClass.T1
    #: Controller kind the fault runs on (``"onos"`` or ``"odl"``).
    kind: str = "onos"
    #: Alarm reasons that count as detection for this scenario.
    expected_reasons: Sequence[AlarmReason] = ()
    #: Controller that should be blamed (None = attribution not asserted).
    expected_offender: Optional[str] = None

    @abstractmethod
    def inject(self, experiment: Experiment) -> None:
        """Arm the fault (corrupt a controller, set a drop probability...)."""

    @abstractmethod
    def trigger(self, experiment: Experiment) -> None:
        """Cause the event that elicits the faulty behaviour."""

    def settle_ms(self, experiment: Experiment) -> float:
        """How long to run after the trigger before judging detection."""
        return 4.0 * experiment.validator.timeout.current() + 200.0


@dataclass
class ScenarioResult:
    """Outcome of one scenario run."""

    scenario: str
    detected: bool
    detection_ms: Optional[float]
    matching_alarms: List[Alarm] = field(default_factory=list)
    attribution_correct: Optional[bool] = None
    all_alarms: List[Alarm] = field(default_factory=list)


def run_scenario(experiment: Experiment, scenario: FaultScenario) -> ScenarioResult:
    """Inject, trigger, settle, and judge one fault scenario.

    Detection time is measured from the trigger instant to the first
    matching alarm — the quantity the paper reports as "detection within
    ~129 ms for ONOS and ~700 ms for ODL" (§VII-A1).
    """
    validator = experiment.validator
    alarms_before = len(validator.alarms)
    scenario.inject(experiment)
    trigger_time = experiment.sim.now
    scenario.trigger(experiment)
    experiment.run(scenario.settle_ms(experiment))

    new_alarms = validator.alarms[alarms_before:]
    matching = [a for a in new_alarms
                if not scenario.expected_reasons
                or a.reason in tuple(scenario.expected_reasons)]
    detected = bool(matching)
    detection_ms = None
    attribution = None
    if detected:
        first = min(matching, key=lambda a: a.raised_at)
        detection_ms = first.raised_at - trigger_time
        if scenario.expected_offender is not None:
            attribution = any(
                a.offending_controller == scenario.expected_offender
                for a in matching)
    return ScenarioResult(
        scenario=scenario.name,
        detected=detected,
        detection_ms=detection_ms,
        matching_alarms=matching,
        attribution_correct=attribution,
        all_alarms=list(new_alarms),
    )
