"""The fault driver: injects fault combinations and measures detection.

Reproduces §VII-A1's methodology: "We wrote a driver program to inject
combination of the faults in different parts of the network, and used JURY
to validate controller actions in the worst case for cluster size n = 7,
i.e., full replication (k = 6) and two faulty replicas (m = 2). We repeated
the experiment 10 times and in each case the JURY-enhanced controller
successfully detected the fault."
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional

from repro.faults.base import FaultScenario, run_scenario
from repro.harness.experiment import Experiment
from repro.policy import (
    PolicyEngine,
    match_hierarchy_policy,
    no_internal_cache_changes,
    stranded_flow_policy,
)


def default_policy_engine() -> PolicyEngine:
    """The administrator policy set used throughout the fault experiments."""
    return PolicyEngine([
        match_hierarchy_policy(),
        stranded_flow_policy(),
        no_internal_cache_changes("EdgesDB"),
    ])


@dataclass
class DriverReport:
    """Aggregate of repeated scenario runs."""

    scenario: str
    runs: int
    detected: int
    detection_times_ms: List[float] = field(default_factory=list)
    attribution_correct: int = 0

    @property
    def detection_rate(self) -> float:
        return self.detected / self.runs if self.runs else 0.0

    @property
    def max_detection_ms(self) -> Optional[float]:
        return max(self.detection_times_ms) if self.detection_times_ms else None


class FaultDriver:
    """Runs fault scenarios repeatedly over freshly built experiments."""

    def __init__(self, experiment_factory: Callable[[int], Experiment],
                 warmup: bool = True):
        """``experiment_factory(seed)`` must build a ready-to-run experiment
        (with JURY deployed and, if needed, a northbound API)."""
        self.experiment_factory = experiment_factory
        self.warmup = warmup

    def run(self, scenario_factory: Callable[[], FaultScenario],
            repetitions: int = 10, base_seed: int = 100) -> DriverReport:
        """Run one scenario ``repetitions`` times on fresh clusters."""
        scenario_name = scenario_factory().name
        report = DriverReport(scenario=scenario_name, runs=repetitions,
                              detected=0)
        for run_index in range(repetitions):
            experiment = self.experiment_factory(base_seed + run_index)
            if self.warmup:
                experiment.warmup()
            scenario = scenario_factory()
            result = run_scenario(experiment, scenario)
            if result.detected:
                report.detected += 1
                if result.detection_ms is not None:
                    report.detection_times_ms.append(result.detection_ms)
                if result.attribution_correct:
                    report.attribution_correct += 1
        return report
