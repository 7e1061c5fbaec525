#!/usr/bin/env python3
"""Fault-detection demo: inject the paper's faults, watch JURY catch them.

Runs the whole fault catalog (``repro.faults.CATALOG``) against fresh
clusters in the paper's worst-case shape (n=7, full replication k=6): the
real ONOS/ODL faults, the three synthetic faults (one per Table 1 class),
the Appendix faults, and the generic distributed-system failure classes.
For each fault the demo prints whether JURY detected it, through which
mechanism, how fast, and whether action attribution named the faulty
controller.

Run:  python examples/fault_detection_demo.py
"""

from repro.faults import CATALOG
from repro.faults.base import run_scenario
from repro.faults.injector import default_policy_engine
from repro.api import Jury
from repro.config import JuryConfig
from repro.harness import format_table


def build(kind: str, seed: int):
    experiment = Jury.experiment(JuryConfig(
        kind=kind, n=7, k=6, switches=12, seed=seed,
        timeout_ms=None,  # the paper's θτ for the kind
        policy_engine=default_policy_engine(),
        with_northbound=True))
    experiment.warmup()
    return experiment


def main() -> None:
    rows = []
    for index, fault in enumerate(CATALOG.values()):
        scenario = fault()
        experiment = build(scenario.kind, seed=60 + index)
        result = run_scenario(experiment, scenario)
        mechanism = (result.matching_alarms[0].reason.value
                     if result.matching_alarms else "-")
        offender = (result.matching_alarms[0].offending_controller
                    if result.matching_alarms else "-")
        rows.append([
            scenario.name,
            scenario.fault_class.value,
            scenario.kind,
            "YES" if result.detected else "NO",
            mechanism,
            f"{result.detection_ms:.0f} ms" if result.detection_ms else "-",
            offender,
        ])

    print(format_table(
        "JURY fault detection (n=7, k=6 full replication)",
        ["scenario", "class", "controller", "detected", "mechanism",
         "latency", "blamed"],
        rows))

    detected = sum(1 for row in rows if row[3] == "YES")
    print(f"\n{detected}/{len(rows)} faults detected.")
    assert detected == len(rows)


if __name__ == "__main__":
    main()
