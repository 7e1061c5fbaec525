"""Table 1 — the three classes of faulty controller actions, all validated.

Paper: T1 (reactive; wrong C and/or N) validated via consensus on replicated
execution; T2 (proactive; C and N inconsistent) via the network/cache sanity
check; T3 (proactive; C = N but wrong) only via administrator policies
(marked 3* in the table). The benchmark injects one representative fault of
each class into an n=7, k=6 cluster and prints the validation matrix.
"""

from conftest import run_once

from repro.faults import CATALOG
from repro.faults.base import run_scenario
from repro.faults.injector import default_policy_engine
from repro.api import Jury
from repro.config import JuryConfig
from repro.harness.reporting import format_table

CLASSES = [
    ("T1", "reactive", "either C, or N, or both", "link-failure"),
    ("T2", "proactive", "C or N, or both but C != N", "undesirable-flow-mod"),
    ("T3", "proactive", "both C and N where C = N", "faulty-proactive"),
]


def build(seed, with_policies=True):
    experiment = Jury.experiment(JuryConfig(
        kind="onos", n=7, k=6, switches=12, seed=seed, timeout_ms=250.0,
        policy_engine=default_policy_engine() if with_policies else None,
        with_northbound=True))
    experiment.warmup()
    return experiment


def test_table1_fault_class_validation(benchmark):
    def run():
        rows = []
        outcomes = {}
        for index, (klass, nature, action, name) in enumerate(CLASSES):
            result = run_scenario(build(seed=55 + index), CATALOG[name]())
            detected = "yes" if result.detected else "NO"
            mechanism = (result.matching_alarms[0].reason.value
                         if result.matching_alarms else "-")
            suffix = "*" if klass == "T3" else ""
            rows.append([klass, nature, action, detected + suffix, mechanism])
            outcomes[klass] = result.detected
        # The 3* footnote: T3 validation requires policies.
        no_policy = run_scenario(build(seed=58, with_policies=False),
                                 CATALOG["faulty-proactive"]())
        outcomes["T3-without-policies"] = no_policy.detected
        print()
        print(format_table(
            "Table 1 — classes of faulty controller actions "
            "(* = requires policies)",
            ["class", "nature", "faulty action", "validated", "mechanism"],
            rows))
        print("\nT3 without policies detected:",
              outcomes["T3-without-policies"],
              "(the paper's 3*: only possible via policies)")
        return outcomes

    outcomes = run_once(benchmark, run)
    assert outcomes["T1"] and outcomes["T2"] and outcomes["T3"]
    assert not outcomes["T3-without-policies"]
