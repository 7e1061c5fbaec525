"""Fault injection: every fault the paper demonstrates, plus generic classes.

:data:`CATALOG` is the one fault table. It maps each fault's name to its
:class:`~repro.faults.base.FaultScenario` class, and the class carries the
rest: its Table 1 class (``fault_class``), the controller kind it runs on
(``kind``), and, as constructor defaults, the arguments the catalog runs it
with. ``jury-repro faults``, ``report --fault`` and ``list-faults`` read
it, and the fuzzer builds its faults from it.

The classes come from four modules:

* :mod:`~repro.faults.onos_faults` and :mod:`~repro.faults.odl_faults` —
  the real faults of §III-B and §VII-A1, and the four Appendix faults;
* :mod:`~repro.faults.synthetic` — §VII-A1's synthetic faults, one per
  Table 1 class;
* :mod:`~repro.faults.generic` — the generic distributed-system failure
  classes of §III-B (crash, response omission, timing and response
  corruption) and a store desync.
"""

from repro.faults.base import FaultClass, FaultScenario, ScenarioResult, run_scenario
from repro.faults.combination import CombinationScenario, run_combination
from repro.faults.generic import (
    CrashFault,
    ResponseCorruptionFault,
    ResponseOmissionFault,
    StoreDesyncFault,
    TimingFault,
)
from repro.faults.injector import FaultDriver
from repro.faults.odl_faults import (
    FlowDeletionFailureFault,
    FlowInstantiationFailureFault,
    OdlFlowModDropFault,
    OdlIncorrectFlowModFault,
)
from repro.faults.onos_faults import (
    LinkDetectionInconsistencyFault,
    OnosDatabaseLockFault,
    OnosMasterElectionFault,
    PendingAddFault,
)
from repro.faults.synthetic import (
    FaultyProactiveFault,
    LinkFailureFault,
    UndesirableFlowModFault,
)

#: Every catalog fault by name, in paper order: §III-B's real faults,
#: §VII-A1's synthetic ones, the Appendix faults, then the generic classes.
CATALOG = {cls.name: cls for cls in (
    OnosDatabaseLockFault,
    OnosMasterElectionFault,
    OdlFlowModDropFault,
    OdlIncorrectFlowModFault,
    LinkFailureFault,
    UndesirableFlowModFault,
    FaultyProactiveFault,
    FlowDeletionFailureFault,
    LinkDetectionInconsistencyFault,
    FlowInstantiationFailureFault,
    PendingAddFault,
    CrashFault,
    ResponseOmissionFault,
    TimingFault,
    ResponseCorruptionFault,
    StoreDesyncFault,
)}

__all__ = [
    "CATALOG",
    "CombinationScenario",
    "CrashFault",
    "FaultClass",
    "FaultDriver",
    "FaultScenario",
    "FaultyProactiveFault",
    "FlowDeletionFailureFault",
    "FlowInstantiationFailureFault",
    "LinkDetectionInconsistencyFault",
    "LinkFailureFault",
    "OdlFlowModDropFault",
    "OdlIncorrectFlowModFault",
    "OnosDatabaseLockFault",
    "OnosMasterElectionFault",
    "PendingAddFault",
    "ResponseCorruptionFault",
    "ResponseOmissionFault",
    "ScenarioResult",
    "run_combination",
    "StoreDesyncFault",
    "TimingFault",
    "UndesirableFlowModFault",
]
