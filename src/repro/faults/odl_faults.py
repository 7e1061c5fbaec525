"""ODL faults: FLOW_MOD drops, incorrect FLOW_MODs, deletion/instantiation failures."""

from __future__ import annotations

from typing import Optional

from repro.core.alarms import AlarmReason
from repro.datastore.caches import FLOWSDB, flow_key, flow_value
from repro.faults.base import FaultClass, FaultScenario
from repro.harness.experiment import Experiment
from repro.openflow.actions import ActionOutput
from repro.openflow.constants import FlowModCommand, FlowState
from repro.openflow.match import Match
from repro.openflow.messages import FlowMod


class OdlFlowModDropFault(FaultScenario):
    """ODL FLOW_MOD drops between MD-SAL and the OpenFlow plugin (§III-B, T2).

    "Since there is no control over the order of these egress calls,
    sporadically FLOW_MOD messages may be lost when writing them to the
    network, thereby creating inconsistency between the FLOW_MOD cache and
    the network." The cache write replicates cluster-wide; the validator's
    sanity check sees a promised FLOW_MOD with no network write (§VII-A1).
    """

    name = "odl-flow-mod-drop"
    kind = "odl"
    fault_class = FaultClass.T2
    expected_reasons = (AlarmReason.SANITY_MISMATCH,)

    def __init__(self, faulty_controller: str = "c1", dpid: Optional[int] = None):
        self.faulty_controller = faulty_controller
        self.dpid = dpid
        self.expected_offender = faulty_controller

    def inject(self, experiment: Experiment) -> None:
        controller = experiment.cluster.controller(self.faulty_controller)
        controller.egress_drop_prob = 1.0

    def trigger(self, experiment: Experiment) -> None:
        """An administrator proactively installs a flow via the controller."""
        controller = experiment.cluster.controller(self.faulty_controller)
        dpid = self.dpid if self.dpid is not None else self._mastered_dpid(experiment)
        match = Match.for_destination("aa:bb:cc:00:00:01")
        actions = (ActionOutput(1),)

        def admin_action(ctx):
            controller.cache_write(
                FLOWSDB, flow_key(dpid, match, 200),
                flow_value(dpid, match, actions, 200, state=FlowState.PENDING_ADD),
                ctx=ctx)
            controller.send_flow_mod(FlowMod(
                dpid=dpid, command=FlowModCommand.ADD, match=match,
                actions=actions, priority=200), ctx)

        controller.run_internal("admin-flow-install", admin_action)

    def _mastered_dpid(self, experiment: Experiment) -> int:
        for dpid, master in sorted(experiment.cluster.mastership.items()):
            if master == self.faulty_controller:
                return dpid
        return next(iter(sorted(experiment.topology.switches)))


class OdlIncorrectFlowModFault(FaultScenario):
    """ODL incorrect FLOW_MOD silently accepted by OF 1.0 switches (§III-B, T3).

    The match sets network-layer fields without ``dl_type``; the switch
    silently discards them, desynchronizing switch and store. The cache and
    network writes are *consistent with each other*, so consensus and sanity
    pass — only the administrator's match-hierarchy policy catches it
    (§VII-A1: "we use a policy that specifies the correct hierarchy of match
    fields in the cache entry").
    """

    name = "odl-incorrect-flow-mod"
    kind = "odl"
    fault_class = FaultClass.T3
    expected_reasons = (AlarmReason.POLICY_VIOLATION,)

    def __init__(self, faulty_controller: str = "c1", dpid: Optional[int] = None):
        self.faulty_controller = faulty_controller
        self.dpid = dpid
        self.expected_offender = faulty_controller

    def inject(self, experiment: Experiment) -> None:
        """Nothing to arm — the fault is the malformed admin request itself."""

    def trigger(self, experiment: Experiment) -> None:
        controller = experiment.cluster.controller(self.faulty_controller)
        dpid = self.dpid if self.dpid is not None else _mastered_dpid(
            experiment, self.faulty_controller)
        # nw_src/nw_dst without dl_type: violates the OF 1.0 prerequisite
        # hierarchy; the switch will silently strip these fields.
        bad_match = Match(nw_src="10.0.0.1", nw_dst="10.0.0.2")
        actions = (ActionOutput(1),)

        def admin_action(ctx):
            controller.cache_write(
                FLOWSDB, flow_key(dpid, bad_match, 300),
                flow_value(dpid, bad_match, actions, 300,
                           state=FlowState.PENDING_ADD),
                ctx=ctx)
            controller.send_flow_mod(FlowMod(
                dpid=dpid, command=FlowModCommand.ADD, match=bad_match,
                actions=actions, priority=300), ctx)

        controller.run_internal("admin-bad-flow-install", admin_action)


class FlowDeletionFailureFault(FaultScenario):
    """ODL flow deletion failure (Appendix 1, T1).

    With many flows in MD-SAL, an administrator's REST deletion locks the
    controller up. The replicated REST trigger makes secondaries capture the
    deletion while the primary omits its response.
    """

    name = "odl-flow-deletion-failure"
    kind = "odl"
    fault_class = FaultClass.T1
    expected_reasons = (AlarmReason.PRIMARY_OMISSION,)

    def __init__(self, faulty_controller: str = "c1"):
        self.faulty_controller = faulty_controller
        self.expected_offender = faulty_controller
        self._target: Optional[tuple] = None

    def inject(self, experiment: Experiment) -> None:
        controller = experiment.cluster.controller(self.faulty_controller)
        dpid = _mastered_dpid(experiment, self.faulty_controller)
        match = Match.for_destination("aa:bb:cc:00:00:77")
        # Pre-install a legitimate rule that the admin will try to delete.
        forwarding = controller.app("forwarding")
        controller.run_internal(
            "pre-install",
            lambda ctx: forwarding.install_flow(
                dpid, match, (ActionOutput(1),), ctx, priority=150))
        self._target = (dpid, match)
        # The lock-up: delete_flow requests stall inside the controller.
        original = controller.ingress_rest

        def locking_rest(request, ctx=None):
            if request.operation == "delete_flow":
                controller.rest_requests += 1
                return  # request accepted (REST says OK) but never processed
            original(request, ctx=ctx)

        controller.ingress_rest = locking_rest

    def trigger(self, experiment: Experiment) -> None:
        dpid, match = self._target
        experiment.northbound.delete_flow(self.faulty_controller, dpid, match,
                                          priority=150)


class FlowInstantiationFailureFault(FaultScenario):
    """ODL Helium flow instantiation failure (Appendix 3, T2).

    "The API returned success. However, no FLOW_MOD messages were sent from
    the controller and no flows were installed": the data-store write
    happens, the egress never does. Secondaries receive the cache updates;
    no FLOW_MOD appears on the network.
    """

    name = "odl-flow-instantiation-failure"
    kind = "odl"
    fault_class = FaultClass.T2
    # The trigger is external (REST), so the shadow replicas captured the
    # FLOW_MOD the primary failed to emit: consensus catches the divergence
    # before sanity even runs. Internal variants surface as sanity failures.
    expected_reasons = (AlarmReason.CONSENSUS_MISMATCH,
                        AlarmReason.SANITY_MISMATCH)

    def __init__(self, faulty_controller: str = "c1"):
        self.faulty_controller = faulty_controller
        self.expected_offender = faulty_controller

    def inject(self, experiment: Experiment) -> None:
        controller = experiment.cluster.controller(self.faulty_controller)
        controller.egress_drop_prob = 1.0

    def trigger(self, experiment: Experiment) -> None:
        dpid = _mastered_dpid(experiment, self.faulty_controller)
        experiment.northbound.add_flow(
            self.faulty_controller, dpid,
            Match.for_destination("aa:bb:cc:00:00:99"),
            (ActionOutput(1),), priority=160)


def _mastered_dpid(experiment: Experiment, controller_id: str) -> int:
    for dpid, master in sorted(experiment.cluster.mastership.items()):
        if master == controller_id:
            return dpid
    return next(iter(sorted(experiment.topology.switches)))
