"""The paper's three synthetic faults (§VII-A1): one per fault class."""

from __future__ import annotations

from typing import Optional

from repro.core.alarms import AlarmReason
from repro.datastore.caches import EDGESDB, FLOWSDB, edge_value, flow_key, flow_value
from repro.faults.base import FaultClass, FaultScenario
from repro.harness.experiment import Experiment
from repro.openflow.actions import ActionDrop, ActionOutput
from repro.openflow.constants import FlowModCommand, FlowState
from repro.openflow.match import Match
from repro.openflow.messages import FlowMod


class LinkFailureFault(FaultScenario):
    """Synthetic T1: a faulty controller disables a critical link.

    "An LLDP PACKET_IN triggers an update for a new link ... However, a
    faulty controller incorrectly updates the LinksDB cache to disable a
    critical link." The shadow replicas write the correct alive=True entry;
    the primary's cache relay differs — consensus mismatch.
    """

    name = "link-failure"
    fault_class = FaultClass.T1
    expected_reasons = (AlarmReason.CONSENSUS_MISMATCH,)

    def __init__(self, dpid_a: int = 1, dpid_b: int = 2):
        self.dpid_a = dpid_a
        self.dpid_b = dpid_b
        self.expected_offender: Optional[str] = None

    def inject(self, experiment: Experiment) -> None:
        cluster = experiment.cluster
        master_a = cluster.controller(cluster.master_of(self.dpid_a))
        master_b = cluster.controller(cluster.master_of(self.dpid_b))
        faulty = master_a if master_a.election_id >= master_b.election_id else master_b
        self.expected_offender = faulty.id
        app = faulty.app("topology")
        original_write = faulty.cache_write

        def corrupting_write(cache, key, value, ctx, op=None):
            if (cache == EDGESDB and not ctx.shadow
                    and isinstance(value, dict) and value.get("alive", False)):
                value = dict(value)
                value["alive"] = False  # the incorrect update
            original_write(cache, key, value, ctx, op=op)

        faulty.cache_write = corrupting_write
        self._app = app

    def trigger(self, experiment: Experiment) -> None:
        """Force the link to be rediscovered (a 'new link' LLDP update)."""
        link = experiment.topology.link_between(self.dpid_a, self.dpid_b)
        if link is not None:
            link.fail()
            experiment.sim.schedule(5.0, link.restore)
        for controller in experiment.cluster.controllers.values():
            edges = controller.store.caches.get(EDGESDB, {})
            for key in list(edges):
                _, src_dpid, _, dst_dpid, _ = key
                if {src_dpid, dst_dpid} == {self.dpid_a, self.dpid_b}:
                    del edges[key]

    def settle_ms(self, experiment: Experiment) -> float:
        lldp = max(c.profile.lldp_period_ms
                   for c in experiment.cluster.controllers.values())
        return 2 * lldp + 4.0 * experiment.validator.timeout.current() + 200.0


class UndesirableFlowModFault(FaultScenario):
    """Synthetic T2: the cached rule is correct, the emitted FLOW_MOD drops.

    "An administrator issues a FLOW_MOD ... correct flow rules are written
    to the cache. However, a faulty controller incorrectly modifies the flow
    rules and instead issues a FLOW_MOD that drops all packets." Sanity
    checking the network write against the cluster's cache updates flags it.
    """

    name = "undesirable-flow-mod"
    fault_class = FaultClass.T2
    expected_reasons = (AlarmReason.SANITY_MISMATCH,)

    def __init__(self, faulty_controller: str = "c2", dpid: Optional[int] = None):
        self.faulty_controller = faulty_controller
        self.dpid = dpid
        self.expected_offender = faulty_controller

    def inject(self, experiment: Experiment) -> None:
        """Nothing to arm; the corruption happens in the emission below."""

    def trigger(self, experiment: Experiment) -> None:
        controller = experiment.cluster.controller(self.faulty_controller)
        dpid = self.dpid
        if dpid is None:
            for candidate, master in sorted(experiment.cluster.mastership.items()):
                if master == self.faulty_controller:
                    dpid = candidate
                    break
        match = Match.for_destination("aa:bb:cc:00:00:42")
        good_actions = (ActionOutput(1),)

        def admin_action(ctx):
            controller.cache_write(
                FLOWSDB, flow_key(dpid, match, 210),
                flow_value(dpid, match, good_actions, 210,
                           state=FlowState.PENDING_ADD),
                ctx=ctx)
            # The faulty controller swaps the actions for a drop-all.
            controller.send_flow_mod(FlowMod(
                dpid=dpid, command=FlowModCommand.ADD, match=match,
                actions=(ActionDrop(),), priority=210), ctx)

        controller.run_internal("admin-flow-install", admin_action)


class FaultyProactiveFault(FaultScenario):
    """Synthetic T3: a proactive write brings a critical link down.

    "An administrator or controller application incorrectly updates the
    LinksDB cache, which brings down a critical network link." Cache and
    network agree (there is no network side-effect at all), so only an
    administrator policy prohibiting proactive topology changes detects it.
    """

    name = "faulty-proactive"
    fault_class = FaultClass.T3
    expected_reasons = (AlarmReason.POLICY_VIOLATION,)

    def __init__(self, faulty_controller: str = "c3",
                 dpid_a: int = 2, dpid_b: int = 3):
        self.faulty_controller = faulty_controller
        self.dpid_a = dpid_a
        self.dpid_b = dpid_b
        self.expected_offender = faulty_controller

    def inject(self, experiment: Experiment) -> None:
        """Nothing to arm; the faulty proactive write is the trigger."""

    def trigger(self, experiment: Experiment) -> None:
        controller = experiment.cluster.controller(self.faulty_controller)
        edges = controller.store.entries(EDGESDB)
        target_key = None
        for key in edges:
            _, src_dpid, _, dst_dpid, _ = key
            if {src_dpid, dst_dpid} == {self.dpid_a, self.dpid_b}:
                target_key = key
                break
        if target_key is None:
            target_key = ("edge", self.dpid_a, 1, self.dpid_b, 1)
        _, src_dpid, src_port, dst_dpid, dst_port = target_key
        controller.run_internal(
            "proactive-link-disable",
            lambda ctx: controller.cache_write(
                EDGESDB, target_key,
                edge_value(src_dpid, src_port, dst_dpid, dst_port, alive=False),
                ctx=ctx))
