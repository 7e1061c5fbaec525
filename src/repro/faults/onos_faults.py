"""ONOS faults: database locking, master election, link detection, PENDING_ADD."""

from __future__ import annotations

from typing import Optional

from repro.core.alarms import AlarmReason
from repro.datastore.caches import SWITCHESDB
from repro.faults.base import FaultClass, FaultScenario
from repro.harness.experiment import Experiment


class OnosDatabaseLockFault(FaultScenario):
    """ONOS database locking (§III-B, T1).

    "Clustered ONOS controllers occasionally reject switches' attempts to
    connect ... causing the replicas to encounter a 'failed to obtain lock'
    error from their distributed graph database."

    The faulty controller's lock manager refuses SwitchesDB writes, so a
    fresh switch connect elicits *no* externalization at the primary while
    the replicated FEATURES_REPLY makes every secondary capture the switch
    write — the validator times the trigger out and, from the lack of taint
    on the missing response, blames the primary (§VII-A1).
    """

    name = "onos-database-locking"
    fault_class = FaultClass.T1
    expected_reasons = (AlarmReason.PRIMARY_OMISSION,)

    def __init__(self, faulty_controller: str = "c1", new_dpid: int = 900):
        self.faulty_controller = faulty_controller
        self.new_dpid = new_dpid
        self.expected_offender = faulty_controller

    def inject(self, experiment: Experiment) -> None:
        controller = experiment.cluster.controller(self.faulty_controller)

        def failing_lock(cache: str, key) -> bool:
            return cache != SWITCHESDB

        controller.store.lock_manager = failing_lock

    def trigger(self, experiment: Experiment) -> None:
        """A new switch connects, mastered by the faulty controller."""
        switch = experiment.topology.add_switch(self.new_dpid)
        experiment.cluster.wire_switch(switch, master=self.faulty_controller)
        if experiment.jury is not None:
            experiment.jury.attach_new_proxies()


class OnosMasterElectionFault(FaultScenario):
    """ONOS master election (§III-B, T1).

    The link-liveness master is the governing controller with the higher
    election id. After the old master reboots with a *lower* id while the
    surviving controller's view of election ids is stale, both governing
    controllers conclude they are not responsible — the primary writes
    nothing on the next LLDP while the up-to-date shadow replicas (acting as
    the primary) do, and consensus flags the divergence (§VII-A1).
    """

    name = "onos-master-election"
    fault_class = FaultClass.T1
    expected_reasons = (AlarmReason.PRIMARY_OMISSION,
                        AlarmReason.CONSENSUS_MISMATCH)

    def __init__(self, dpid_a: int = 1, dpid_b: int = 2):
        self.dpid_a = dpid_a
        self.dpid_b = dpid_b
        self.expected_offender: Optional[str] = None

    def inject(self, experiment: Experiment) -> None:
        cluster = experiment.cluster
        master_a = cluster.master_of(self.dpid_a)
        master_b = cluster.master_of(self.dpid_b)
        controller_a = cluster.controller(master_a)
        controller_b = cluster.controller(master_b)
        # Identify the current liveness master (higher election id) and
        # reboot it with an id *below* its peer's.
        if controller_a.election_id >= controller_b.election_id:
            winner, loser = controller_a, controller_b
        else:
            winner, loser = controller_b, controller_a
        stale_id = winner.election_id
        winner.crash()
        winner.reboot(election_id=loser.election_id - 1)
        cluster.set_master(  # it resumes mastership of its switch
            self.dpid_a if winner is controller_a else self.dpid_b, winner.id)
        # The peer's *belief* about the rebooted controller is stale: it
        # still thinks the old (high) id is in force, so it defers liveness
        # tracking — while the cluster registry (used by shadow replicas)
        # has the new id, under which the peer IS responsible.
        loser.app("topology").known_election_ids[winner.id] = stale_id
        self.expected_offender = loser.id
        # Force the next LLDP round to re-decide the edge writes.
        self._purge_edge(experiment)

    def _purge_edge(self, experiment: Experiment) -> None:
        """Make the link's EdgesDB entries stale so rediscovery must write."""
        link = experiment.topology.link_between(self.dpid_a, self.dpid_b)
        if link is not None:
            link.fail()
            experiment.sim.schedule(5.0, link.restore)
        from repro.datastore.caches import EDGESDB

        for controller in experiment.cluster.controllers.values():
            edges = controller.store.caches.get(EDGESDB, {})
            for key in list(edges):
                _, src_dpid, _, dst_dpid, _ = key
                if {src_dpid, dst_dpid} == {self.dpid_a, self.dpid_b}:
                    del edges[key]

    def trigger(self, experiment: Experiment) -> None:
        """Nothing to do — the periodic LLDP probes are the trigger."""

    def settle_ms(self, experiment: Experiment) -> float:
        lldp = max(c.profile.lldp_period_ms
                   for c in experiment.cluster.controllers.values())
        return 2 * lldp + 4.0 * experiment.validator.timeout.current() + 200.0


class LinkDetectionInconsistencyFault(FaultScenario):
    """ONOS link detection inconsistent (Appendix 2, T1).

    "ONOS sometimes fails to detect all links ... likely due to threading
    conflicts": the faulty controller's topology app silently skips edge
    writes. On rediscovery after a link event, the primary externalizes
    nothing while shadow replicas capture the edge write.
    """

    name = "onos-link-detection"
    fault_class = FaultClass.T1
    expected_reasons = (AlarmReason.PRIMARY_OMISSION,
                        AlarmReason.CONSENSUS_MISMATCH)

    def __init__(self, dpid_a: int = 2, dpid_b: int = 3):
        self.dpid_a = dpid_a
        self.dpid_b = dpid_b
        self.expected_offender: Optional[str] = None

    def inject(self, experiment: Experiment) -> None:
        cluster = experiment.cluster
        # The controller that would write this edge is the liveness master.
        master_a = cluster.controller(cluster.master_of(self.dpid_a))
        master_b = cluster.controller(cluster.master_of(self.dpid_b))
        faulty = master_a if master_a.election_id >= master_b.election_id else master_b
        self.expected_offender = faulty.id
        app = faulty.app("topology")
        original = app.handle_packet_in

        def dropping_handler(message, ctx):
            packet = message.packet
            if (packet is not None and packet.is_lldp and not ctx.shadow):
                return True  # "thread conflict": the edge write is lost
            return original(message, ctx)

        app.handle_packet_in = dropping_handler

    def trigger(self, experiment: Experiment) -> None:
        """A link event forces rediscovery of the edge."""
        from repro.datastore.caches import EDGESDB

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


class PendingAddFault(FaultScenario):
    """ONOS flow rules stuck in PENDING_ADD (Appendix 4, T2).

    The switch misbehaves for a particular technology and never installs the
    rule; store/switch comparison keeps the rule in PENDING_ADD through
    every reconciliation attempt. A stranded-flow policy flags it.
    """

    name = "onos-pending-add"
    fault_class = FaultClass.T2
    expected_reasons = (AlarmReason.POLICY_VIOLATION,)

    def __init__(self, dpid: int = 4):
        self.dpid = dpid
        self.expected_offender: Optional[str] = None

    def inject(self, experiment: Experiment) -> None:
        switch = experiment.topology.switches[self.dpid]
        # The switch silently ignores installs (optical-technology quirk).
        switch._handle_flow_mod = lambda message: None
        self.expected_offender = experiment.cluster.master_of(self.dpid)

    def trigger(self, experiment: Experiment) -> None:
        """Open a connection whose path installs a rule on the bad switch."""
        hosts = experiment.topology.host_list()
        src = next(h for h in hosts
                   if experiment.topology.host_location(h)[0] == self.dpid)
        dst = next(h for h in hosts if h is not src)
        src.open_connection(dst)

    def settle_ms(self, experiment: Experiment) -> float:
        controller = experiment.cluster.controller(self.expected_offender)
        reconcile = controller.profile.flow_reconcile_delay_ms
        return 6 * reconcile + 4.0 * experiment.validator.timeout.current() + 200.0
