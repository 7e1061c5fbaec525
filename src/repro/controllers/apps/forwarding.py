"""Reactive source-destination forwarding (ONOS style; also the paper's
custom ODL module, §VI-C).

On a data-packet PACKET_IN the app resolves the destination host, picks the
egress port (directly attached, or the next hop on a shortest path over the
controller's EdgesDB view), writes the flow rule to FlowsDB in PENDING_ADD
state — the single cache externalization of the trigger — and, if this
controller masters the switch, emits the FLOW_MOD plus a PACKET_OUT that
releases the buffered packet. Rules for *remote* switches are installed
purely via the cache write: the remote master reacts to the replicated cache
event and emits the actual FLOW_MOD (§II-A1).

A reconciliation pass (ONOS's flow-store/switch comparison) later moves
rules from PENDING_ADD to ADDED; a persistent mismatch leaves them stranded
in PENDING_ADD (Appendix fault 4), which a JURY policy can flag.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.controllers.base import ControllerApp
from repro.controllers.context import TriggerContext
from repro.datastore.caches import FLOWSDB, flow_key, flow_value
from repro.datastore.events import CacheEvent, CacheOp
from repro.openflow.actions import ActionOutput
from repro.openflow.constants import FlowModCommand, FlowState
from repro.openflow.match import Match
from repro.openflow.messages import FlowMod, PacketIn, PacketOut, RestRequest


class ReactiveForwarding(ControllerApp):
    """Per-switch reactive src-dst flow installation."""

    name = "forwarding"

    #: Reconciliation retries before a rule is left stranded in PENDING_ADD.
    MAX_RECONCILE_ATTEMPTS = 3

    #: Priority of the rules this app installs (and of a northbound request
    #: that names none).
    FLOW_PRIORITY = 100

    def __init__(self, controller):
        super().__init__(controller)
        self.flows_installed = 0
        self.floods = 0
        self.no_path = 0

    # ------------------------------------------------------------------
    # PACKET_IN path
    # ------------------------------------------------------------------
    def handle_packet_in(self, message: PacketIn, ctx: TriggerContext) -> bool:
        packet = message.packet
        if packet is None or packet.is_lldp or packet.is_arp:
            return False
        out_port = self._egress_port(message, ctx)
        if out_port is None:
            self._flood(message, ctx)
            return True
        match = Match.for_flow(packet, in_port=message.in_port)
        self.install_flow(message.dpid, match, (ActionOutput(out_port),), ctx,
                          buffer_id=message.buffer_id, in_port=message.in_port)
        return True

    def _egress_port(self, message: PacketIn, ctx: TriggerContext) -> Optional[int]:
        tracker = self.controller.app("hosttracker")
        if tracker is None:
            return None
        destination = tracker.lookup_by_mac(message.packet.dst_mac)
        if destination is None:
            return None
        if destination["dpid"] == message.dpid:
            return destination["port"]
        topology = self.controller.app("topology")
        if topology is None:
            return None
        port = topology.next_hop_port(message.dpid, destination["dpid"])
        if port is None:
            self.no_path += 1
        return port

    def _flood(self, message: PacketIn, ctx: TriggerContext) -> None:
        self.floods += 1
        tracker = self.controller.app("hosttracker")
        ports = tracker._flood_ports(message.dpid, message.in_port) if tracker else []
        self.controller.send_packet_out(PacketOut(
            dpid=message.dpid, buffer_id=message.buffer_id,
            in_port=message.in_port,
            actions=tuple(ActionOutput(p) for p in ports)), ctx)

    # ------------------------------------------------------------------
    # Flow installation (shared with the northbound path)
    # ------------------------------------------------------------------
    def install_flow(self, dpid: int, match: Match, actions: Tuple, ctx: TriggerContext,
                     buffer_id: Optional[int] = None, in_port: int = 0,
                     priority: Optional[int] = None) -> None:
        """Write the rule to FlowsDB and emit FLOW_MOD (+ PACKET_OUT) if master."""
        priority = self.FLOW_PRIORITY if priority is None else priority
        key = flow_key(dpid, match, priority)
        value = flow_value(dpid, match, actions, priority,
                           state=FlowState.PENDING_ADD)
        self.controller.cache_write(FLOWSDB, key, value, ctx=ctx)
        self.flows_installed += 1
        if self.controller.is_master(dpid, ctx):
            self.controller.send_flow_mod(FlowMod(
                dpid=dpid, command=FlowModCommand.ADD, match=match,
                actions=actions, priority=priority), ctx)
            if buffer_id is not None:
                self.controller.send_packet_out(PacketOut(
                    dpid=dpid, buffer_id=buffer_id, in_port=in_port,
                    actions=actions), ctx)
            self._schedule_reconcile(dpid, match, actions, priority, ctx)

    def _schedule_reconcile(self, dpid: int, match: Match, actions: Tuple,
                            priority: int, ctx: TriggerContext) -> None:
        delay = self.controller.profile.flow_reconcile_delay_ms
        if delay <= 0 or ctx.shadow:
            return
        self.controller.sim.schedule(
            delay, self._reconcile, dpid, match, actions, priority, 1)

    def _reconcile(self, dpid: int, match: Match, actions: Tuple,
                   priority: int, attempt: int) -> None:
        """ONOS flow reconciliation: compare store and switch, then promote.

        Runs as an *internal* trigger — this is the truly-proactive flow
        subsystem acting without any external stimulus.
        """
        controller = self.controller
        if not controller.alive or not controller.is_master(dpid):
            return
        key = flow_key(dpid, match, priority)
        stored = controller.store.get(FLOWSDB, key)
        if stored is None or stored.get("state") != FlowState.PENDING_ADD.value:
            return
        installed = self._switch_reports_flow(dpid, match, actions, priority)
        if installed:
            promoted = dict(stored)
            promoted["state"] = FlowState.ADDED.value
            controller.run_internal(
                f"flow-reconcile s{dpid}",
                lambda ictx: controller.cache_write(FLOWSDB, key, promoted, ctx=ictx))
            return
        # Still missing on the switch: refresh PENDING_ADD with the attempt
        # count so policies can flag persistently stranded rules.
        stranded = dict(stored)
        stranded["attempts"] = attempt
        controller.run_internal(
            f"flow-reconcile-retry s{dpid}",
            lambda ictx: controller.cache_write(FLOWSDB, key, stranded, ctx=ictx))
        if attempt < self.MAX_RECONCILE_ATTEMPTS:
            controller.sim.schedule(
                controller.profile.flow_reconcile_delay_ms,
                self._reconcile, dpid, match, actions, priority, attempt + 1)

    def _switch_reports_flow(self, dpid: int, match: Match, actions: Tuple,
                             priority: int) -> bool:
        """Model a flow-stats round: does the switch report this exact rule?"""
        from repro.openflow.actions import canonical_actions

        cluster = self.controller.cluster
        if cluster is None or cluster.topology is None:
            return False
        switch = cluster.topology.switches.get(dpid)
        if switch is None:
            return False
        entry = switch.table.find(match, priority)
        if entry is None:
            return False
        return canonical_actions(entry.actions) == canonical_actions(actions)

    # ------------------------------------------------------------------
    # Northbound path
    # ------------------------------------------------------------------
    def handle_rest(self, request: RestRequest, ctx: TriggerContext) -> bool:
        if request.operation == "add_flow":
            params = request.params
            self.install_flow(
                params["dpid"], params["match"], tuple(params["actions"]), ctx,
                priority=params.get("priority"))
            return True
        if request.operation == "delete_flow":
            params = request.params
            self.delete_flow(params["dpid"], params["match"],
                             params.get("priority", self.FLOW_PRIORITY), ctx)
            return True
        return False

    def delete_flow(self, dpid: int, match: Match, priority: int,
                    ctx: TriggerContext) -> None:
        """Remove a rule from FlowsDB and the switch (if master)."""
        key = flow_key(dpid, match, priority)
        self.controller.cache_delete(FLOWSDB, key, ctx=ctx)
        if self.controller.is_master(dpid, ctx):
            self.controller.send_flow_mod(FlowMod(
                dpid=dpid, command=FlowModCommand.DELETE, match=match,
                priority=priority), ctx)

    # ------------------------------------------------------------------
    # Remote-switch installation via the shared cache
    # ------------------------------------------------------------------
    def on_cache_event(self, event: CacheEvent) -> None:
        """A peer wrote a flow for a switch *we* master: emit the FLOW_MOD."""
        if event.cache != FLOWSDB or event.origin == self.controller.id:
            return
        dpid = self._dpid_of_flow_event(event)
        if dpid is None or not self.controller.is_master(dpid):
            return
        ctx = TriggerContext(
            trigger_id=event.trigger_id,
            external=event.tau is not None and event.tau[0] == "ext",
            received_at=self.controller.sim.now,
            description=f"remote-flow s{dpid}",
        )
        if event.op == CacheOp.DELETE:
            _, _, match_canonical, priority = event.key
            self.controller.send_flow_mod(FlowMod(
                dpid=dpid, command=FlowModCommand.DELETE,
                match=Match.from_canonical(match_canonical),
                priority=priority), ctx)
            return
        value = event.value
        if value.get("state") != FlowState.PENDING_ADD.value or "attempts" in value:
            return  # reconciliation updates do not re-emit
        match = Match.from_canonical(value["match"])
        actions = _actions_from_canonical(value["actions"])
        self.controller.send_flow_mod(FlowMod(
            dpid=dpid, command=FlowModCommand.ADD, match=match,
            actions=actions, priority=value["priority"]), ctx)

    @staticmethod
    def _dpid_of_flow_event(event: CacheEvent) -> Optional[int]:
        key = event.key
        if isinstance(key, tuple) and len(key) == 4 and key[0] == "flow":
            return key[1]
        return None


def _actions_from_canonical(canonicals: Tuple) -> Tuple:
    """Rebuild action objects from their canonical tuples."""
    from repro.openflow.actions import ActionDrop, ActionOutput

    actions = []
    for canonical in canonicals:
        if canonical[0] == "drop":
            actions.append(ActionDrop())
        elif canonical[0] == "output":
            actions.append(ActionOutput(canonical[1]))
    return tuple(actions)
