"""Destination-based proactive forwarding (vanilla ODL behaviour).

"ODL proactively installs destination-based flow rules as soon as it
receives PACKET_IN messages for ARPs indicating host discovery, i.e., even
before the first traffic packet is sent" (§VI-C). On each host discovery the
app installs a ``dl_dst``-match rule toward the host on every switch this
controller masters, so subsequent data traffic never misses the TCAM — and
the controller sees no further PACKET_INs (footnote 3).

One external trigger therefore externalizes *several* cache writes; JURY's
controller module aggregates them into a single cache-update response per
replica (see :mod:`repro.core.module`).
"""

from __future__ import annotations

from repro.controllers.base import ControllerApp
from repro.controllers.context import TriggerContext
from repro.datastore.caches import FLOWSDB, HOSTSDB, flow_key, flow_value, host_key, host_value
from repro.openflow.actions import ActionOutput
from repro.openflow.constants import FlowModCommand, FlowState
from repro.openflow.match import Match
from repro.openflow.messages import FlowMod, PacketIn, PacketOut


class ProactiveForwarding(ControllerApp):
    """Installs dst-based rules for every discovered host."""

    name = "proactive"

    #: Priority of the destination rules this app installs.
    FLOW_PRIORITY = 50

    def __init__(self, controller):
        super().__init__(controller)
        self.hosts_provisioned = 0

    def handle_packet_in(self, message: PacketIn, ctx: TriggerContext) -> bool:
        packet = message.packet
        if packet is None or not packet.is_arp:
            return False
        self._learn_and_provision(message, ctx)
        self._flood(message, ctx)
        return True

    def _learn_and_provision(self, message: PacketIn, ctx: TriggerContext) -> None:
        packet = message.packet
        if self._is_fabric_port(message.dpid, message.in_port):
            return  # flooded copy over the fabric; not a host discovery
        key = host_key(packet.src_mac)
        value = host_value(packet.src_mac, packet.src_ip, message.dpid, message.in_port)
        if self.controller.store.get(HOSTSDB, key) == value:
            return  # already provisioned for this host at this location
        self.controller.cache_write(HOSTSDB, key, value, ctx=ctx)
        self.hosts_provisioned += 1
        match = Match.for_destination(packet.src_mac)
        topology = self.controller.app("topology")
        for dpid in self._governed_switches(ctx):
            if dpid == message.dpid:
                out_port = message.in_port
            elif topology is not None:
                out_port = topology.next_hop_port(dpid, message.dpid)
            else:
                out_port = None
            if out_port is None:
                continue
            actions = (ActionOutput(out_port),)
            flow_cache_key = flow_key(dpid, match, self.FLOW_PRIORITY)
            self.controller.cache_write(
                FLOWSDB, flow_cache_key,
                flow_value(dpid, match, actions, self.FLOW_PRIORITY,
                           state=FlowState.PENDING_ADD),
                ctx=ctx)
            self.controller.send_flow_mod(FlowMod(
                dpid=dpid, command=FlowModCommand.ADD, match=match,
                actions=actions, priority=self.FLOW_PRIORITY), ctx)

    def on_cache_event(self, event) -> None:
        """Provision this partition when a peer discovers a host.

        In the SINGLE_CONTROLLER setup each controller only sees its own
        switches' PACKET_INs; host locations reach the others through the
        shared HostsDB, and each then installs destination rules on the
        switches *it* governs (a truly proactive, internal action).
        """
        from repro.datastore.caches import HOSTSDB
        from repro.datastore.events import CacheOp

        if (event.cache != HOSTSDB or event.origin == self.controller.id
                or event.op == CacheOp.DELETE or not event.value):
            return
        host = event.value
        self.controller.run_internal(
            f"provision-host {host['mac']}",
            lambda ctx: self._install_routes_toward(host, ctx))

    def _install_routes_toward(self, host: dict, ctx: TriggerContext) -> None:
        match = Match.for_destination(host["mac"])
        topology = self.controller.app("topology")
        for dpid in self._governed_switches(ctx):
            if dpid == host["dpid"]:
                out_port = host["port"]
            elif topology is not None:
                out_port = topology.next_hop_port(dpid, host["dpid"])
            else:
                out_port = None
            if out_port is None:
                continue
            actions = (ActionOutput(out_port),)
            self.controller.cache_write(
                FLOWSDB, flow_key(dpid, match, self.FLOW_PRIORITY),
                flow_value(dpid, match, actions, self.FLOW_PRIORITY,
                           state=FlowState.PENDING_ADD),
                ctx=ctx)
            self.controller.send_flow_mod(FlowMod(
                dpid=dpid, command=FlowModCommand.ADD, match=match,
                actions=actions, priority=self.FLOW_PRIORITY), ctx)

    def _governed_switches(self, ctx: TriggerContext):
        """Switches the *acting* identity governs, from shared mastership.

        Shadow executions impersonate the primary, so they must provision
        the primary's switches — cluster mastership is shared state, unlike
        this replica's local ``connected_switches``.
        """
        cluster = self.controller.cluster
        acting = self.controller.effective_id(ctx)
        if cluster is None:
            return sorted(self.controller.connected_switches)
        return sorted(dpid for dpid, master in cluster.mastership.items()
                      if master == acting)

    def _is_fabric_port(self, dpid: int, port: int) -> bool:
        topology = self.controller.app("topology")
        if topology is None:
            return False
        graph = topology.topology_graph()
        if dpid not in graph:
            return False
        return any(graph[dpid][n]["ports"].get(dpid) == port
                   for n in graph.neighbors(dpid))

    def _flood(self, message: PacketIn, ctx: TriggerContext) -> None:
        tracker = self.controller.app("hosttracker")
        if tracker is not None:
            ports = tracker._flood_ports(message.dpid, message.in_port)
        else:
            ports = []
        self.controller.send_packet_out(PacketOut(
            dpid=message.dpid, buffer_id=message.buffer_id,
            in_port=message.in_port,
            actions=tuple(ActionOutput(p) for p in ports)), ctx)
