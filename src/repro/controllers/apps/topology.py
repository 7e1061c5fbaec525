"""Topology discovery and link-liveness tracking.

Controllers discover the switch fabric with LLDP: each controller
periodically PACKET_OUTs probes on every port of the switches it masters; a
probe crossing a link arrives at the neighbour switch, misses its table, and
punts to *that* switch's master as a PACKET_IN, which learns the edge and
writes it to EdgesDB.

Link-liveness tracking reproduces the (old) ONOS algorithm behind the
master-election fault (§III-B): for a link whose endpoint switches are
governed by different controllers, the controller with the *higher election
id* is elected liveness master and is responsible for tracking and marking
the link. If the master dies and reboots with a lower id while the peers'
views of election ids desynchronize, both governing controllers can conclude
they are not responsible — and the link is incorrectly marked unusable.
Election-id views are deliberately per-controller (``known_election_ids``)
so the fault injector can desynchronize them.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import networkx as nx

from repro.controllers.base import ControllerApp
from repro.controllers.context import TriggerContext, internal_trigger_id
from repro.datastore.caches import EDGESDB, edge_key, edge_value
from repro.net.packet import LldpPayload, lldp_probe
from repro.openflow.actions import ActionOutput
from repro.openflow.messages import PacketIn, PacketOut


class TopologyApp(ControllerApp):
    """LLDP-driven topology discovery and liveness tracking."""

    name = "topology"

    def __init__(self, controller, liveness_check_period_ms: float = 3000.0):
        super().__init__(controller)
        self.liveness_check_period_ms = liveness_check_period_ms
        #: Per-controller view of peers' election ids. Defaults to the
        #: cluster registry; the master-election fault injects stale values.
        self.known_election_ids: Dict[str, int] = {}
        #: Last time an LLDP probe confirmed each edge (local view).
        self.last_seen: Dict[Tuple, float] = {}
        self._started = False
        # Derived-view caches, invalidated on any EdgesDB change. Rebuilding
        # a graph per PACKET_IN would dominate runtime at high rates.
        self._graph_cache: Optional[nx.Graph] = None
        self._next_hop_cache: Dict[Tuple[int, int], Optional[int]] = {}
        self._tree_ports_cache: Dict[int, List[int]] = {}

    # ------------------------------------------------------------------
    # Periodic probing
    # ------------------------------------------------------------------
    def start(self) -> None:
        if self._started:
            return
        self._started = True
        sim = self.controller.sim
        sim.schedule(1.0, self._emit_probes)
        if self.liveness_check_period_ms > 0:
            sim.schedule(self.liveness_check_period_ms, self._liveness_check)

    def _emit_probes(self) -> None:
        controller = self.controller
        if not controller.alive:
            return
        ctx = TriggerContext.internal_trigger(
            internal_trigger_id(controller.sim, controller.id),
            received_at=controller.sim.now, description="lldp-probe")
        for dpid in sorted(controller.connected_switches):
            if not controller.is_master(dpid):
                continue
            channel = controller.channel_for(dpid)
            if channel is None:
                continue
            switch = self._switch_ports(dpid)
            for port in switch:
                probe = lldp_probe(dpid, port, controller_id=controller.id)
                controller.send_packet_out(PacketOut(
                    dpid=dpid, packet=probe, actions=(ActionOutput(port),)), ctx)
        controller.sim.schedule(controller.profile.lldp_period_ms, self._emit_probes)

    def _switch_ports(self, dpid: int) -> Tuple[int, ...]:
        cluster = self.controller.cluster
        if cluster is None or cluster.topology is None:
            return ()
        switch = cluster.topology.switches.get(dpid)
        return switch.port_numbers if switch is not None else ()

    # ------------------------------------------------------------------
    # Edge learning
    # ------------------------------------------------------------------
    def handle_packet_in(self, message: PacketIn, ctx: TriggerContext) -> bool:
        packet = message.packet
        if packet is None or not packet.is_lldp:
            return False
        payload = packet.payload
        if not isinstance(payload, LldpPayload):
            return True
        src_dpid, src_port = payload.src_dpid, payload.src_port
        dst_dpid, dst_port = message.dpid, message.in_port
        key = edge_key(src_dpid, src_port, dst_dpid, dst_port)
        self.last_seen[key] = self.controller.sim.now
        if not self._is_liveness_master(src_dpid, dst_dpid, ctx):
            # Not responsible for this link's tracking; no externalization.
            return True
        value = edge_value(src_dpid, src_port, dst_dpid, dst_port, alive=True)
        existing = self.controller.store.get(EDGESDB, key)
        if existing == value:
            return True  # already known and unchanged; nothing to write
        self.controller.cache_write(EDGESDB, key, value, ctx=ctx)
        return True

    def _is_liveness_master(self, dpid_a: int, dpid_b: int,
                            ctx: TriggerContext) -> bool:
        """The (buggy) election: higher election id among governing controllers."""
        cluster = self.controller.cluster
        acting = self.controller.effective_id(ctx)
        if cluster is None:
            return True
        master_a = cluster.master_of(dpid_a)
        master_b = cluster.master_of(dpid_b)
        if master_a == master_b:
            return acting == master_a
        if acting not in (master_a, master_b):
            return False
        eid_a = self.election_id_of(master_a)
        eid_b = self.election_id_of(master_b)
        winner = master_a if eid_a >= eid_b else master_b
        return acting == winner

    def election_id_of(self, controller_id: str) -> int:
        """This controller's *belief* about a peer's election id."""
        if controller_id in self.known_election_ids:
            return self.known_election_ids[controller_id]
        cluster = self.controller.cluster
        if cluster is not None:
            return cluster.election_id_of(controller_id)
        return 0

    # ------------------------------------------------------------------
    # Liveness sweep (internal trigger)
    # ------------------------------------------------------------------
    def _liveness_check(self) -> None:
        controller = self.controller
        if not controller.alive:
            return
        stale_cutoff = controller.sim.now - 3 * controller.profile.lldp_period_ms
        for key, seen in list(self.last_seen.items()):
            if seen >= stale_cutoff:
                continue
            _, src_dpid, src_port, dst_dpid, dst_port = key
            entry = controller.store.get(EDGESDB, key)
            if entry is None or not entry.get("alive", False):
                continue
            probe_ctx = TriggerContext(trigger_id=None)  # mastership probe only
            if not self._is_liveness_master(src_dpid, dst_dpid, probe_ctx):
                continue
            controller.run_internal(
                f"link-liveness s{src_dpid}->s{dst_dpid}",
                lambda ctx, k=key, s=src_dpid, sp=src_port, d=dst_dpid, dp=dst_port:
                    controller.cache_write(
                        EDGESDB, k, edge_value(s, sp, d, dp, alive=False), ctx=ctx))
        controller.sim.schedule(self.liveness_check_period_ms, self._liveness_check)

    # ------------------------------------------------------------------
    # Topology views used by forwarding
    # ------------------------------------------------------------------
    def on_cache_event(self, event) -> None:
        if event.cache == EDGESDB:
            self._graph_cache = None
            self._next_hop_cache.clear()
            self._tree_ports_cache.clear()

    def topology_graph(self) -> nx.Graph:
        """This replica's view of the fabric, from its EdgesDB replica."""
        if self._graph_cache is not None:
            return self._graph_cache
        graph = nx.Graph()
        for key, value in self.controller.store.entries(EDGESDB).items():
            if not value or not value.get("alive", True):
                continue
            (src_dpid, src_port) = value["src"]
            (dst_dpid, dst_port) = value["dst"]
            graph.add_edge(src_dpid, dst_dpid)
            # Record the egress port for each direction on the edge data.
            graph[src_dpid][dst_dpid].setdefault("ports", {})
            graph[src_dpid][dst_dpid]["ports"][src_dpid] = src_port
            graph[src_dpid][dst_dpid]["ports"].setdefault(dst_dpid, dst_port)
            # Unique deterministic weights make the minimum spanning tree
            # unique, so every replica with the same edge *set* computes the
            # same flood tree regardless of event arrival order — shadow
            # executions must match the primary's flood ports exactly.
            low, high = sorted((src_dpid, dst_dpid))
            graph[src_dpid][dst_dpid]["weight"] = low * 1_000_000 + high
        self._graph_cache = graph
        return graph

    def next_hop_port(self, src_dpid: int, dst_dpid: int) -> Optional[int]:
        """Egress port at ``src_dpid`` on a shortest path to ``dst_dpid``."""
        cache_key = (src_dpid, dst_dpid)
        if cache_key in self._next_hop_cache:
            return self._next_hop_cache[cache_key]
        port = self._compute_next_hop(src_dpid, dst_dpid)
        self._next_hop_cache[cache_key] = port
        return port

    def _compute_next_hop(self, src_dpid: int, dst_dpid: int) -> Optional[int]:
        graph = self.topology_graph()
        if src_dpid not in graph or dst_dpid not in graph:
            return None
        try:
            # Equal-cost multipath: pick the lexicographically smallest of
            # the shortest paths so every replica with the same edge set
            # routes identically (shadow executions must match the primary).
            path = min(nx.all_shortest_paths(graph, src_dpid, dst_dpid))
        except nx.NetworkXNoPath:
            return None
        if len(path) < 2:
            return None
        edge = graph[path[0]][path[1]]
        return edge["ports"].get(src_dpid)

    def spanning_tree_ports(self, dpid: int) -> List[int]:
        """Fabric ports of ``dpid`` on a spanning tree (loop-free flooding)."""
        if dpid in self._tree_ports_cache:
            return self._tree_ports_cache[dpid]
        graph = self.topology_graph()
        ports: List[int] = []
        if dpid in graph:
            tree = nx.minimum_spanning_tree(graph)
            for neighbor in sorted(tree.neighbors(dpid)):
                port = graph[dpid][neighbor]["ports"].get(dpid)
                if port is not None:
                    ports.append(port)
        # Sorted: replicas that learned edges in a different order must
        # still flood along identical port sequences (shadow executions are
        # compared verbatim against the primary's PACKET_OUTs).
        ports.sort()
        self._tree_ports_cache[dpid] = ports
        return ports
