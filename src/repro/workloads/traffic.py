"""Paced connection traffic between random host pairs.

The driver targets a *cluster-wide PACKET_IN rate*: with per-switch reactive
forwarding, one fresh connection produces roughly one PACKET_IN per switch on
its path, so the connection arrival rate is the target rate divided by the
topology's mean path length. The harness reports the *measured* PACKET_IN
rate, which is what the paper's x-axes plot.

Optional churn reproduces the §VII-A controlled experiments: "random host
joins, link tear downs and flows between hosts".
"""

from __future__ import annotations

from typing import List, Optional

import networkx as nx

from repro.errors import WorkloadError
from repro.net.topology import Topology
from repro.sim.simulator import Simulator


def mean_fabric_path_length(topology: Topology) -> float:
    """Average switch-hop count between host attachment points."""
    graph = topology.switch_graph()
    if graph.number_of_nodes() <= 1:
        return 1.0
    total, pairs = 0, 0
    lengths = dict(nx.all_pairs_shortest_path_length(graph))
    for src, targets in lengths.items():
        for dst, hops in targets.items():
            if src != dst:
                total += hops + 1  # hops+1 switches on the path
                pairs += 1
    return (total / pairs) if pairs else 1.0


class TrafficDriver:
    """Poisson connection arrivals between random host pairs."""

    def __init__(
        self,
        sim: Simulator,
        topology: Topology,
        packet_in_rate_per_s: float,
        duration_ms: float,
        seed_label: str = "traffic",
        host_join_rate_per_s: float = 0.0,
        link_churn_rate_per_s: float = 0.0,
        rate_modulator=None,
        arp_fraction: float = 0.3,
    ):
        if packet_in_rate_per_s <= 0:
            raise WorkloadError("PACKET_IN rate must be positive")
        if duration_ms <= 0:
            raise WorkloadError("duration must be positive")
        self.sim = sim
        self.topology = topology
        self.duration_ms = duration_ms
        self.host_join_rate_per_s = host_join_rate_per_s
        self.link_churn_rate_per_s = link_churn_rate_per_s
        #: Optional callable (time_ms -> multiplier) shaping the rate.
        self.rate_modulator = rate_modulator
        self._rng = sim.fork_rng(seed_label)
        if not 0.0 <= arp_fraction <= 1.0:
            raise WorkloadError(f"arp_fraction must be in [0, 1]: {arp_fraction}")
        #: Fraction of events that are ARP refreshes (single PACKET_IN, no
        #: FLOW_MOD) — reproduces the paper's ~0.7 FLOW_MOD/PACKET_IN mix.
        self.arp_fraction = arp_fraction
        path = mean_fabric_path_length(topology)
        # A connection misses at every path switch (~path PACKET_INs); an ARP
        # refresh adds the request punt plus the reply's per-hop punts.
        pins_per_event = path + arp_fraction
        self.connection_rate_per_ms = packet_in_rate_per_s / 1000.0 / pins_per_event
        self.connections_opened = 0
        self.arps_sent = 0
        self.flow_ids: List[int] = []
        self._hosts = topology.host_list()
        self._end_time: Optional[float] = None
        self._started = False

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Begin generating traffic from the current simulated time."""
        if self._started:
            return
        self._started = True
        self._end_time = self.sim.now + self.duration_ms
        self.sim.schedule(self._next_gap(), self._open_connection)
        if self.host_join_rate_per_s > 0:
            self.sim.schedule(self._churn_gap(self.host_join_rate_per_s),
                              self._host_join)
        if self.link_churn_rate_per_s > 0:
            self.sim.schedule(self._churn_gap(self.link_churn_rate_per_s),
                              self._link_churn)

    def warmup_arp(self) -> None:
        """Each host ARPs its neighbour so controllers learn every location."""
        hosts = self._hosts
        for index, host in enumerate(hosts):
            target = hosts[(index + 1) % len(hosts)]
            self.sim.schedule(index * 2.0, host.send_arp_request, target.ip)

    # ------------------------------------------------------------------
    def _next_gap(self) -> float:
        rate = self.connection_rate_per_ms
        if self.rate_modulator is not None:
            rate *= max(1e-9, self.rate_modulator(self.sim.now))
        return self._rng.expovariate(rate)

    def _churn_gap(self, rate_per_s: float) -> float:
        return self._rng.expovariate(rate_per_s / 1000.0)

    def _open_connection(self) -> None:
        if self._end_time is None or self.sim.now >= self._end_time:
            return
        src, dst = self._rng.sample(self._hosts, 2)
        if self._rng.random() < self.arp_fraction:
            src.send_arp_request(dst.ip)
            self.arps_sent += 1
        else:
            self.flow_ids.append(src.open_connection(dst))
            self.connections_opened += 1
        self.sim.schedule(self._next_gap(), self._open_connection)

    def _host_join(self) -> None:
        """A 'new' host appears: an existing host re-ARPs (host discovery)."""
        if self._end_time is None or self.sim.now >= self._end_time:
            return
        src, dst = self._rng.sample(self._hosts, 2)
        src.send_arp_request(dst.ip)
        self.sim.schedule(self._churn_gap(self.host_join_rate_per_s),
                          self._host_join)

    def _link_churn(self) -> None:
        """Tear a random fabric link down and restore it shortly after."""
        if self._end_time is None or self.sim.now >= self._end_time:
            return
        fabric = [l for l in self.topology.links
                  if hasattr(l.node_a, "dpid") and hasattr(l.node_b, "dpid")
                  and l.up]
        if fabric:
            link = self._rng.choice(fabric)
            link.fail()
            self.sim.schedule(self._rng.uniform(50.0, 200.0), link.restore)
        self.sim.schedule(self._churn_gap(self.link_churn_rate_per_s),
                          self._link_churn)
