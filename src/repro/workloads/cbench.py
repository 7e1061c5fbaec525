"""Cbench-like controller benchmark (Fig 4e).

Cbench in throughput mode emulates switches that blast back-to-back
PACKET_INs as fast as the controller will take them. The paper observed that
this *overwhelms* ONOS: the TCP window closes ("zero window" at the
controller, "transmission window full" at the switch) and the FLOW_MOD
output collapses to zero rather than plateauing — which is why the paper
abandons Cbench for cluster-throughput measurements.

The driver injects synthetic PACKET_INs directly into a controller's
pipeline in blocking bursts and samples both rates over time so the bench
can reproduce the burst/collapse time series.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import List, Optional

from repro.controllers.base import Controller
from repro.datastore.caches import HOSTSDB, host_key, host_value
from repro.net.packet import tcp_packet
from repro.openflow.messages import PacketIn
from repro.sim.simulator import Simulator


@dataclass
class CbenchSample:
    """One sampling interval of the Cbench time series."""

    time_ms: float
    packet_in_rate_per_s: float
    flow_mod_rate_per_s: float


class CbenchDriver:
    """Blast bursts of PACKET_INs at one controller and sample throughput."""

    def __init__(
        self,
        sim: Simulator,
        controller: Controller,
        dpid: int = 9001,
        burst_size: int = 400,
        burst_gap_ms: float = 4.0,
        duration_ms: float = 50000.0,
        sample_interval_ms: float = 1000.0,
        fake_hosts: int = 64,
    ):
        self.sim = sim
        self.controller = controller
        self.dpid = dpid
        self.burst_size = burst_size
        self.burst_gap_ms = burst_gap_ms
        self.duration_ms = duration_ms
        self.sample_interval_ms = sample_interval_ms
        self.samples: List[CbenchSample] = []
        self._rng = sim.fork_rng("cbench")
        self._ports = itertools.count(20000)
        self._sent = 0
        self._last_sent = 0
        self._last_flow_mods = 0
        self._end_time: Optional[float] = None
        self._macs = [f"cb:00:00:00:{i // 256:02x}:{i % 256:02x}"
                      for i in range(fake_hosts)]
        self._seed_fake_hosts(fake_hosts)
        # The emulated switch is governed by the controller under test and
        # has no real datapath: reconciliation would never converge.
        if controller.cluster is not None:
            controller.cluster.mastership[dpid] = controller.id
        controller.profile.flow_reconcile_delay_ms = 0.0

    def _seed_fake_hosts(self, count: int) -> None:
        """Pre-populate HostsDB so every PACKET_IN elicits a FLOW_MOD.

        Cbench's emulated switch hosts are 'known' to the controller; an
        unknown destination would flood instead of installing a flow.
        """
        store = self.controller.store
        for index, mac in enumerate(self._macs):
            key = host_key(mac)
            cache = store.caches.setdefault(HOSTSDB, {})
            cache[key] = host_value(mac, f"192.168.{index // 256}.{index % 256}",
                                    self.dpid, 1 + index % 8)

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Begin bursting and sampling."""
        self._end_time = self.sim.now + self.duration_ms
        self.sim.schedule(0.0, self._burst)
        self.sim.schedule(self.sample_interval_ms, self._sample)

    def _burst(self) -> None:
        if self._end_time is None or self.sim.now >= self._end_time:
            return
        for _ in range(self.burst_size):
            src, dst = self._rng.sample(self._macs, 2)
            packet = tcp_packet(src, dst, "10.9.0.1", "10.9.0.2",
                                src_port=next(self._ports), dst_port=80)
            self.controller.ingress_packet_in(PacketIn(
                dpid=self.dpid, in_port=1, packet=packet))
            self._sent += 1
        self.sim.schedule(self.burst_gap_ms, self._burst)

    def _sample(self) -> None:
        interval_s = self.sample_interval_ms / 1000.0
        sent = self._sent - self._last_sent
        flow_mods = self.controller.flow_mods_sent - self._last_flow_mods
        self._last_sent = self._sent
        self._last_flow_mods = self.controller.flow_mods_sent
        self.samples.append(CbenchSample(
            time_ms=self.sim.now,
            packet_in_rate_per_s=sent / interval_s,
            flow_mod_rate_per_s=flow_mods / interval_s,
        ))
        if self._end_time is not None and self.sim.now < self._end_time:
            self.sim.schedule(self.sample_interval_ms, self._sample)
