"""Experiment container and measurement helpers.

:meth:`repro.api.Jury.experiment` assembles a simulator, topology,
controller cluster (ONOS- or ODL-like), optional JURY deployment, and
northbound API the way the paper's testbed does; :class:`Experiment` then
drives warmup/measurement windows and extracts the quantities the figures
plot — detection-time distributions, cluster FLOW_MOD/PACKET_IN/PACKET_OUT
rates, and byte-counter based network overheads. The old keyword seam
``build_experiment(...)`` was removed (PR 7) and now raises with the
replacement spelled out.

Every phase advances the simulator through :func:`_advance`, which raises
CPython's young-generation collector threshold to :data:`YOUNG` for the
duration of ``sim.run`` and restores the caller's thresholds afterwards
(docs/architecture.md, "The run loop and the collector").
"""

from __future__ import annotations

import gc
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.controllers.cluster import ControllerCluster
from repro.controllers.northbound import NorthboundApi
from repro.core.deployment import JuryDeployment
from repro.errors import WorkloadError
from repro.harness.metrics import percentile
from repro.net.topology import Topology
from repro.sim.simulator import Simulator

#: Young-generation collector threshold while an experiment's simulator
#: runs. In-flight simulation state (events, bound methods, responses) is
#: short-lived and cycle-free, so at CPython's default of 700 the collector
#: rescans it hundreds of times per simulated second and finds nothing.
YOUNG = 100_000


def _advance(sim: Simulator, until: float) -> None:
    """``sim.run(until=until)`` under the young threshold :data:`YOUNG`.

    Only the young threshold moves, and only upwards: a caller's higher
    threshold or 0 (automatic collection off) is kept, older generations'
    thresholds and ``gc.isenabled()`` are never touched, and the caller's
    exact thresholds come back even when a scheduled callback raises.
    """
    saved = gc.get_threshold()
    raise_young = 0 < saved[0] < YOUNG
    if raise_young:
        gc.set_threshold(YOUNG, *saved[1:])
    try:
        sim.run(until=until)
    finally:
        if raise_young:
            gc.set_threshold(*saved)


@dataclass
class DetectionStats:
    """Summary of the validator's detection-time distribution."""

    samples: List[float]
    timeouts: int

    @property
    def count(self) -> int:
        return len(self.samples)

    @property
    def median(self) -> float:
        return percentile(self.samples, 0.5) if self.samples else 0.0

    @property
    def p95(self) -> float:
        return percentile(self.samples, 0.95) if self.samples else 0.0

    @property
    def p99(self) -> float:
        return percentile(self.samples, 0.99) if self.samples else 0.0


@dataclass
class ThroughputPoint:
    """Measured cluster rates over one window."""

    window_ms: float
    packet_ins: int
    flow_mods: int
    packet_outs: int

    @property
    def packet_in_rate_per_s(self) -> float:
        return self.packet_ins * 1000.0 / self.window_ms

    @property
    def flow_mod_rate_per_s(self) -> float:
        return self.flow_mods * 1000.0 / self.window_ms

    @property
    def packet_out_rate_per_s(self) -> float:
        return self.packet_outs * 1000.0 / self.window_ms


class Experiment:
    """A wired-up cluster plus measurement utilities."""

    def __init__(self, sim: Simulator, topology: Topology,
                 cluster: ControllerCluster, store,
                 jury: Optional[JuryDeployment] = None,
                 northbound: Optional[NorthboundApi] = None):
        self.sim = sim
        self.topology = topology
        self.cluster = cluster
        self.store = store
        self.jury = jury
        self.northbound = northbound
        self._snapshot: Dict[str, int] = {}
        self._window_start = 0.0

    # ------------------------------------------------------------------
    # Phases
    # ------------------------------------------------------------------
    def warmup(self, discovery_ms: float = 2500.0, arp: bool = True) -> None:
        """Let topology discovery settle, then teach hosts to the cluster."""
        self.cluster.start()
        _advance(self.sim, self.sim.now + discovery_ms)
        if arp:
            hosts = self.topology.host_list()
            for index, host in enumerate(hosts):
                target = hosts[(index + 1) % len(hosts)]
                self.sim.schedule(index * 2.0, host.send_arp_request, target.ip)
            _advance(self.sim, self.sim.now + 2 * len(hosts) + 500.0)

    def begin_window(self) -> None:
        """Mark the start of a measurement window (snapshots counters)."""
        self._window_start = self.sim.now
        switches = self.topology.switches.values()
        self._snapshot = {
            "packet_ins": sum(s.packet_ins_sent for s in switches),
            "flow_mods": sum(s.flow_mods_received for s in switches),
            "packet_outs": sum(s.packet_outs_received for s in switches),
            "store_bytes": self.store.counter.bytes,
        }
        if self.jury is not None:
            self._snapshot["replication_bytes"] = self.jury.replication_counter.bytes
            self._snapshot["validator_bytes"] = self.jury.validator_counter.bytes

    def run(self, duration_ms: float) -> None:
        """Advance the simulation by ``duration_ms``."""
        _advance(self.sim, self.sim.now + duration_ms)

    @property
    def window_open(self) -> bool:
        """Has :meth:`begin_window` opened a window that time has run in?"""
        return bool(self._snapshot) and self.sim.now > self._window_start

    # ------------------------------------------------------------------
    # Measurements
    # ------------------------------------------------------------------
    def throughput(self) -> ThroughputPoint:
        """Cluster rates since :meth:`begin_window`."""
        if not self._snapshot:
            raise WorkloadError("call begin_window() before throughput()")
        window = self.sim.now - self._window_start
        if window <= 0:
            raise WorkloadError(
                f"throughput() over an empty window (begin_window() at "
                f"{self._window_start:g} ms, now {self.sim.now:g} ms): run "
                f"the simulation before measuring")
        switches = self.topology.switches.values()
        return ThroughputPoint(
            window_ms=window,
            packet_ins=sum(s.packet_ins_sent for s in switches)
            - self._snapshot["packet_ins"],
            flow_mods=sum(s.flow_mods_received for s in switches)
            - self._snapshot["flow_mods"],
            packet_outs=sum(s.packet_outs_received for s in switches)
            - self._snapshot["packet_outs"],
        )

    def overhead_mbps(self) -> Dict[str, float]:
        """Inter-controller and JURY traffic since :meth:`begin_window`."""
        if not self._snapshot:
            raise WorkloadError("call begin_window() before overhead_mbps()")
        window = self.sim.now - self._window_start
        if window <= 0:
            return {}
        def rate(total, key):
            return (total - self._snapshot.get(key, 0)) * 8.0 / (window * 1000.0)
        result = {"inter_controller": rate(self.store.counter.bytes, "store_bytes")}
        if self.jury is not None:
            result["replication"] = rate(
                self.jury.replication_counter.bytes, "replication_bytes")
            result["validator"] = rate(
                self.jury.validator_counter.bytes, "validator_bytes")
        return result

    def detection_stats(self, full_consensus_only: bool = True,
                        since_ms: Optional[float] = None) -> DetectionStats:
        """Detection-time distribution from the validator.

        ``full_consensus_only`` keeps triggers for which the complete
        ``2k+2`` response set arrived — the paper's "time taken to reach
        consensus on controller actions"; timer-bound decisions (triggers
        that externalized nothing) are excluded but counted.
        """
        if self.jury is None:
            raise WorkloadError("detection stats need a JURY deployment")
        if not self.jury.validator.keep_results:
            raise WorkloadError(
                "detection stats need the validator's results, and this "
                "deployment was built with keep_results=False")
        results = self.jury.validator.results
        if since_ms is not None:
            results = [r for r in results if r.decided_at >= since_ms]
        external = [r for r in results if r.external]
        if full_consensus_only:
            samples = [r.detection_ms for r in external if not r.timed_out]
        else:
            samples = [r.detection_ms for r in external]
        return DetectionStats(
            samples=samples,
            timeouts=sum(1 for r in external if r.timed_out))

    @property
    def validator(self):
        if self.jury is None:
            raise WorkloadError("no JURY deployment in this experiment")
        return self.jury.validator


def build_experiment(*args, **kwargs) -> Experiment:
    """Removed keyword seam; the config path replaced it (PR 7)."""
    from repro.errors import ValidationError
    raise ValidationError(
        "build_experiment(...) was removed; build a JuryConfig and call "
        "Jury.experiment(config) (or Jury.build(config) for the deployment)")
