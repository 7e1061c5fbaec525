"""Generic distributed-system failure classes (§III-B).

An SDN HA cluster is susceptible to crash (fail-stop), response omission,
timing, response (incorrect value), and arbitrary failures. JURY detects
all but pure crashes directly; crashes surface as response omissions.
These scenarios inject each class in controller-agnostic form.
"""

from __future__ import annotations

from repro.core.alarms import AlarmReason
from repro.datastore.caches import HOSTSDB
from repro.faults.base import FaultClass, FaultScenario
from repro.harness.experiment import Experiment


def _hosts_for_primary(experiment: Experiment, controller_id: str):
    """A (src, dst) host pair whose first-hop switch is mastered by
    ``controller_id`` — so the PACKET_IN's primary is the faulty node."""
    topology = experiment.topology
    hosts = topology.host_list()
    for src in hosts:
        dpid, _ = topology.host_location(src)
        if experiment.cluster.master_of(dpid) == controller_id:
            dst = next(h for h in hosts if h is not src)
            return src, dst
    return hosts[0], hosts[1]


class CrashFault(FaultScenario):
    """Fail-stop: the controller dies; its triggers elicit no responses.

    Reported as a response omission — "JURY ... can provide detection for
    all but crash failures, which would be reported as response omissions."
    """

    name = "crash"
    fault_class = FaultClass.T1
    expected_reasons = (AlarmReason.PRIMARY_OMISSION,)

    def __init__(self, faulty_controller: str = "c1"):
        self.faulty_controller = faulty_controller
        self.expected_offender = faulty_controller

    def inject(self, experiment: Experiment) -> None:
        controller = experiment.cluster.controller(self.faulty_controller)
        controller.alive = False  # crash without failover re-wiring: the
        # proxy still points at the dead primary, as right after a crash

    def trigger(self, experiment: Experiment) -> None:
        src, dst = _hosts_for_primary(experiment, self.faulty_controller)
        src.open_connection(dst)


class ResponseOmissionFault(FaultScenario):
    """The controller silently drops (some) trigger processing."""

    name = "response-omission"
    fault_class = FaultClass.T1
    expected_reasons = (AlarmReason.PRIMARY_OMISSION,)

    def __init__(self, faulty_controller: str = "c2"):
        self.faulty_controller = faulty_controller
        self.expected_offender = faulty_controller

    def inject(self, experiment: Experiment) -> None:
        controller = experiment.cluster.controller(self.faulty_controller)
        original = controller.ingress_packet_in

        def omitting_ingress(message, ctx=None):
            if ctx is None or not ctx.shadow:
                controller.packet_ins_received += 1
                return  # the response is omitted
            original(message, ctx=ctx)

        controller.ingress_packet_in = omitting_ingress

    def trigger(self, experiment: Experiment) -> None:
        src, dst = _hosts_for_primary(experiment, self.faulty_controller)
        src.open_connection(dst)


class TimingFault(FaultScenario):
    """The controller responds, but far too late (memory bloat, GC storms).

    Its responses miss the validation timeout; the decision fires on the
    timer with the primary's response absent.
    """

    name = "timing"
    fault_class = FaultClass.T1
    # The slow primary's cache event still replicates through the store (the
    # peers relay it), so what the validator misses at the timeout is the
    # primary's own relay and its network write: detection surfaces as a
    # consensus mismatch (replicas captured the FLOW_MOD the primary has not
    # yet emitted), a sanity mismatch, or a primary omission — whichever
    # response is latest past the deadline.
    expected_reasons = (AlarmReason.PRIMARY_OMISSION,
                        AlarmReason.SANITY_MISMATCH,
                        AlarmReason.CONSENSUS_MISMATCH)

    def __init__(self, faulty_controller: str = "c3", slowdown: float = 200.0):
        self.faulty_controller = faulty_controller
        self.slowdown = slowdown
        self.expected_offender = faulty_controller

    def inject(self, experiment: Experiment) -> None:
        controller = experiment.cluster.controller(self.faulty_controller)
        controller.profile.jitter_median_ms *= self.slowdown

    def trigger(self, experiment: Experiment) -> None:
        src, dst = _hosts_for_primary(experiment, self.faulty_controller)
        src.open_connection(dst)


class StoreDesyncFault(FaultScenario):
    """Cluster nodes out of sync (the intro's operational-fault examples:
    nodes desynchronize under load, fail to re-sync, display different data
    depending on which node is hit).

    The faulty replica stops applying remote store events, so its local
    caches freeze while the cluster moves on. Per-trigger consensus
    *deliberately* excuses a stale view (indistinguishable from transient
    asynchrony, §IV-C); the validator's per-controller state tracking —
    Algorithm 1's Ψid, extended with digest progress — catches the
    persistent lag and raises a STALE_REPLICA alarm.
    """

    name = "store-desync"
    fault_class = FaultClass.T1
    expected_reasons = (AlarmReason.STALE_REPLICA,)

    def __init__(self, faulty_controller: str = "c2",
                 staleness_threshold: int = 100):
        self.faulty_controller = faulty_controller
        self.staleness_threshold = staleness_threshold
        self.expected_offender = faulty_controller

    def inject(self, experiment: Experiment) -> None:
        node = experiment.cluster.controller(self.faulty_controller).store
        node.apply_remote = lambda event: None  # replication silently lost
        experiment.validator.staleness_threshold = self.staleness_threshold

    def trigger(self, experiment: Experiment) -> None:
        """Ordinary cluster traffic; the frozen replica's digest stalls."""
        from repro.workloads.traffic import TrafficDriver

        driver = TrafficDriver(
            experiment.sim, experiment.topology,
            packet_in_rate_per_s=1500.0, duration_ms=800.0,
            seed_label=f"desync/{self.faulty_controller}")
        driver.start()

    def settle_ms(self, experiment: Experiment) -> float:
        return 800.0 + 4.0 * experiment.validator.timeout.current() + 500.0


class ResponseCorruptionFault(FaultScenario):
    """Incorrect-value response: the controller writes corrupted entries.

    A host-location write is flipped to a wrong attachment point; shadow
    replicas write the correct one, and consensus flags the primary.
    """

    name = "response-corruption"
    fault_class = FaultClass.T1
    expected_reasons = (AlarmReason.CONSENSUS_MISMATCH,)

    def __init__(self, faulty_controller: str = "c1"):
        self.faulty_controller = faulty_controller
        self.expected_offender = faulty_controller

    def inject(self, experiment: Experiment) -> None:
        controller = experiment.cluster.controller(self.faulty_controller)
        original = controller.cache_write

        def corrupting_write(cache, key, value, ctx, op=None):
            if cache == HOSTSDB and not ctx.shadow and isinstance(value, dict):
                value = dict(value)
                value["port"] = value.get("port", 0) + 7  # wrong location
            original(cache, key, value, ctx, op=op)

        controller.cache_write = corrupting_write

    def trigger(self, experiment: Experiment) -> None:
        """A brand-new host ARPs: a host-discovery write at the primary."""
        topology = experiment.topology
        target_dpid = None
        for dpid, master in sorted(experiment.cluster.mastership.items()):
            if master == self.faulty_controller and dpid in topology.switches:
                target_dpid = dpid
                break
        host = topology.add_host(f"hx-{self.name}")
        topology.add_link(topology.switches[target_dpid], host)
        other = topology.host_list()[0]
        host.send_arp_request(other.ip)
