"""Tests for the workload generators."""

import pytest

from repro.errors import WorkloadError
from repro.api import Jury
from repro.config import JuryConfig
from repro.workloads.cbench import CbenchDriver
from repro.workloads.tcpreplay import TcpReplayDriver
from repro.workloads.traces import ALL_TRACES, LBNL, SMIA, UNIV, TraceReplayDriver
from repro.workloads.traffic import TrafficDriver, mean_fabric_path_length


def warm(kind="onos", n=3, switches=8, seed=31, k=None):
    exp = Jury.experiment(JuryConfig(kind=kind, n=n, k=k, switches=switches, seed=seed, timeout_ms=200.0))
    exp.warmup()
    return exp


def test_mean_fabric_path_length_linear():
    exp = warm(switches=4)
    # Chain of 4: average over pairs of (hops+1) switches.
    value = mean_fabric_path_length(exp.topology)
    assert 2.0 < value < 4.0


def test_driver_hits_target_rate_roughly():
    exp = warm(switches=8)
    driver = TrafficDriver(exp.sim, exp.topology,
                           packet_in_rate_per_s=2000, duration_ms=1000)
    driver.start()
    exp.begin_window()
    exp.run(1000)
    measured = exp.throughput().packet_in_rate_per_s
    assert 1200 < measured < 3000  # within ~50% of target


def test_driver_stops_at_duration():
    exp = warm(switches=4)
    driver = TrafficDriver(exp.sim, exp.topology,
                           packet_in_rate_per_s=500, duration_ms=300)
    driver.start()
    exp.run(300)
    opened = driver.connections_opened
    exp.run(1000)
    assert driver.connections_opened == opened


def test_driver_arp_fraction_mixes_triggers():
    exp = warm(switches=8)
    driver = TrafficDriver(exp.sim, exp.topology, packet_in_rate_per_s=2000,
                           duration_ms=800, arp_fraction=0.5)
    driver.start()
    exp.run(1000)
    assert driver.arps_sent > 0
    assert driver.connections_opened > 0
    ratio = driver.arps_sent / (driver.arps_sent + driver.connections_opened)
    assert 0.3 < ratio < 0.7


def test_flow_mod_ratio_below_one_with_arp_mix():
    exp = warm(switches=8)
    driver = TrafficDriver(exp.sim, exp.topology, packet_in_rate_per_s=2000,
                           duration_ms=1000, arp_fraction=0.3)
    driver.start()
    exp.begin_window()
    exp.run(1200)
    point = exp.throughput()
    assert point.flow_mods < point.packet_ins


def test_invalid_parameters_rejected():
    exp = warm(switches=4)
    with pytest.raises(WorkloadError):
        TrafficDriver(exp.sim, exp.topology, packet_in_rate_per_s=0,
                      duration_ms=100)
    with pytest.raises(WorkloadError):
        TrafficDriver(exp.sim, exp.topology, packet_in_rate_per_s=100,
                      duration_ms=0)
    with pytest.raises(WorkloadError):
        TrafficDriver(exp.sim, exp.topology, packet_in_rate_per_s=100,
                      duration_ms=100, arp_fraction=1.5)


def test_link_churn_fails_and_restores_links():
    exp = warm(switches=8)
    driver = TrafficDriver(exp.sim, exp.topology, packet_in_rate_per_s=500,
                           duration_ms=2000, link_churn_rate_per_s=20.0)
    driver.start()
    exp.run(2500)
    # All links restored by the end (restore scheduled <=200 ms after fail).
    assert all(l.up for l in exp.topology.links)


def test_tcpreplay_defaults_to_ten_seconds():
    exp = warm(switches=4)
    driver = TcpReplayDriver(exp.sim, exp.topology, packet_in_rate_per_s=100)
    assert driver.duration_ms == 10000.0


def test_cbench_overwhelms_and_collapses():
    exp = Jury.experiment(JuryConfig(kind="onos", n=1, switches=2, seed=32,
                           profile_overrides=(("collapse_threshold", 500),), k=None, timeout_ms=200.0))
    exp.warmup()
    controller = exp.cluster.controller("c1")
    driver = CbenchDriver(exp.sim, controller, burst_size=400,
                          burst_gap_ms=3.0, duration_ms=8000.0,
                          sample_interval_ms=500.0)
    driver.start()
    exp.run(9000.0)
    rates = [s.flow_mod_rate_per_s for s in driver.samples]
    assert max(rates) > 0  # produced FLOW_MODs initially
    assert rates[-1] == 0.0  # and collapsed to zero
    assert controller.pipeline.stats.stalled_drops > 0


def test_cbench_seeds_hosts_so_flow_mods_flow():
    exp = Jury.experiment(JuryConfig(kind="onos", n=1, switches=2, seed=33, k=None, timeout_ms=200.0))
    exp.warmup()
    controller = exp.cluster.controller("c1")
    driver = CbenchDriver(exp.sim, controller, burst_size=10,
                          burst_gap_ms=100.0, duration_ms=500.0)
    driver.start()
    exp.run(1000.0)
    assert controller.flow_mods_sent > 0


def test_trace_profiles_have_increasing_intensity():
    assert LBNL.packet_in_rate_per_s < UNIV.packet_in_rate_per_s
    assert UNIV.packet_in_rate_per_s < SMIA.packet_in_rate_per_s
    assert LBNL.burstiness < SMIA.burstiness
    assert len(ALL_TRACES) == 3


def test_trace_replay_modulates_rate():
    exp = warm(switches=8)
    driver = TraceReplayDriver(exp.sim, exp.topology, SMIA, duration_ms=1000)
    assert driver._modulate(0.0) == pytest.approx(1.0)
    values = [driver._modulate(t) for t in range(0, 800, 50)]
    assert max(values) > 1.5
    assert min(values) < 0.5


def test_trace_replay_generates_traffic():
    exp = warm(switches=8)
    driver = TraceReplayDriver(exp.sim, exp.topology, LBNL, duration_ms=500)
    driver.start()
    exp.begin_window()
    exp.run(600)
    assert exp.throughput().packet_ins > 0


def corrupt_flow_writes(controller) -> None:
    """Arm a response-corruption fault: every flow rule ``controller``
    writes to the shared cache gets its actions flipped to drop-all."""
    original = controller.cache_write

    def corrupting(cache, key, value, ctx, op=None):
        if (cache == "FlowsDB" and not ctx.shadow and isinstance(value, dict)
                and value.get("state") == "pending_add"):
            value = dict(value)
            value["actions"] = (("drop",),)
        original(cache, key, value, ctx, op=op)

    controller.cache_write = corrupting


def _seeded_traffic_run(faulty):
    """One seeded run under the same driver; returns what the driver asked
    the hosts to send, as ``(time, source host, destination)``, and the
    validator."""
    exp = Jury.experiment(JuryConfig(kind="onos", n=5, k=4, switches=8,
                                     seed=300, timeout_ms=250.0))
    exp.warmup()
    if faulty:
        corrupt_flow_writes(exp.cluster.controller("c1"))
    asked = []
    for host in exp.topology.host_list():
        def arp(dst_ip, host=host, send=host.send_arp_request):
            asked.append((exp.sim.now, host.name, dst_ip))
            return send(dst_ip)

        def connect(dst, dst_port=80, host=host, send=host.open_connection):
            asked.append((exp.sim.now, host.name, dst.name))
            return send(dst, dst_port)

        host.send_arp_request, host.open_connection = arp, connect
    TrafficDriver(exp.sim, exp.topology, packet_in_rate_per_s=1200.0,
                  duration_ms=800.0).start()
    exp.run(1400.0)
    return asked, exp.validator


def test_seeded_workload_does_not_depend_on_the_fault():
    """Two runs with one seed get the same workload whatever the
    controllers do, so every alarm of the faulty run is the fault's."""
    healthy_asked, healthy = _seeded_traffic_run(faulty=False)
    faulty_asked, faulty = _seeded_traffic_run(faulty=True)
    assert healthy_asked and healthy_asked == faulty_asked
    assert healthy.triggers_alarmed == 0
    assert any(alarm.offending_controller == "c1" for alarm in faulty.alarms)
