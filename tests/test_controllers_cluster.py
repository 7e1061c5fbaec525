"""Tests for the cluster manager: mastership, wiring, crash/failover."""

import pytest

from repro.controllers.cluster import ControllerCluster
from repro.controllers.odl import build_odl_cluster
from repro.controllers.onos import build_onos_cluster
from repro.errors import ClusterError
from repro.net.topology import linear_topology
from repro.sim.simulator import Simulator


def test_round_robin_mastership():
    sim = Simulator(seed=1)
    topo = linear_topology(sim, 6)
    cluster, _ = build_onos_cluster(sim, n=3)
    cluster.connect_topology(topo)
    masters = [cluster.master_of(d) for d in sorted(topo.switches)]
    assert masters == ["c1", "c2", "c3", "c1", "c2", "c3"]


def test_any_controller_one_master_connects_all(onos3):
    cluster, _ = onos3
    for controller in cluster.controllers.values():
        assert len(controller.connected_switches) == 4


def test_single_controller_mode_connects_only_master():
    sim = Simulator(seed=1)
    topo = linear_topology(sim, 4)
    cluster, _ = build_odl_cluster(sim, n=2)
    cluster.connect_topology(topo)
    cluster.start()
    sim.run(until=2000.0)
    c1 = cluster.controller("c1")
    c2 = cluster.controller("c2")
    assert c1.connected_switches == {1, 3}
    assert c2.connected_switches == {2, 4}


def test_crash_fails_over_mastership():
    sim = Simulator(seed=1)
    topo = linear_topology(sim, 4)
    cluster, _ = build_onos_cluster(sim, n=2)
    cluster.connect_topology(topo)
    assert cluster.master_of(1) == "c1"
    cluster.crash("c1")
    assert cluster.master_of(1) == "c2"
    assert cluster.proxy_of(1).primary_id == "c2"


def test_undetected_crash_keeps_mastership():
    """alive=False without cluster.crash(): the window JURY detects in."""
    sim = Simulator(seed=1)
    topo = linear_topology(sim, 2)
    cluster, _ = build_onos_cluster(sim, n=2)
    cluster.connect_topology(topo)
    cluster.controller("c1").alive = False
    assert cluster.master_of(1) == "c1"


def test_set_master_updates_proxy():
    sim = Simulator(seed=1)
    topo = linear_topology(sim, 2)
    cluster, _ = build_onos_cluster(sim, n=2)
    cluster.connect_topology(topo)
    cluster.set_master(1, "c2")
    assert cluster.master_of(1) == "c2"
    assert cluster.proxy_of(1).primary_id == "c2"


def test_set_master_unknown_controller_rejected():
    sim = Simulator(seed=1)
    cluster, _ = build_onos_cluster(sim, n=2)
    with pytest.raises(ClusterError):
        cluster.set_master(1, "c99")


def test_duplicate_controller_rejected():
    sim = Simulator(seed=1)
    cluster, store = build_onos_cluster(sim, n=2)
    from repro.controllers.onos import OnosController

    node = store.create_node("cx")
    dup = OnosController(sim, "c1", node)
    with pytest.raises(ClusterError):
        cluster.add_controller(dup)


def test_connect_topology_requires_controllers():
    sim = Simulator(seed=1)
    cluster = ControllerCluster(sim)
    with pytest.raises(ClusterError):
        cluster.connect_topology(linear_topology(sim, 2))


def test_election_id_registry():
    sim = Simulator(seed=1)
    cluster, _ = build_onos_cluster(sim, n=3)
    assert cluster.election_id_of("c2") == 2
    cluster.announce_election_id("c2", 42)
    assert cluster.election_id_of("c2") == 42


def test_reboot_announces_to_registry():
    sim = Simulator(seed=1)
    cluster, _ = build_onos_cluster(sim, n=2)
    controller = cluster.controller("c2")
    controller.crash()
    controller.reboot(election_id=0)
    assert cluster.election_id_of("c2") == 0


def test_wire_switch_at_runtime():
    sim = Simulator(seed=1)
    topo = linear_topology(sim, 2)
    cluster, _ = build_onos_cluster(sim, n=2)
    cluster.connect_topology(topo)
    cluster.start()
    sim.run(until=1000.0)
    new_switch = topo.add_switch(50)
    cluster.wire_switch(new_switch, master="c2")
    sim.run(until=2000.0)
    assert 50 in cluster.controller("c2").connected_switches
    assert cluster.master_of(50) == "c2"


def test_mastership_beacons_add_store_traffic(onos3):
    cluster, store = onos3
    before = store.counter.bytes
    cluster.sim.run(until=cluster.sim.now + 500.0)
    assert store.counter.bytes > before


def test_unknown_controller_lookup_raises():
    sim = Simulator(seed=1)
    cluster, _ = build_onos_cluster(sim, n=1)
    with pytest.raises(ClusterError):
        cluster.controller("c9")
    with pytest.raises(ClusterError):
        cluster.proxy_of(99)
