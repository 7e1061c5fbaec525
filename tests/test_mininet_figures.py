"""Tests for the Mininet-like builder."""

import pytest

from repro.errors import TopologyError
from repro.net.mininet import MininetBuilder, single_topology, tree_topology
from repro.sim.simulator import Simulator


def test_builder_constructs_custom_topology():
    sim = Simulator(seed=1)
    net = MininetBuilder(sim)
    s1, s2 = net.switch(), net.switch()
    h1, h2 = net.host(), net.host()
    net.link(s1, s2)
    net.link(h1, s1)
    net.link(h2, s2)
    topo = net.build()
    assert len(topo.switches) == 2
    assert len(topo.hosts) == 2
    assert topo.switch_graph().has_edge(s1.dpid, s2.dpid)


def test_builder_auto_names_hosts():
    net = MininetBuilder(Simulator())
    s = net.switch()
    h1, h2 = net.host(), net.host()
    assert h1.name == "h1"
    assert h2.name == "h2"
    net.link(h1, s)
    net.link(h2, s)
    net.build()


def test_builder_rejects_unattached_host():
    net = MininetBuilder(Simulator())
    net.host()
    with pytest.raises(TopologyError):
        net.build()


def test_builder_closed_after_build():
    net = MininetBuilder(Simulator())
    net.switch()
    net.build()
    with pytest.raises(TopologyError):
        net.switch()


def test_single_topology():
    topo = single_topology(Simulator(), hosts=4)
    assert len(topo.switches) == 1
    assert len(topo.hosts) == 4


def test_tree_topology():
    topo = tree_topology(Simulator(), depth=2, fanout=2)
    # depth-2 binary tree: 1 + 2 switches, 4 leaf hosts.
    assert len(topo.switches) == 3
    assert len(topo.hosts) == 4
    import networkx as nx

    assert nx.is_tree(topo.switch_graph())


def test_tree_topology_validates_params():
    with pytest.raises(TopologyError):
        tree_topology(Simulator(), depth=0)


def test_tree_topology_forwarding_end_to_end():
    from repro.controllers.onos import build_onos_cluster

    sim = Simulator(seed=9)
    topo = tree_topology(sim, depth=2, fanout=2)
    cluster, _ = build_onos_cluster(sim, n=2)
    cluster.connect_topology(topo)
    cluster.start()
    sim.run(until=2500.0)
    hosts = topo.host_list()
    hosts[0].send_arp_request(hosts[-1].ip)
    sim.run(until=sim.now + 500.0)
    flow_id = hosts[0].open_connection(hosts[-1])
    sim.run(until=sim.now + 1000.0)
    assert hosts[-1].received_by_flow.get(flow_id) == 1

