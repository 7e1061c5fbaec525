"""Tests for controller applications: topology discovery, host tracking,
reactive and proactive forwarding."""

from repro.controllers.odl import build_odl_cluster
from repro.controllers.onos import build_onos_cluster
from repro.controllers.profile import odl_profile
from repro.datastore.caches import EDGESDB, FLOWSDB, HOSTSDB
from repro.net.topology import linear_topology
from repro.openflow.constants import FlowState
from repro.sim.simulator import Simulator


def settled_onos(n_switches=4, n=3, seed=9):
    sim = Simulator(seed=seed)
    topo = linear_topology(sim, n_switches)
    cluster, store = build_onos_cluster(sim, n=n)
    cluster.connect_topology(topo)
    cluster.start()
    sim.run(until=2500.0)
    return sim, topo, cluster


def learn_hosts(sim, topo):
    hosts = topo.host_list()
    for index, host in enumerate(hosts):
        target = hosts[(index + 1) % len(hosts)]
        sim.schedule(index * 2.0, host.send_arp_request, target.ip)
    sim.run(until=sim.now + 2 * len(hosts) + 500.0)


# ----------------------------------------------------------------------
# Topology discovery
# ----------------------------------------------------------------------

def test_lldp_discovers_all_links():
    sim, topo, cluster = settled_onos()
    c1 = cluster.controller("c1")
    graph = c1.app("topology").topology_graph()
    truth = topo.switch_graph()
    assert ({frozenset(e) for e in graph.edges()}
            == {frozenset(e) for e in truth.edges()})


def test_topology_view_converges_across_replicas():
    sim, topo, cluster = settled_onos()
    graphs = [{frozenset(e) for e in c.app("topology").topology_graph().edges()}
              for c in cluster.controllers.values()]
    assert all(g == graphs[0] for g in graphs)


def test_next_hop_follows_chain():
    sim, topo, cluster = settled_onos()
    app = cluster.controller("c1").app("topology")
    # In a chain 1-2-3-4, next hop from 1 to 4 is toward 2.
    port = app.next_hop_port(1, 4)
    assert port is not None
    graph = app.topology_graph()
    assert graph[1][2]["ports"][1] == port


def test_next_hop_unknown_destination():
    sim, topo, cluster = settled_onos()
    app = cluster.controller("c1").app("topology")
    assert app.next_hop_port(1, 99) is None


def test_liveness_marks_dead_link():
    sim, topo, cluster = settled_onos()
    topo.fail_link(2, 3)
    # Wait for three missed LLDP rounds plus a liveness sweep.
    sim.run(until=sim.now + 8000.0)
    c1 = cluster.controller("c1")
    edges = c1.store.entries(EDGESDB)
    dead = [v for v in edges.values()
            if {v["src"][0], v["dst"][0]} == {2, 3} and not v["alive"]]
    assert dead


def test_graph_cache_invalidated_on_change():
    sim, topo, cluster = settled_onos()
    app = cluster.controller("c1").app("topology")
    graph_before = app.topology_graph()
    assert app.topology_graph() is graph_before  # cached
    topo.fail_link(1, 2)
    sim.run(until=sim.now + 8000.0)
    assert app.topology_graph() is not graph_before


def test_spanning_tree_is_loop_free():
    sim, topo, cluster = settled_onos(n_switches=4)
    app = cluster.controller("c1").app("topology")
    total_tree_ports = sum(len(app.spanning_tree_ports(d)) for d in topo.switches)
    # Tree over 4 nodes: 3 edges = 6 port endpoints.
    assert total_tree_ports == 6


# ----------------------------------------------------------------------
# Host tracking
# ----------------------------------------------------------------------

def test_hosts_learned_at_edge_ports_only():
    sim, topo, cluster = settled_onos()
    learn_hosts(sim, topo)
    c1 = cluster.controller("c1")
    hosts = c1.store.entries(HOSTSDB)
    assert len(hosts) == 4
    for host in topo.host_list():
        dpid, port = topo.host_location(host)
        entry = hosts[("host", host.mac)]
        assert (entry["dpid"], entry["port"]) == (dpid, port)


def test_rearp_does_not_rewrite_cache():
    sim, topo, cluster = settled_onos()
    learn_hosts(sim, topo)
    c1 = cluster.controller("c1")
    topo.hosts["h1"].send_arp_request(topo.hosts["h2"].ip)
    sim.run(until=sim.now + 300.0)
    # Host locations unchanged: no HostsDB writes (LLDP edges may still
    # rewrite, so compare HostsDB contents instead of write counters).
    assert len(c1.store.entries(HOSTSDB)) == 4


def test_arp_reaches_target_and_reply_returns():
    sim, topo, cluster = settled_onos()
    learn_hosts(sim, topo)
    h1 = topo.hosts["h1"]
    replies_before = len(h1.received)
    h1.send_arp_request(topo.hosts["h4"].ip)
    sim.run(until=sim.now + 500.0)
    assert len(h1.received) > replies_before  # got the ARP reply


# ----------------------------------------------------------------------
# Reactive forwarding
# ----------------------------------------------------------------------

def test_end_to_end_delivery_installs_flows():
    sim, topo, cluster = settled_onos()
    learn_hosts(sim, topo)
    h1, h4 = topo.hosts["h1"], topo.hosts["h4"]
    flow_id = h1.open_connection(h4)
    sim.run(until=sim.now + 1000.0)
    assert h4.received_by_flow.get(flow_id) == 1
    # A rule on every path switch.
    for dpid in (1, 2, 3, 4):
        assert len(topo.switches[dpid].table) >= 1


def test_second_connection_also_delivered():
    sim, topo, cluster = settled_onos()
    learn_hosts(sim, topo)
    h1, h4 = topo.hosts["h1"], topo.hosts["h4"]
    h1.open_connection(h4)
    sim.run(until=sim.now + 800.0)
    flow_id = h1.open_connection(h4)
    sim.run(until=sim.now + 800.0)
    assert h4.received_by_flow.get(flow_id) == 1


def test_flow_rules_promoted_to_added():
    sim, topo, cluster = settled_onos()
    learn_hosts(sim, topo)
    h1, h2 = topo.hosts["h1"], topo.hosts["h2"]
    h1.open_connection(h2)
    sim.run(until=sim.now + 1000.0)
    c1 = cluster.controller("c1")
    states = {v["state"] for v in c1.store.entries(FLOWSDB).values()}
    assert FlowState.ADDED.value in states
    assert FlowState.PENDING_ADD.value not in states


def test_unknown_destination_floods():
    sim, topo, cluster = settled_onos()
    learn_hosts(sim, topo)
    h1 = topo.hosts["h1"]
    from repro.net.packet import tcp_packet

    # A destination MAC no controller knows.
    h1.send(tcp_packet(h1.mac, "de:ad:be:ef:00:01", h1.ip, "10.9.9.9", 1, 2))
    sim.run(until=sim.now + 500.0)
    forwarding = cluster.controller("c1").app("forwarding")
    assert forwarding.floods >= 1


def test_remote_flow_install_via_cache():
    """A flow written by a non-master is emitted by the remote master."""
    sim, topo, cluster = settled_onos()
    learn_hosts(sim, topo)
    c1 = cluster.controller("c1")
    target_dpid = 2  # mastered by c2
    from repro.openflow.actions import ActionOutput
    from repro.openflow.match import Match

    match = Match.for_destination("11:22:33:44:55:66")
    c1.run_internal(
        "remote-install",
        lambda ctx: c1.app("forwarding").install_flow(
            target_dpid, match, (ActionOutput(1),), ctx, priority=90))
    sim.run(until=sim.now + 500.0)
    installed = topo.switches[target_dpid].table.find(match, 90)
    assert installed is not None
    c2 = cluster.controller("c2")
    assert c2.flow_mods_sent >= 1


def test_rest_delete_flow_removes_rule():
    sim, topo, cluster = settled_onos()
    learn_hosts(sim, topo)
    from repro.controllers.northbound import NorthboundApi
    from repro.openflow.actions import ActionOutput
    from repro.openflow.match import Match

    api = NorthboundApi(cluster)
    match = Match.for_destination("77:88:99:aa:bb:cc")
    api.add_flow("c1", 1, match, (ActionOutput(1),), priority=70)
    sim.run(until=sim.now + 300.0)
    assert topo.switches[1].table.find(match, 70) is not None
    api.delete_flow("c1", 1, match, priority=70)
    sim.run(until=sim.now + 300.0)
    assert topo.switches[1].table.find(match, 70) is None


# ----------------------------------------------------------------------
# Proactive forwarding (vanilla ODL)
# ----------------------------------------------------------------------

def test_proactive_odl_installs_dst_rules_on_discovery():
    sim = Simulator(seed=9)
    topo = linear_topology(sim, 4)
    cluster, _ = build_odl_cluster(sim, n=1,
                                   profile=odl_profile(proactive=True))
    cluster.connect_topology(topo)
    cluster.start()
    sim.run(until=2500.0)
    learn_hosts(sim, topo)
    sim.run(until=sim.now + 2000.0)
    # Destination-based rules exist on switches toward each host.
    total_rules = sum(len(s.table) for s in topo.switches.values())
    assert total_rules >= 4


def test_proactive_odl_data_traffic_avoids_packet_ins():
    sim = Simulator(seed=9)
    topo = linear_topology(sim, 4)
    cluster, _ = build_odl_cluster(sim, n=1,
                                   profile=odl_profile(proactive=True))
    cluster.connect_topology(topo)
    cluster.start()
    sim.run(until=2500.0)
    learn_hosts(sim, topo)
    sim.run(until=sim.now + 2000.0)
    controller = cluster.controller("c1")
    pins_before = controller.packet_ins_received
    h1, h4 = topo.hosts["h1"], topo.hosts["h4"]
    flow_id = h1.open_connection(h4)
    sim.run(until=sim.now + 500.0)
    assert h4.received_by_flow.get(flow_id) == 1
    # "The controller does not get any PACKET_IN events" (footnote 3) —
    # aside from periodic LLDP probes.
    data_pins = controller.packet_ins_received - pins_before
    lldp_pins = sum(
        1 for s in topo.switches.values() if s.packet_ins_sent) * 3
    assert data_pins <= lldp_pins
