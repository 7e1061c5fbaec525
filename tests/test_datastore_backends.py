"""Tests for the Hazelcast-like and Infinispan-like consistency backends."""

from repro.datastore.caches import (
    edge_key,
    edge_value,
    flow_key,
    flow_value,
    host_key,
    host_value,
    switch_key,
    switch_value,
)
from repro.datastore.hazelcast import HazelcastCluster
from repro.datastore.infinispan import InfinispanCluster
from repro.openflow.actions import ActionOutput
from repro.openflow.match import Match
from repro.sim.simulator import Simulator


def test_hazelcast_write_is_cheap_regardless_of_cluster_size():
    sim = Simulator(seed=1)
    cluster = HazelcastCluster(sim)
    nodes = [cluster.create_node(f"c{i}") for i in range(7)]
    cost = nodes[0].put("X", "k", 1).cost_ms
    assert cost < 0.1


def test_hazelcast_is_eventually_consistent():
    sim = Simulator(seed=1)
    cluster = HazelcastCluster(sim)
    a = cluster.create_node("c1")
    b = cluster.create_node("c2")
    a.put("X", "k", 1)
    # Immediately after the write, the peer has not converged yet...
    assert b.get("X", "k") is None
    sim.run()
    # ...but it converges.
    assert b.get("X", "k") == 1


def test_infinispan_write_cost_scales_with_cluster_size():
    costs = {}
    for n in (1, 3, 7):
        sim = Simulator(seed=1)
        cluster = InfinispanCluster(sim)
        nodes = [cluster.create_node(f"c{i}") for i in range(n)]
        costs[n] = nodes[0].put("X", "k", 1).cost_ms
    assert costs[1] < costs[3] < costs[7]
    # Roughly linear: the n=7 cost is several times the n=1 cost.
    assert costs[7] > 4 * costs[1]


def test_infinispan_serializes_writes_cluster_wide():
    """Concurrent writes on different nodes queue on the global lock."""
    sim = Simulator(seed=1)
    cluster = InfinispanCluster(sim)
    a = cluster.create_node("c1")
    b = cluster.create_node("c2")
    cost_a = a.put("X", "ka", 1).cost_ms
    cost_b = b.put("X", "kb", 2).cost_ms  # same instant: must wait for a
    assert cost_b > cost_a


def test_infinispan_lock_frees_over_time():
    sim = Simulator(seed=1)
    cluster = InfinispanCluster(sim)
    a = cluster.create_node("c1")
    cluster.create_node("c2")
    first = a.put("X", "k1", 1).cost_ms
    sim.run(until=sim.now + 1000.0)
    second = a.put("X", "k2", 2).cost_ms
    # After the lock clears, the cost returns to the uncontended baseline.
    assert abs(second - first) < first


def test_hazelcast_flow_backup_station_is_shared_and_sized_by_n():
    sim = Simulator(seed=1)
    cluster = HazelcastCluster(sim)
    for i in range(7):
        cluster.create_node(f"c{i}")
    station = cluster.flow_backup_station()
    assert cluster.flow_backup_station() is station
    # Capacity in the ~5K/s range (Fig 4f saturation plateau).
    per_second = 1000.0 / station.service_time.mean()
    assert 4000 < per_second < 6000


def test_inter_controller_byte_accounting():
    sim = Simulator(seed=1)
    cluster = HazelcastCluster(sim)
    a = cluster.create_node("c1")
    cluster.create_node("c2")
    cluster.create_node("c3")
    before = cluster.counter.bytes
    a.put("X", "k", {"payload": 1})
    sim.run()
    # One write -> two peer deliveries counted.
    assert cluster.counter.bytes > before
    assert cluster.counter.messages == 2


def test_cache_key_value_helpers():
    match = Match.for_destination("bb")
    fk = flow_key(3, match, 50)
    assert fk[0] == "flow" and fk[1] == 3
    fv = flow_value(3, match, (ActionOutput(1),), 50)
    assert fv["state"] == "pending_add"
    assert fv["actions"] == (("output", 1),)

    ek = edge_key(1, 2, 3, 4)
    ev = edge_value(1, 2, 3, 4)
    assert ek == ("edge", 1, 2, 3, 4)
    assert ev["alive"] is True

    hk = host_key("aa")
    hv = host_value("aa", "10.0.0.1", 2, 3)
    assert hk == ("host", "aa")
    assert hv["dpid"] == 2

    sk = switch_key(9)
    sv = switch_value(9, (1, 2), "c1")
    assert sk == ("switch", 9)
    assert sv["master"] == "c1"


def test_in_order_delivery_per_origin():
    """Peers apply one origin's writes in write order (TCP-like)."""
    sim = Simulator(seed=4)
    cluster = HazelcastCluster(sim)
    a = cluster.create_node("c1")
    b = cluster.create_node("c2")
    applied = []
    b.add_listener(lambda n, e: applied.append(e.seq))
    for i in range(30):
        a.put("X", "k", i)
    sim.run()
    assert applied == sorted(applied)
