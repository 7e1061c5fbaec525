"""Tests for the datastore core: writes, events, locks, digests."""

import pytest

from repro.datastore.events import CacheEvent, CacheOp, cache_canonical
from repro.datastore.hazelcast import HazelcastCluster
from repro.errors import CacheLockError, DatastoreError
from repro.sim.simulator import Simulator


@pytest.fixture
def cluster():
    return HazelcastCluster(Simulator(seed=1))


def test_put_and_get(cluster):
    node = cluster.create_node("c1")
    node.put("FlowsDB", "k", {"v": 1})
    assert node.get("FlowsDB", "k") == {"v": 1}
    assert node.get("FlowsDB", "missing") is None
    assert node.get("FlowsDB", "missing", default=3) == 3


def test_create_vs_update_op(cluster):
    node = cluster.create_node("c1")
    first = node.put("FlowsDB", "k", 1)
    second = node.put("FlowsDB", "k", 2)
    assert first.event.op == CacheOp.CREATE
    assert second.event.op == CacheOp.UPDATE


def test_delete_removes_and_emits(cluster):
    node = cluster.create_node("c1")
    node.put("FlowsDB", "k", 1)
    result = node.delete("FlowsDB", "k")
    assert result.event.op == CacheOp.DELETE
    assert node.get("FlowsDB", "k") is None


def test_events_notify_local_listeners(cluster):
    node = cluster.create_node("c1")
    events = []
    node.add_listener(lambda n, e: events.append(e))
    node.put("HostsDB", "h", {"ip": "10.0.0.1"})
    assert len(events) == 1
    assert events[0].cache == "HostsDB"
    assert events[0].origin == "c1"


def test_event_sequence_numbers_monotonic(cluster):
    node = cluster.create_node("c1")
    seqs = [node.put("X", i, i).event.seq for i in range(5)]
    assert seqs == sorted(seqs)
    assert len(set(seqs)) == 5


def test_trigger_id_is_tau_or_internal_origin_seq(cluster):
    node = cluster.create_node("c1")
    event = node.put("X", "k", 1, tau=("ext", 9)).event
    assert event.trigger_id == ("ext", 9)
    untagged = node.put("X", "k2", 1).event
    assert untagged.trigger_id == ("int", "c1", untagged.seq)


def test_lock_manager_refusal(cluster):
    node = cluster.create_node("c1")
    node.lock_manager = lambda cache, key: cache != "SwitchesDB"
    node.put("FlowsDB", "k", 1)  # unaffected cache is fine
    with pytest.raises(CacheLockError):
        node.put("SwitchesDB", "s", 1)
    assert node.get("SwitchesDB", "s") is None


def test_duplicate_node_rejected(cluster):
    cluster.create_node("c1")
    with pytest.raises(DatastoreError):
        cluster.create_node("c1")


def test_state_digest_tracks_applied_seqs(cluster):
    sim = cluster.sim
    a = cluster.create_node("c1")
    b = cluster.create_node("c2")
    a.put("X", "k", 1)
    assert dict(a.state_digest())["c1"] == 1
    assert "c1" not in dict(b.state_digest())  # not yet propagated
    sim.run()
    assert dict(b.state_digest())["c1"] == 1


def test_digests_equal_after_convergence(cluster):
    sim = cluster.sim
    nodes = [cluster.create_node(f"c{i}") for i in range(3)]
    for i, node in enumerate(nodes):
        node.put("X", i, i)
    sim.run()
    digests = {node.state_digest() for node in nodes}
    assert len(digests) == 1


def test_cache_canonical_consistency(cluster):
    """A captured (shadow) write must compare equal to the real event."""
    node = cluster.create_node("c1")
    value = {"dpid": 1, "state": "pending_add"}
    event = node.put("FlowsDB", ("flow", 1), value).event
    captured = cache_canonical("FlowsDB", ("flow", 1), CacheOp.CREATE, value)
    assert event.canonical() == captured


def test_canonical_value_handles_nested_structures():
    event = CacheEvent(cache="X", key=("k",), value={"a": [1, 2], "b": {"c": 3}},
                       op=CacheOp.CREATE, origin="c1", seq=1, time=0.0)
    canonical = event.canonical()
    assert isinstance(canonical, tuple)
    # Deterministic regardless of dict ordering.
    event2 = CacheEvent(cache="X", key=("k",), value={"b": {"c": 3}, "a": [1, 2]},
                        op=CacheOp.CREATE, origin="c1", seq=2, time=0.0)
    assert canonical == event2.canonical()


def test_wire_size_estimates(cluster):
    node = cluster.create_node("c1")
    small = node.put("X", "k", None).event
    big = node.put("X", "k2", {"data": "x" * 600}).event
    assert small.wire_size() < big.wire_size()
    assert big.wire_size() <= 96 + 512  # capped


def test_remove_node_stops_delivery(cluster):
    sim = cluster.sim
    a = cluster.create_node("c1")
    b = cluster.create_node("c2")
    cluster.remove_node("c2")
    a.put("X", "k", 1)
    sim.run()
    assert b.get("X", "k") is None
