"""Tests for trigger contexts and taints."""

from repro.controllers.context import (
    Taint,
    TriggerContext,
    external_trigger_id,
    internal_trigger_id,
)
from repro.sim.simulator import Simulator


def test_external_trigger_ids_unique():
    sim = Simulator()
    a = TriggerContext.external_trigger(external_trigger_id(sim))
    b = TriggerContext.external_trigger(external_trigger_id(sim))
    assert (a.trigger_id, b.trigger_id) == (("ext", 1), ("ext", 2))
    assert a.external and not a.shadow
    # Each simulator numbers its own experiment's ids from 1.
    assert external_trigger_id(Simulator()) == ("ext", 1)


def test_external_trigger_honors_preassigned_id():
    ctx = TriggerContext.external_trigger(("ext", 42))
    assert ctx.trigger_id == ("ext", 42)


def test_internal_trigger_carries_controller_id():
    sim = Simulator()
    ctx = TriggerContext.internal_trigger(internal_trigger_id(sim, "c3"))
    assert ctx.trigger_id == ("int", "c3", 1)
    # One sequence for every controller's internal ids, apart from τ's.
    assert internal_trigger_id(sim, "c1") == ("int", "c1", 2)
    assert external_trigger_id(sim) == ("ext", 1)
    assert not ctx.external


def test_replica_context_is_shadow_and_tainted():
    taint = Taint(trigger_id=("ext", 7), primary_id="c1")
    ctx = TriggerContext.replica_of(taint, received_at=5.0)
    assert ctx.shadow
    assert ctx.tainted
    assert ctx.trigger_id == ("ext", 7)
    assert ctx.received_at == 5.0


def test_capture_and_combined_canonical():
    taint = Taint(trigger_id=("ext", 8), primary_id="c1")
    ctx = TriggerContext.replica_of(taint)
    ctx.capture_cache(("cache", "X", "k", "create", 1))
    ctx.capture_network(("flow_mod", 1, "add", (), (), 100))
    ctx.capture_network(("packet_out", 1, None, ()))
    cache_part, network_part = ctx.combined_canonical()
    assert len(cache_part) == 1
    assert len(network_part) == 2


def test_combined_canonical_order_insensitive():
    taint = Taint(trigger_id=("ext", 9), primary_id="c1")
    a = TriggerContext.replica_of(taint)
    b = TriggerContext.replica_of(taint)
    items = [("flow_mod", 2, "add", (), (), 1), ("packet_out", 1, None, ())]
    a.capture_network(items[0])
    a.capture_network(items[1])
    b.capture_network(items[1])
    b.capture_network(items[0])
    assert a.combined_canonical() == b.combined_canonical()


def test_taint_is_hashable_and_printable():
    taint = Taint(trigger_id=("ext", 1), primary_id="c1")
    assert {taint: 1}[taint] == 1
    assert "c1" in str(taint)


def test_pending_cost_accumulates():
    ctx = TriggerContext.external_trigger(("ext", 1))
    assert ctx.pending_cost == 0.0
    ctx.pending_cost += 1.5
    ctx.pending_cost += 0.5
    assert ctx.pending_cost == 2.0
