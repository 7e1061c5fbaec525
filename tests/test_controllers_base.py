"""Tests for the controller base: triggers, side-effects, shadow mode."""

import pytest

from repro.controllers.context import Taint, TriggerContext
from repro.controllers.onos import OnosController
from repro.datastore.caches import SWITCHESDB
from repro.datastore.hazelcast import HazelcastCluster
from repro.openflow.actions import ActionOutput
from repro.openflow.match import Match
from repro.openflow.messages import FeaturesReply, FlowMod, PacketOut
from repro.sim.simulator import Simulator


@pytest.fixture
def controller():
    sim = Simulator(seed=5)
    store = HazelcastCluster(sim)
    node = store.create_node("c1")
    return OnosController(sim, "c1", node)


def test_cache_write_lands_in_store(controller):
    ctx = TriggerContext.external_trigger()
    controller.cache_write("X", "k", 1, ctx=ctx)
    assert controller.store.get("X", "k") == 1
    assert ctx.pending_cost > 0


def test_cache_write_tags_trigger(controller):
    ctx = TriggerContext.external_trigger()
    events = []
    controller.store.add_listener(lambda n, e: events.append(e))
    controller.cache_write("X", "k", 1, ctx=ctx)
    assert events[0].tau == ctx.trigger_id


def test_shadow_cache_write_is_captured_not_applied(controller):
    taint = Taint(trigger_id=("ext", 1), primary_id="c9")
    ctx = TriggerContext.replica_of(taint)
    controller.cache_write("X", "k", 1, ctx=ctx)
    assert controller.store.get("X", "k") is None
    assert len(ctx.captured_cache) == 1


def test_shadow_network_write_is_captured_not_sent(controller):
    taint = Taint(trigger_id=("ext", 1), primary_id="c9")
    ctx = TriggerContext.replica_of(taint)
    controller.send_flow_mod(FlowMod(dpid=1, match=Match(),
                                     actions=(ActionOutput(1),)), ctx)
    controller.send_packet_out(PacketOut(dpid=1), ctx)
    controller.sim.run()
    assert controller.flow_mods_sent == 0
    assert controller.packet_outs_sent == 0
    assert len(ctx.captured_network) == 2


def test_cache_delete_shadow_aware(controller):
    real_ctx = TriggerContext.external_trigger()
    controller.cache_write("X", "k", 1, ctx=real_ctx)
    taint = Taint(trigger_id=("ext", 2), primary_id="c9")
    shadow = TriggerContext.replica_of(taint)
    controller.cache_delete("X", "k", ctx=shadow)
    assert controller.store.get("X", "k") == 1  # suppressed
    controller.cache_delete("X", "k", ctx=real_ctx)
    assert controller.store.get("X", "k") is None


def test_egress_drop_probability(controller):
    controller.egress_drop_prob = 1.0
    ctx = TriggerContext.external_trigger()
    controller.send_flow_mod(FlowMod(dpid=1, match=Match(), actions=()), ctx)
    controller.sim.run()
    assert controller.flow_mods_sent == 0
    assert controller.flow_mods_dropped_egress == 1


def test_network_tap_sees_emissions(controller):
    records = []
    controller.network_tap = records.append
    ctx = TriggerContext.external_trigger()
    controller.send_packet_out(PacketOut(dpid=1), ctx)
    assert len(records) == 1
    assert records[0].tau == ctx.trigger_id
    assert records[0].controller_id == "c1"


def test_run_internal_creates_internal_trigger(controller):
    seen = []
    controller.trigger_done_hook = seen.append
    ctx = controller.run_internal("test", lambda c: None)
    assert not ctx.external
    assert ctx.trigger_id[0] == "int"
    assert seen == [ctx]


def test_effective_id_impersonates_primary(controller):
    taint = Taint(trigger_id=("ext", 1), primary_id="c9")
    shadow = TriggerContext.replica_of(taint)
    normal = TriggerContext.external_trigger()
    assert controller.effective_id(shadow) == "c9"
    assert controller.effective_id(normal) == "c1"


def test_crash_stops_processing(controller):
    controller.crash()
    assert not controller.alive
    from repro.openflow.messages import PacketIn

    controller.ingress_packet_in(PacketIn(dpid=1, in_port=1))
    assert controller.packet_ins_received == 0


def test_reboot_with_new_election_id(controller):
    controller.crash()
    controller.reboot(election_id=99)
    assert controller.alive
    assert controller.election_id == 99


def test_shadow_switch_connect_captures_switch_write(controller):
    taint = Taint(trigger_id=("ext", 3), primary_id="c1")
    ctx = TriggerContext.replica_of(taint)
    captured = []
    controller.trigger_done_hook = captured.append
    controller.shadow_switch_connect(
        FeaturesReply(dpid=42, ports=(1, 2)), ctx)
    assert captured == [ctx]
    assert len(ctx.captured_cache) == 1
    assert controller.store.get(SWITCHESDB, ("switch", 42)) is None


def test_utilization_estimator(controller):
    assert controller.utilization() == 0.0
    from repro.openflow.messages import PacketIn
    from repro.net.packet import tcp_packet

    sim = controller.sim
    packet = tcp_packet("a", "b", "1.1.1.1", "2.2.2.2", 1, 2)
    for i in range(100):
        sim.schedule(i * 0.1, controller.ingress_packet_in,
                     PacketIn(dpid=1, in_port=1, packet=packet))
    sim.run()
    assert 0.0 < controller.utilization() <= 1.0


def test_app_lookup(controller):
    assert controller.app("forwarding") is not None
    assert controller.app("topology") is not None
    assert controller.app("nonexistent") is None
