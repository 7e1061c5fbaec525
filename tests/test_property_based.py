"""Property-based tests (hypothesis) for core data structures and invariants."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.controllers.context import sort_canonicals
from repro.core.responses import Response, ResponseKind
from repro.core.selection import designated_secondaries
from repro.core.consensus import evaluate_consensus
from repro.harness.metrics import cdf_points, percentile
from repro.net.packet import EtherType, IpProto, Packet
from repro.openflow.actions import ActionOutput
from repro.openflow.flowtable import FlowEntry, FlowTable
from repro.openflow.match import Match
from repro.sim.simulator import Simulator


# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------

macs = st.sampled_from([f"00:00:00:00:00:{i:02x}" for i in range(8)])
ips = st.sampled_from([f"10.0.0.{i}" for i in range(1, 9)])
ports = st.integers(min_value=1, max_value=5)


@st.composite
def matches(draw):
    """Arbitrary (possibly hierarchy-violating) matches."""
    return Match(
        in_port=draw(st.none() | ports),
        dl_src=draw(st.none() | macs),
        dl_dst=draw(st.none() | macs),
        dl_type=draw(st.none() | st.sampled_from(
            [int(EtherType.IPV4), int(EtherType.ARP), 0x86DD])),
        nw_src=draw(st.none() | ips),
        nw_dst=draw(st.none() | ips),
        nw_proto=draw(st.none() | st.sampled_from(
            [int(IpProto.TCP), int(IpProto.UDP), 89])),
        tp_src=draw(st.none() | st.integers(min_value=1, max_value=65535)),
        tp_dst=draw(st.none() | st.integers(min_value=1, max_value=65535)),
    )


@st.composite
def packets(draw):
    return Packet(
        src_mac=draw(macs), dst_mac=draw(macs),
        eth_type=draw(st.sampled_from([EtherType.IPV4, EtherType.ARP])),
        src_ip=draw(ips), dst_ip=draw(ips),
        ip_proto=draw(st.none() | st.sampled_from([IpProto.TCP, IpProto.UDP])),
        src_port=draw(st.none() | st.integers(min_value=1, max_value=65535)),
        dst_port=draw(st.none() | st.integers(min_value=1, max_value=65535)),
    )


# ----------------------------------------------------------------------
# Match hierarchy invariants
# ----------------------------------------------------------------------

@given(matches())
def test_strip_unsupported_fields_is_valid_and_idempotent(match):
    stripped = match.strip_unsupported_fields()
    assert stripped.hierarchy_violations() == ()
    assert stripped.strip_unsupported_fields() == stripped


@given(matches())
def test_strip_never_adds_fields(match):
    stripped = match.strip_unsupported_fields()
    assert stripped.specificity() <= match.specificity()


@given(matches(), packets(), st.none() | ports)
def test_stripped_match_is_broader(match, packet, in_port):
    """Anything the original matches, the stripped match also matches."""
    stripped = match.strip_unsupported_fields()
    if match.matches(packet, in_port):
        assert stripped.matches(packet, in_port)


@given(matches())
def test_canonical_roundtrip_property(match):
    assert Match.from_canonical(match.canonical()) == match


# ----------------------------------------------------------------------
# Flow table invariants
# ----------------------------------------------------------------------

@given(st.lists(st.tuples(matches(), st.integers(min_value=1, max_value=200)),
                max_size=25))
def test_flowtable_lookup_returns_highest_priority_match(entries):
    table = FlowTable()
    for match, priority in entries:
        table.add(FlowEntry(match=match, actions=(ActionOutput(1),),
                            priority=priority))
    packet = Packet(src_mac="00:00:00:00:00:01", dst_mac="00:00:00:00:00:02",
                    eth_type=EtherType.IPV4, src_ip="10.0.0.1",
                    dst_ip="10.0.0.2", ip_proto=IpProto.TCP,
                    src_port=1, dst_port=2)
    found = table.lookup(packet, in_port=1)
    candidates = [e for e in table if e.match.matches(packet, 1)]
    if not candidates:
        assert found is None
    else:
        assert found is not None
        assert found.priority == max(e.priority for e in candidates)


@given(st.lists(matches(), max_size=15))
def test_flowtable_delete_removes_what_was_added(entries):
    table = FlowTable()
    for match in entries:
        table.add(FlowEntry(match=match, actions=(), priority=10))
    for match in entries:
        table.delete(match)
    assert len(table) == 0


# ----------------------------------------------------------------------
# Selection determinism
# ----------------------------------------------------------------------

ids = [f"c{i}" for i in range(1, 10)]


@given(st.integers(min_value=0, max_value=10_000),
       st.integers(min_value=0, max_value=10),
       st.sampled_from(ids))
def test_selection_deterministic_and_well_formed(trigger, k, primary):
    tau = ("ext", trigger)
    a = designated_secondaries(tau, ids, k, exclude=(primary,))
    b = designated_secondaries(tau, ids, k, exclude=(primary,))
    assert a == b
    assert primary not in a
    assert len(a) == min(k, len(ids) - 1)
    assert len(set(a)) == len(a)


# ----------------------------------------------------------------------
# Metrics invariants
# ----------------------------------------------------------------------

@given(st.lists(st.floats(min_value=0, max_value=1e6,
                          allow_nan=False, allow_infinity=False),
                min_size=1, max_size=200),
       st.floats(min_value=0.0, max_value=1.0))
def test_percentile_within_bounds(samples, q):
    value = percentile(samples, q)
    assert min(samples) <= value <= max(samples)


@given(st.lists(st.floats(min_value=0, max_value=1e6,
                          allow_nan=False, allow_infinity=False),
                min_size=1, max_size=200))
def test_percentile_monotonic_in_q(samples):
    values = [percentile(samples, q) for q in (0.1, 0.5, 0.9)]
    assert values == sorted(values)


@given(st.lists(st.floats(min_value=0, max_value=1e6,
                          allow_nan=False, allow_infinity=False),
                min_size=1, max_size=500))
def test_cdf_points_valid_probabilities(samples):
    points = cdf_points(samples)
    assert all(0 < y <= 1.0 for _, y in points)
    ys = [y for _, y in points]
    assert ys == sorted(ys)


# ----------------------------------------------------------------------
# Canonical sorting and consensus invariants
# ----------------------------------------------------------------------

mixed_tuples = st.lists(
    st.tuples(st.sampled_from(["flow_mod", "packet_out", "cache"]),
              st.integers(min_value=0, max_value=5),
              st.none() | st.integers(min_value=0, max_value=5)),
    max_size=10)


@given(mixed_tuples)
def test_sort_canonicals_is_order_insensitive(items):
    shuffled = list(items)
    random.Random(0).shuffle(shuffled)
    assert sort_canonicals(items) == sort_canonicals(shuffled)


@given(st.integers(min_value=1, max_value=6),
       st.integers(min_value=0, max_value=6))
@settings(max_examples=50)
def test_consensus_unanimous_replicas_never_alarm(k, extra_empty):
    """If the primary and every replica agree, consensus must pass."""
    cache = (("cache", "FlowsDB", ("flow", 1, (), 100), "create",
              (("state", "pending_add"),)),)
    net = (("flow_mod", 1, "add", (), (), 100),)
    combined = (cache, net)
    responses = [
        Response("c1", ("ext", 1), ResponseKind.NETWORK_WRITE, net,
                 state_digest=(1,)),
        Response("c1", ("ext", 1), ResponseKind.CACHE_UPDATE, cache,
                 state_digest=(1,), origin="c1"),
    ]
    for i in range(k):
        responses.append(Response(
            f"s{i}", ("ext", 1), ResponseKind.REPLICA_RESULT, combined,
            tainted=True, state_digest=(1,), primary_hint="c1"))
    outcome = evaluate_consensus(responses, k=k, external=True)
    assert outcome.ok


# ----------------------------------------------------------------------
# Simulator ordering invariant
# ----------------------------------------------------------------------

@given(st.lists(st.floats(min_value=0, max_value=1000,
                          allow_nan=False, allow_infinity=False),
                max_size=50))
def test_simulator_fires_in_time_order(delays):
    sim = Simulator()
    fired = []
    for delay in delays:
        sim.schedule(delay, lambda d=delay: fired.append(d))
    sim.run()
    assert fired == sorted(fired)


# ----------------------------------------------------------------------
# Sharded pipeline routing invariants
# ----------------------------------------------------------------------

def _tagged_responses(trigger_indices, k):
    """One response per listed trigger index, in the given interleaving."""
    responses = []
    for index in trigger_indices:
        tau = ("ext", index)
        responses.append(Response(
            controller_id=f"c{index % 4}", trigger_id=tau,
            kind=ResponseKind.CACHE_UPDATE, entry=(("cache", index),),
            origin="c1", state_digest=(("c1", index % 7),)))
    return responses


@given(st.lists(st.integers(min_value=0, max_value=30),
                min_size=1, max_size=120),
       st.sampled_from([1, 2, 4, 8]))
@settings(max_examples=40, deadline=None)
def test_pipeline_routes_each_trigger_to_one_shard(trigger_indices, shards):
    """Every response for a trigger lands on the shard its hash names."""
    from repro.core.pipeline import ValidationPipeline, shard_of
    from repro.core.timeouts import StaticTimeout

    sim = Simulator(seed=0)
    pipeline = ValidationPipeline(sim, 3, shards=shards,
                                  timeout=StaticTimeout(10_000.0))
    for response in _tagged_responses(trigger_indices, k=3):
        pipeline.ingest(response)
    pipeline.drain()
    for index, shard in enumerate(pipeline._shards):
        for tau in shard.core.records:
            assert shard_of(tau, shards) == index
        for _, queued in list(shard.queue) + list(shard.overflow):
            assert shard_of(queued.trigger_id, shards) == index


@given(st.lists(st.integers(min_value=0, max_value=30),
                min_size=1, max_size=150),
       st.integers(min_value=1, max_value=8),
       st.integers(min_value=1, max_value=16))
@settings(max_examples=40, deadline=None)
def test_pipeline_conserves_responses_under_backpressure(
        trigger_indices, capacity, batch_max):
    """No response is dropped and the overflow accounting balances."""
    from repro.core.pipeline import ValidationPipeline
    from repro.core.timeouts import StaticTimeout

    sim = Simulator(seed=0)
    pipeline = ValidationPipeline(sim, 3, shards=2,
                                  timeout=StaticTimeout(10_000.0),
                                  queue_capacity=capacity,
                                  batch_max=batch_max)
    responses = _tagged_responses(trigger_indices, k=3)
    for response in responses:
        pipeline.ingest(response)
    stats = pipeline.stats
    queued_now = sum(len(s.queue) + len(s.overflow)
                     for s in pipeline._shards)
    # Conservation before the drain: routed == processed + still queued.
    assert stats.responses_routed == len(responses)
    assert stats.total("enqueued") == stats.responses_routed
    assert stats.total("processed") + queued_now == stats.total("enqueued")
    pipeline.drain()
    stats = pipeline.stats
    assert stats.total("processed") == stats.total("enqueued")
    assert stats.total("overflow_enqueued") == stats.total("overflow_drained")
    assert sum(len(s.queue) + len(s.overflow)
               for s in pipeline._shards) == 0
    # Processed responses are either held in records or counted late.
    held = sum(len(r.responses) for s in pipeline._shards
               for r in s.core.records.values())
    decided = sum(r.n_responses for r in pipeline.results)
    late = pipeline.late_responses
    assert held + decided + late == stats.total("processed")
