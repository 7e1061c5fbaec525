"""Canonical forms are computed once — and equal what recomputing would give.

A :class:`CacheEvent` keeps its ``canonical()`` and ``wire_size()`` after
the first call, a :class:`Match` its ``canonical()``. That rests on one
contract: a value handed to ``store.put`` is never mutated afterwards
(writers copy with ``dict(stored)`` before modifying). These tests keep the
previous, recursive implementations as references and hold the optimised
code to them — including on every one of the n notifications of every
cache event in live ONOS and ODL deployments under faults that rewrite
cache values.
"""

from __future__ import annotations

import dataclasses
import enum
import pickle
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Jury, JuryConfig
from repro.controllers.context import TriggerContext, sort_canonicals
from repro.core.selection import designated_secondaries
from repro.datastore.caches import FLOWSDB, flow_key, flow_value
from repro.datastore.events import (
    CacheEvent,
    CacheOp,
    _canonical_value,
    cache_canonical,
)
from repro.faults.base import run_scenario
from repro.faults.generic import ResponseCorruptionFault
from repro.faults.injector import default_policy_engine
from repro.faults.synthetic import FaultyProactiveFault, LinkFailureFault
from repro.openflow.actions import ActionOutput
from repro.openflow.match import Match
from repro.workloads.traffic import TrafficDriver


# ----------------------------------------------------------------------
# (a) _canonical_value ≡ the recursive implementation it replaced
# ----------------------------------------------------------------------

def _reference_canonical_value(value):
    """``_canonical_value`` as it was before atoms were tested inline."""
    canonical = getattr(value, "canonical", None)
    if callable(canonical):
        return canonical()
    if isinstance(value, dict):
        return tuple(sorted((k, _reference_canonical_value(v))
                            for k, v in value.items()))
    if isinstance(value, (list, tuple)):
        return tuple(_reference_canonical_value(v) for v in value)
    return value


@dataclasses.dataclass(frozen=True)
class _Canonicalisable:
    payload: object

    def canonical(self):
        return ("obj", self.payload)


class _TaggedStr(str):
    """An atom's subclass with its own canonical form: not an atom."""

    def canonical(self):
        return ("tagged", str(self))


class _Colour(enum.IntEnum):
    RED = 1


_atoms = (st.none() | st.booleans() | st.integers(-3, 3)
          | st.floats(allow_nan=False, allow_infinity=False, width=16)
          | st.text(max_size=3))
_leaves = (_atoms
           | st.builds(_Canonicalisable, _atoms)
           | st.builds(_TaggedStr, st.text(max_size=3))
           | st.just(_Colour.RED) | st.just(CacheOp.CREATE)
           | st.builds(Match, in_port=st.none() | st.integers(1, 4),
                       dl_dst=st.none() | st.just("00:00:00:00:00:02")))
_values = st.recursive(
    _leaves,
    lambda children: (st.lists(children, max_size=4)
                      | st.lists(children, max_size=4).map(tuple)
                      | st.dictionaries(st.text(max_size=3), children,
                                        max_size=4)),
    max_leaves=20)


@settings(max_examples=300, deadline=None)
@given(_values)
def test_canonical_value_equals_the_recursive_reference(value):
    got, want = _canonical_value(value), _reference_canonical_value(value)
    assert got == want
    # ``1 == True == 1.0``: equality alone would let an atom change type.
    assert repr(got) == repr(want)


@settings(max_examples=100, deadline=None)
@given(_values, _values)
def test_cache_canonical_equals_the_reference(key, value):
    got = cache_canonical(FLOWSDB, key, CacheOp.UPDATE, value)
    want = ("cache", FLOWSDB, _reference_canonical_value(key), "update",
            _reference_canonical_value(value))
    assert got == want and repr(got) == repr(want)


_canonicals = st.lists(
    st.tuples(st.sampled_from(["flow_mod", "packet_out", "cache"]),
              st.integers(0, 3), st.none() | st.integers(0, 3)),
    max_size=4)


@given(_canonicals, _canonicals)
def test_sort_canonicals_equals_sorting_by_repr(cache, network):
    assert sort_canonicals(cache) == tuple(sorted(cache, key=repr))
    assert sort_canonicals(iter(cache)) == tuple(sorted(cache, key=repr))
    ctx = TriggerContext(trigger_id=("ext", 1))
    for canonical in cache:
        ctx.capture_cache(canonical)
    for canonical in network:
        ctx.capture_network(canonical)
    assert ctx.combined_canonical() == (
        tuple(sorted(cache, key=repr)), tuple(sorted(network, key=repr)))


# ----------------------------------------------------------------------
# (b) memo ≡ recompute at every notification of a live deployment
# ----------------------------------------------------------------------

N = 5


@pytest.mark.parametrize("kind", ["onos", "odl"])
def test_memo_equals_recompute_at_every_notification(kind):
    experiment = Jury.experiment(JuryConfig(
        kind=kind, n=N, k=N - 1, switches=8, seed=29,
        timeout_ms=250.0 if kind == "onos" else 1200.0,
        policy_engine=default_policy_engine(), with_northbound=True))
    notifications = Counter()

    def check(node, event):
        notifications[event.action_id] += 1
        fresh = cache_canonical(event.cache, event.key, event.op, event.value)
        kept = event.canonical()
        assert kept == fresh and repr(kept) == repr(fresh), (
            f"{event.cache}[{event.key!r}] was mutated after put "
            f"(seen at {node.node_id})")
        assert event.wire_size() == dataclasses.replace(event).wire_size()

    for controller in experiment.cluster.controllers.values():
        controller.store.add_listener(check)
    experiment.warmup()
    TrafficDriver(experiment.sim, experiment.topology,
                  packet_in_rate_per_s=400.0, duration_ms=300.0).start()
    experiment.run(600.0)
    for scenario in (ResponseCorruptionFault("c1"), LinkFailureFault(1, 2),
                     FaultyProactiveFault("c3")):
        run_scenario(experiment, scenario)
    assert any(FLOWSDB in node.caches
               for node in experiment.store.nodes.values())
    assert len(notifications) > 100
    # Every event reaches the origin's listeners and each of the n−1 peers.
    assert set(notifications.values()) <= set(range(1, N + 1))
    assert Counter(notifications.values()).most_common(1)[0][0] == N


# ----------------------------------------------------------------------
# (c) the memo is invisible: ==, hash, repr, pickle, replace
# ----------------------------------------------------------------------

def _flow_match() -> Match:
    return Match(in_port=1, dl_src="00:00:00:00:00:01",
                 dl_dst="00:00:00:00:00:02", dl_type=0x800,
                 nw_src="10.0.0.1", nw_dst="10.0.0.2", nw_proto=6,
                 tp_src=1000, tp_dst=80)


def _event(value) -> CacheEvent:
    match = _flow_match()
    return CacheEvent(cache=FLOWSDB, key=flow_key(3, match), value=value,
                      op=CacheOp.CREATE, origin="c1", seq=7, time=12.5,
                      tau=("ext", 9), ctx_digest=(("c1", 6),))


def _field_names(instance) -> set:
    return {f.name for f in dataclasses.fields(instance)}


def test_cache_event_memo_is_invisible():
    value = flow_value(3, _flow_match(), (ActionOutput(2),))
    event, twin = _event(value), _event(value)
    hashable, hashable_twin = _event(("a", 1)), _event(("a", 1))
    before = (repr(event), pickle.dumps(event), hash(hashable),
              pickle.dumps(hashable))
    for warmed in (event, hashable):
        assert warmed.canonical() is warmed.canonical()
        assert warmed.wire_size() == warmed.wire_size()
    assert event.canonical() == cache_canonical(
        FLOWSDB, event.key, CacheOp.CREATE, value)
    assert (repr(event), pickle.dumps(event), hash(hashable),
            pickle.dumps(hashable)) == before
    assert event == twin and hashable == hashable_twin
    assert hash(hashable) == hash(hashable_twin)
    assert pickle.dumps(event) == pickle.dumps(twin)

    restored = pickle.loads(pickle.dumps(event))
    assert restored == event and set(vars(restored)) == _field_names(event)
    assert restored.canonical() == event.canonical()

    replaced = dataclasses.replace(event, value=None, op=CacheOp.DELETE)
    assert set(vars(replaced)) == _field_names(event)
    assert replaced.canonical() == cache_canonical(
        FLOWSDB, event.key, CacheOp.DELETE, None)
    assert replaced.wire_size() == 96 != event.wire_size()


def test_match_memo_is_invisible():
    match, twin = _flow_match(), _flow_match()
    before = (repr(match), hash(match), pickle.dumps(match))
    canonical = match.canonical()
    assert match.canonical() is canonical
    assert Match.from_canonical(canonical) == match
    assert (repr(match), hash(match), pickle.dumps(match)) == before
    assert match == twin and hash(match) == hash(twin)
    assert pickle.dumps(match) == pickle.dumps(twin)
    assert match.specificity() == 9

    restored = pickle.loads(pickle.dumps(match))
    assert restored == match and set(vars(restored)) == _field_names(match)

    # Orphan transport fields: the stripped match is a fresh instance.
    orphan = Match(dl_type=0x800, tp_dst=80)
    assert orphan.canonical() == (("dl_type", 0x800), ("tp_dst", 80))
    stripped = orphan.strip_unsupported_fields()
    assert set(vars(stripped)) == _field_names(orphan)
    assert stripped.canonical() == (("dl_type", 0x800),)
    assert Match().canonical() == () and Match().canonical() == ()


# ----------------------------------------------------------------------
# (d) designated_secondaries ≡ the body that always seeded an RNG
# ----------------------------------------------------------------------

def _reference_designated_secondaries(trigger_id, candidates, k, exclude=(),
                                      salt="jury"):
    pool = sorted(set(candidates) - set(exclude))
    if k <= 0 or not pool:
        return []
    rng = random.Random(f"{salt}/{trigger_id!r}")
    if k >= len(pool):
        return pool
    return sorted(rng.sample(pool, k))


def test_designated_secondaries_equals_the_reference_over_a_grid():
    sampled = full = 0
    for n in (1, 2, 3, 5, 7):
        ids = [f"c{i}" for i in range(1, n + 1)]
        for k in range(0, n + 2):
            for exclude in ((), ("c1",), ("c2", "c9")):
                pool = len(set(ids) - set(exclude))
                for tau in [("ext", i) for i in range(1, 12)] + [
                        ("int", "c2", 3), ("int", "c1", 40)]:
                    want = _reference_designated_secondaries(
                        tau, ids, k, exclude)
                    assert designated_secondaries(
                        tau, ids, k, exclude=exclude) == want
                    assert designated_secondaries(
                        tau, reversed(ids), k, exclude=exclude,
                        salt="other") == _reference_designated_secondaries(
                            tau, ids, k, exclude, salt="other")
                    if 0 < k < pool:
                        sampled += 1
                    elif k >= pool > 0:
                        full += 1
    assert sampled > 100 and full > 100
