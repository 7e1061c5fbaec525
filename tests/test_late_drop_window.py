"""The late-drop window above its cap (repro.core.latedrop).

No recorded scenario retains 20 000 triggers, so every other suite runs
below the cap and never expires anything. This module covers the regime
above it: the window against the dict-comprehension it replaced, the three
engines staying byte-identical while entries expire, the same-batch alias
case the rebuild used to get wrong, recovery from a
checkpoint taken over the cap, and a coarse cost budget per decision.
"""

from __future__ import annotations

import pickle
import random
import time

import pytest

from repro.core import latedrop
from repro.core.alarms import canonical_alarm_stream
from repro.core.backends.frames import (
    EV_DECISION,
    EV_LATE,
    BatchFrame,
    VerdictFrame,
)
from repro.core.backends.shardcore import ShardCore
from repro.core.checkpoint import Checkpoint, restore_engine, run_with_recovery
from repro.core.latedrop import (
    LATE_DROP_CAP,
    LATE_DROP_HORIZON_TIMEOUTS,
    LateDropWindow,
)
from repro.core.pipeline import ValidationPipeline
from repro.core.responses import Response, ResponseKind
from repro.core.timeouts import StaticTimeout
from repro.core.validator import Validator
from repro.harness.soak import soak_stream
from repro.sim.simulator import Simulator
from repro.workloads.recorder import RecordedResponse
from repro.workloads.synthetic import synthetic_validation_workload

K = 3
TIMEOUT_MS = 250.0
HORIZON_MS = LATE_DROP_HORIZON_TIMEOUTS * TIMEOUT_MS
SPACING_MS = 20.0
SETTLE_MS = 5_000.0
SMALL_CAP = 32
TRIGGERS = 700


@pytest.fixture
def small_cap(monkeypatch):
    """Expiry after 32 retained triggers instead of 20 000 (fork-started
    workers inherit the patched module)."""
    monkeypatch.setattr(latedrop, "LATE_DROP_CAP", SMALL_CAP)
    return SMALL_CAP


# ----------------------------------------------------------------------
# The window against the rebuild it replaced
# ----------------------------------------------------------------------

def _reference_prune(retained, now, timeout_ms, cap):
    """The retention rule as all three engines used to spell it."""
    if len(retained) > cap:
        horizon = now - 20.0 * timeout_ms
        retained = {
            t_id: decided for t_id, decided in retained.items()
            if decided >= horizon}
    return retained


@pytest.mark.parametrize("seed", range(8))
def test_window_matches_the_dict_rebuild(small_cap, seed):
    rng = random.Random(f"late-drop/{seed}")
    window = LateDropWindow()
    reference = {}
    now = 0.0
    timeout_ms = 5.0
    for step in range(3_000):
        roll = rng.random()
        if roll < 0.5:
            now += rng.choice((0.0, 0.0, 0.5, 3.0, 40.0))
        if roll < 0.1:
            # An adaptive θτ: a larger value moves the horizon backwards.
            timeout_ms = rng.choice((0.5, 2.0, 5.0, 25.0))
        tau = ("ext", step)
        over = window.add(tau, now)
        reference[tau] = now
        assert over == (len(reference) > small_cap)
        if over or roll > 0.9:
            window.expire(now, timeout_ms)
        reference = _reference_prune(reference, now, timeout_ms, small_cap)
        assert list(window.decided.items()) == list(reference.items())
        probe = ("ext", rng.randrange(step + 1))
        assert (probe in window.decided) == (probe in reference)
        if roll > 0.97:
            twin = LateDropWindow()
            twin.restore(pickle.loads(pickle.dumps(window.payload())))
            assert list(twin.decided.items()) == list(reference.items())
            window = twin
    assert len(reference) < 3_000, "the sequence must exercise expiry"


def test_window_expires_in_place(small_cap):
    """Hot loops hoist ``window.decided`` before a batch: it must stay the
    live mapping through adds, expiry and restore."""
    window = LateDropWindow()
    hoisted = window.decided
    for index in range(small_cap + 10):
        window.add(("ext", index), float(index))
    window.expire(float(small_cap + 9), 0.25)
    assert window.decided is hoisted
    assert list(hoisted) == [("ext", index)
                             for index in range(small_cap + 4, small_cap + 10)]
    window.restore({("ext", 1): 1.0})
    assert window.decided is hoisted and list(hoisted) == [("ext", 1)]


def test_nothing_expires_at_or_below_the_cap(small_cap):
    window = LateDropWindow()
    for index in range(small_cap):
        assert not window.add(("ext", index), float(index))
    window.expire(1e9, 1.0)
    assert len(window.decided) == small_cap


def test_restore_sorts_a_payload_that_is_not_in_decision_order(small_cap):
    ordered = {("ext", index): float(index // 2) for index in range(60)}
    shuffled = list(ordered.items())
    random.Random(3).shuffle(shuffled)
    window = LateDropWindow()
    window.restore(dict(shuffled))
    assert sorted(window.decided.values()) == list(window.decided.values())
    # Stable: same-instant decisions keep the payload's relative order.
    for instant in range(30):
        assert [tau for tau, at in window.decided.items() if at == instant] \
            == [tau for tau, at in shuffled if at == instant]
    window.add(("ext", 60), 30.0)
    window.expire(30.0, 0.5)
    assert set(window.decided) == {
        tau for tau, at in ordered.items() if at >= 20.0} | {("ext", 60)}


# ----------------------------------------------------------------------
# Engines above the cap: stragglers on both sides of the horizon
# ----------------------------------------------------------------------

def _straggler_stream(triggers=TRIGGERS, seed=1):
    """The soak stream plus one duplicate relay for every 7th trigger of
    the first half, alternately just inside the 20·θτ horizon (must be
    dropped as late) and a second past it (forgotten: opens a fresh record
    that is judged alone at θτ). The second of slack is for the pipelines:
    an entry only leaves a window at that shard's next decision."""
    records = soak_stream(triggers, K, seed, SPACING_MS)
    per_trigger = 2 * K + 2
    stragglers = []
    for n, index in enumerate(range(0, triggers // 2, 7)):
        relay = records[index * per_trigger + 2]
        decided_at = records[(index + 1) * per_trigger - 1].time_ms
        lag = HORIZON_MS - 1.0 if n % 2 == 0 else HORIZON_MS + 1_000.0
        stragglers.append(RecordedResponse(time_ms=decided_at + lag,
                                           response=relay.response))
    inside = (len(stragglers) + 1) // 2
    merged = sorted(records + stragglers, key=lambda r: r.time_ms)
    return merged, inside, len(stragglers) - inside


def _make_validator(sim):
    return Validator(sim, K, timeout=StaticTimeout(TIMEOUT_MS))


def _make_pipeline(shards):
    def make(sim):
        return ValidationPipeline(sim, K, shards=shards,
                                  timeout=StaticTimeout(TIMEOUT_MS))
    return make


def _feed(engine, records):
    """Schedule ``records`` into ``engine`` and settle."""
    sim = engine.sim
    for record in records:
        sim.schedule_at(record.time_ms, engine.ingest, record.response)
    sim.run(until=records[-1].time_ms + SETTLE_MS)
    drain = getattr(engine, "drain", None)
    if drain is not None:
        drain()
    return engine


def _run(make, records):
    return _feed(make(Simulator(seed=0)), records)


def _fingerprint(engine):
    return (canonical_alarm_stream(engine.alarms), engine.triggers_decided,
            engine.late_responses, engine.responses_received)


def _windows(engine):
    if isinstance(engine, Validator):
        return [(engine.core.late_drop, engine.triggers_decided)]
    return [(shard.core.late_drop, shard.stats.decided)
            for shard in engine._shards]


def test_engines_agree_while_the_window_expires(small_cap):
    records, inside, beyond = _straggler_stream()
    sequential = _run(_make_validator, records)
    assert sequential.late_responses == inside
    assert sequential.triggers_decided == TRIGGERS + beyond
    plain = _run(_make_validator, soak_stream(TRIGGERS, K, 1, SPACING_MS))
    assert len(sequential.alarms) == len(plain.alarms) + beyond, \
        "every forgotten trigger's straggler must be judged alone"
    expected = _fingerprint(sequential)
    engines = {"sequential": sequential}
    for shards in (1, 2, 4):
        engines[f"serial N={shards}"] = _run(_make_pipeline(shards), records)
    for label, engine in engines.items():
        assert _fingerprint(engine) == expected, label
        for window, decided in _windows(engine):
            assert small_cap < len(window.decided) < decided, \
                f"{label}: a window never expired"


# ----------------------------------------------------------------------
# Same-batch alias: a response for a trigger decided earlier in its batch
# ----------------------------------------------------------------------

def _alias_stream():
    """20 001 decided triggers (real cap), then at one instant two full
    sets and a duplicate relay of the second. The rebuild rebound the
    window on every decision above the cap while the batch loop kept
    testing the dict it had hoisted, which never saw the second set."""
    sets = synthetic_validation_workload(LATE_DROP_CAP + 3, k=1, seed=5,
                                         fault_rate=0.0)
    warm = [(0.0, response) for responses in sets[:-2]
            for response in responses]
    burst = [(10.0, response) for responses in sets[-2:]
             for response in responses]
    burst.append((10.0, sets[-1][2]))
    return warm, burst


def _ingest_alias_stream(engine):
    sim = engine.sim
    warm, burst = _alias_stream()
    for time_ms, response in warm + burst:
        sim.schedule_at(time_ms, engine.ingest, response)
    sim.run(until=10.0 + 4 * TIMEOUT_MS)
    return engine


@pytest.fixture(scope="module")
def alias_reference():
    sequential = _ingest_alias_stream(
        Validator(Simulator(seed=0), 1, timeout=StaticTimeout(TIMEOUT_MS)))
    assert sequential.triggers_decided == LATE_DROP_CAP + 3
    assert (sequential.late_responses, sequential.alarms) == (1, [])
    return _fingerprint(sequential)


def test_same_batch_duplicate_is_dropped_above_the_cap(alias_reference):
    pipeline = _ingest_alias_stream(ValidationPipeline(
        Simulator(seed=0), 1, shards=1, timeout=StaticTimeout(TIMEOUT_MS)))
    pipeline.drain()
    assert _fingerprint(pipeline) == alias_reference


def test_shardcore_drops_a_same_frame_duplicate_above_the_cap():
    warm, burst = _alias_stream()
    core = ShardCore(k=1, timeout=TIMEOUT_MS)
    frames = [
        BatchFrame(shard=0, seq=0, now=0.0, items=tuple(warm), drained=True),
        BatchFrame(shard=0, seq=1, now=10.0, items=tuple(burst),
                   drained=True),
        BatchFrame(shard=0, seq=2, now=10.0 + TIMEOUT_MS, items=(),
                   drained=True, wakeup=True),
    ]
    events = [event for frame in frames
              for event in core.process(frame).events]
    decided = [event[1].trigger_id for event in events
               if event[0] == EV_DECISION]
    assert len(decided) == len(set(decided)) == LATE_DROP_CAP + 3
    assert [event[1] for event in events if event[0] == EV_LATE] \
        == [decided[-1]]
    assert not core.records


def test_batch_frame_pickle_round_trip():
    response = Response(
        controller_id="c1", trigger_id=("pkt", 7),
        kind=ResponseKind.NETWORK_WRITE, entry=("flow_mod", 3, ("out", 2)),
        tainted=True, state_digest=(11, 22, 33), sent_at=120.5,
        trigger_received_at=119.0, origin="c2", primary_hint="c1",
        declared_non_deterministic=True)
    frame = BatchFrame(shard=1, seq=9, now=123.25,
                       items=((120.5, response),), drained=True)
    clone = pickle.loads(pickle.dumps(frame))
    assert clone == frame
    # Response's compact positional __reduce__ preserves every field.
    restored = clone.items[0][1]
    assert restored == response
    assert restored.state_digest == (11, 22, 33)
    assert restored.declared_non_deterministic


def test_verdict_frame_pickle_round_trip():
    verdict = VerdictFrame(
        shard=1, seq=9,
        events=((EV_LATE, ("pkt", 7), "c3"),),
        stats_delta={"processed": 4, "decided": 2},
        next_deadline=370.5, open_records=3)
    clone = pickle.loads(pickle.dumps(verdict))
    assert clone == verdict


# ----------------------------------------------------------------------
# Recovery from a checkpoint taken above the cap
# ----------------------------------------------------------------------

def _cut(records, fraction=0.7):
    index = int(len(records) * fraction)
    return index, records[index].time_ms


def _checkpoint_at_cut(make, records):
    index, cut_time = _cut(records)
    sim = Simulator(seed=0)
    engine = make(sim)
    for record in records[:index + 1]:
        sim.schedule_at(record.time_ms, engine.ingest, record.response)
    sim.run(until=cut_time)
    checkpoint = engine.checkpoint()
    retained = [list(window.decided.items())
                for window, _ in _windows(engine)]
    return checkpoint, retained, records[index + 1:]


@pytest.mark.parametrize("label,make", [
    ("validator", _make_validator),
    ("pipeline-N2", _make_pipeline(2)),
])
def test_checkpoint_over_the_cap_restores_the_same_window(small_cap, label,
                                                          make):
    records, _, _ = _straggler_stream()
    reference = _run(make, records)
    checkpoint, retained, rest = _checkpoint_at_cut(make, records)
    assert all(len(items) > small_cap for items in retained)
    twin = make(Simulator(seed=0))
    twin.restore(checkpoint)
    assert [list(window.decided.items())
            for window, _ in _windows(twin)] == retained
    _feed(twin, rest)
    assert _fingerprint(twin) == _fingerprint(reference), label


@pytest.mark.parametrize("label,make", [
    ("validator", _make_validator),
    ("pipeline-N2", _make_pipeline(2)),
])
def test_kill_and_wal_replay_over_the_cap(small_cap, label, make):
    records, _, _ = _straggler_stream()
    reference = _run(make, records)
    kill_index, _ = _cut(records)
    recovered = run_with_recovery(records, make, kill_index=kill_index + 3,
                                  checkpoint_every=64,
                                  settle_ms=SETTLE_MS)
    assert _fingerprint(recovered) == _fingerprint(reference), label


def _reversed_window(payload):
    return dict(reversed(list(payload.items())))


def test_restore_of_an_unordered_window_never_changes_the_alarm_stream(
        small_cap):
    """A hand-edited ``recently_decided`` (same entries, newest first) is
    re-sorted on restore: the oldest entries still expire first, so every
    straggler meets the verdict it would have met."""
    records, _, _ = _straggler_stream()

    reference = _run(_make_validator, records)
    checkpoint, _, rest = _checkpoint_at_cut(_make_validator, records)
    state = checkpoint.state()
    state["core"]["recently_decided"] = _reversed_window(
        state["core"]["recently_decided"])
    twin = _make_validator(Simulator(seed=0))
    twin.restore(Checkpoint.build(checkpoint.meta, state))
    _feed(twin, rest)
    assert _fingerprint(twin) == _fingerprint(reference)

    reference = _run(_make_pipeline(2), records)
    checkpoint, _, rest = _checkpoint_at_cut(_make_pipeline(2), records)
    state = checkpoint.state()
    for shard in state["shards"]:
        shard["core"]["recently_decided"] = _reversed_window(
            shard["core"]["recently_decided"])
    twin = restore_engine(Checkpoint.build(checkpoint.meta, state))
    _feed(twin, rest)
    assert _fingerprint(twin) == _fingerprint(reference)


# ----------------------------------------------------------------------
# Cost per decision above the cap
# ----------------------------------------------------------------------

def _timed(call, *args):
    start = time.perf_counter()  # jury: ignore[D101]
    call(*args)
    return time.perf_counter() - start  # jury: ignore[D101]


@pytest.mark.parametrize("live", (25_000, 250_000))
def test_window_cost_per_decision_is_flat_in_its_population(live):
    """≈0.5 µs per add+expire at either size. Popping ``next(iter(dict))``
    instead of a deque head averages ≈18 µs over this run at 25 000 live
    entries and ≈47 µs at 250 000 (it rescans the deleted head slots until
    the next resize, so it grows through the run); the rebuild is ≈2 ms.
    The budget sits ≈10× above the first and ≈10× below the rescan at
    250 000."""
    decisions = 90_000
    step_ms = HORIZON_MS / live
    window = LateDropWindow()
    clock = [0.0]

    def decide(count):
        now = clock[0]
        for _ in range(count):
            now += step_ms
            if window.add((live, now), now):
                window.expire(now, TIMEOUT_MS)
        clock[0] = now

    decide(live + 1_000)
    assert abs(len(window.decided) - live) <= 2
    per_decision_us = _timed(decide, decisions) / decisions * 1e6
    assert abs(len(window.decided) - live) <= 2
    assert per_decision_us < 5.0


def test_validator_cost_per_decision_above_the_cap():
    """5 000 triggers/s against θτ = 250 ms holds 25 000 triggers in the
    window. ≈20 µs per k=0 decision here, ≈2.3 ms when every decision
    rebuilt the window. The budget is ≥10× from both."""
    chunk, chunks = 10_000, 3
    warm = LATE_DROP_CAP + 6_000
    sets = synthetic_validation_workload(warm + chunk * chunks, k=0, seed=9,
                                         fault_rate=0.0)
    sim = Simulator(seed=0)
    validator = Validator(sim, 0, timeout=StaticTimeout(TIMEOUT_MS),
                          keep_results=False)

    def feed(start, stop):
        ingest = validator.ingest
        for index in range(start, stop):
            sim.run(until=index * 0.2)
            for response in sets[index]:
                ingest(response)

    feed(0, warm)
    assert abs(len(validator.core.late_drop.decided) - 25_000) <= 2
    best = min(_timed(feed, warm + n * chunk, warm + (n + 1) * chunk)
               for n in range(chunks))
    assert abs(len(validator.core.late_drop.decided) - 25_000) <= 2
    assert validator.triggers_decided == len(sets)
    assert best / chunk * 1e6 < 220.0
