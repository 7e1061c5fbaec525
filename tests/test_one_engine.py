"""One Algorithm-1 engine, checked against an independent reference.

The sequential :class:`Validator` and every pipeline shard drive the same
:class:`ShardCore`, so comparing them with
each other compares drivers, not decision loops. The loop itself is held
to :class:`repro.fuzz.reference.ReferenceValidator` — a textbook Algorithm 1
that shares no collection, deadline or consensus-shortcut code with the
core — and to golden digests recorded on the commit *before* the three
loops were collapsed (the parent of this file's first commit; recorded with
the then-sequential ``Validator`` as the engine, CPython 3.11, Linux
x86-64).

The last test is structural: it fails if a second copy of the loop's
building blocks reappears under ``src/repro/core``.
"""

from __future__ import annotations

import hashlib
import re
import tokenize
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Jury, JuryConfig
from repro.controllers.context import reset_trigger_ids
from repro.core.alarms import canonical_alarm_stream
from repro.core.pipeline import ValidationPipeline
from repro.core.responses import Response, ResponseKind
from repro.core.timeouts import AdaptiveTimeout, StaticTimeout
from repro.core.validator import Validator
from repro.faults.injector import default_policy_engine
from repro.fuzz.reference import ReferenceValidator
from repro.harness.soak import soak_stream
from repro.sim.simulator import Simulator
from repro.workloads.recorder import (
    RecordedResponse,
    ValidatorStreamRecorder,
    replay_validation_stream,
)
from repro.workloads.synthetic import entries
from repro.workloads.traffic import TrafficDriver

TIMEOUT_MS = 250.0

#: sha-256 over the canonical alarm stream plus every trigger's
#: ``(τ, external, n_responses, timed_out, decided_at)``, recorded on the
#: parent commit (see the module docstring). Not to be re-recorded by a
#: change that means to keep behaviour.
GOLDEN = {
    "soak":
        "7664f62a09ea643f54af069a33562cb77156a157538fd2f0cd9b5e23423a13c5",
    "onos":
        "1f87c54e04db41d7918d62fa5abd0ecfb4bb0828958ab99abef1054e6b5dc3db",
    "odl":
        "9937d62876c38c46141e9fbda3eb66ba1b2c4789fd3e5a15a5d7a693d8bc3219",
}


# ----------------------------------------------------------------------
# Engines under comparison
# ----------------------------------------------------------------------

def _engines(k, timeout_ms=TIMEOUT_MS, policy=False, lookup=None):
    """``label → make(sim)`` for the reference and every driver."""
    def shared():
        return dict(policy_engine=default_policy_engine() if policy else None,
                    mastership_lookup=lookup)

    def pipeline(shards):
        return lambda sim: ValidationPipeline(
            sim, k, shards=shards, timeout=StaticTimeout(timeout_ms),
            **shared())

    return {
        "reference": lambda sim: ReferenceValidator(
            sim, k, timeout_ms, **shared()),
        "validator": lambda sim: Validator(
            sim, k, timeout=StaticTimeout(timeout_ms), **shared()),
        "serial N=1": pipeline(1),
        "serial N=4": pipeline(4),
    }


def _fingerprint(engine):
    """Canonical alarm stream + what was decided for every trigger."""
    drain = getattr(engine, "drain", None)
    if drain is not None:
        drain()
    decided = sorted(
        ((r.decided_at, repr(r.trigger_id), r.external, r.n_responses,
          r.timed_out) for r in engine.results))
    return canonical_alarm_stream(engine.alarms), decided


def _digest(fingerprint):
    alarms, decided = fingerprint
    return hashlib.sha256(alarms + b"\n--\n"
                          + repr(decided).encode()).hexdigest()


def _assert_all_agree(records, engines):
    """Replay ``records`` through every engine; return the shared print."""
    prints = {label: _fingerprint(replay_validation_stream(
        records, make, settle_ms=4 * TIMEOUT_MS))
        for label, make in engines.items()}
    expected = prints["reference"]
    assert expected[1], "the stream must decide something"
    for label, observed in prints.items():
        assert observed == expected, f"{label} diverged from the reference"
    return expected


# ----------------------------------------------------------------------
# (a) The soak stream with every way a trigger can fall short
# ----------------------------------------------------------------------

SOAK_K = 3
SOAK_TRIGGERS = 330
SOAK_SPACING_MS = 20.0


def _faulty_soak_stream():
    """The soak stream (≈2 % corrupted cache relays), where every 11th
    trigger loses a secondary altogether (decided by θτ, two responses
    short) and another 11th has its last replica result held back to half
    a millisecond inside or outside θτ (full count just in time / decided
    without it, then dropped as late)."""
    per_trigger = 2 * SOAK_K + 2
    records = soak_stream(SOAK_TRIGGERS, SOAK_K, 3, SOAK_SPACING_MS)
    shaped = []
    for index in range(SOAK_TRIGGERS):
        trigger = records[index * per_trigger:(index + 1) * per_trigger]
        if index % 11 == 3:
            trigger = [r for r in trigger
                       if r.response.controller_id != "s1"]
        elif index % 11 == 7:
            lag = TIMEOUT_MS + (0.5 if index % 2 else -0.5)
            trigger[-1] = RecordedResponse(
                time_ms=trigger[0].time_ms + lag,
                response=trigger[-1].response)
        shaped.extend(trigger)
    return sorted(shaped, key=lambda r: r.time_ms)


def test_soak_stream_matches_reference_and_golden():
    alarms, decided = observed = _assert_all_agree(
        _faulty_soak_stream(), _engines(SOAK_K))
    assert alarms, "corrupted relays must alarm"
    assert any(timed_out for *_, timed_out in decided)
    assert any(n == 2 * SOAK_K + 1 for _, _, _, n, _ in decided), \
        "a straggler outside θτ must be missing from its decision"
    assert _digest(observed) == GOLDEN["soak"]


# ----------------------------------------------------------------------
# (b) Recorded deployment streams
# ----------------------------------------------------------------------

def _record_deployment(kind, k, seed, rate):
    reset_trigger_ids()
    experiment = Jury.experiment(JuryConfig(
        kind=kind, n=5, k=k, switches=8, topology="linear",
        timeout_ms=TIMEOUT_MS, seed=seed, policies=("default",)))
    experiment.warmup()
    recorder = ValidatorStreamRecorder(experiment.jury)
    TrafficDriver(experiment.sim, experiment.topology,
                  packet_in_rate_per_s=rate, duration_ms=300.0).start()
    experiment.run(300.0 + 2 * TIMEOUT_MS)
    cluster = experiment.cluster
    mastership = {dpid: cluster.master_of(dpid) for dpid in cluster.proxies}
    return recorder.records, mastership


@pytest.mark.parametrize("name,kind,k,seed,rate,alarming", [
    ("onos", "onos", 2, 15, 600.0, False),
    # Strongly consistent store under load: θτ races raise real alarms.
    ("odl", "odl", 4, 4, 600.0, True),
])
def test_deployment_stream_matches_reference_and_golden(name, kind, k, seed,
                                                        rate, alarming):
    records, mastership = _record_deployment(kind, k, seed, rate)
    observed = _assert_all_agree(
        records, _engines(k, policy=True, lookup=mastership.get))
    assert bool(observed[0]) == alarming
    assert _digest(observed) == GOLDEN[name]


# ----------------------------------------------------------------------
# (c) Small adversarial streams
# ----------------------------------------------------------------------

#: θτ and the arrival grid share a step, so responses land exactly on
#: deadlines all the time.
SMALL_TIMEOUT_MS = 20.0
_GRID_MS = 5.0
_GRID_STEPS = 12
_SECONDARIES = ("s0", "s1")


def _response_set(index, k, corrupted=(), secondary_digest=None):
    """Trigger ``index``'s clean ``2k+2`` responses (the synthetic workload's
    entry shapes, which pass the sanity check); secondaries named in
    ``corrupted`` relay a different cache entry."""
    tau = ("ext", index)
    cache, net = entries(index)
    digest = (("c1", index),)
    if secondary_digest is None:
        secondary_digest = digest
    responses = [
        Response("c1", tau, ResponseKind.NETWORK_WRITE, net,
                 state_digest=digest),
        Response("c1", tau, ResponseKind.CACHE_UPDATE, cache,
                 state_digest=digest, origin="c1"),
    ]
    for sid in _SECONDARIES[:k]:
        relayed = entries(1_000 + index)[0] if sid in corrupted else cache
        responses.append(Response(sid, tau, ResponseKind.CACHE_UPDATE,
                                  relayed, state_digest=secondary_digest,
                                  origin="c1"))
        responses.append(Response(sid, tau, ResponseKind.REPLICA_RESULT,
                                  (cache, net), tainted=True,
                                  state_digest=secondary_digest,
                                  primary_hint="c1"))
    return responses


@st.composite
def small_streams(draw):
    """``(k, [(time, Response), ...])``: up to four triggers on a 5 ms
    grid, responses missing, duplicated, corrupted and in any order."""
    k = draw(st.integers(min_value=0, max_value=2))
    arrivals = []
    for index in range(draw(st.integers(min_value=1, max_value=4))):
        corrupted = draw(st.sets(st.sampled_from(_SECONDARIES), max_size=1))
        for response in _response_set(index, k, corrupted):
            for _ in range(draw(st.sampled_from((1, 1, 1, 1, 0, 2)))):
                arrivals.append((draw(st.integers(0, _GRID_STEPS)) * _GRID_MS,
                                 response))
    arrivals = draw(st.permutations(arrivals))
    return k, sorted(arrivals, key=lambda arrival: arrival[0])


def _drive(make, arrivals, scheduled=False):
    """Feed ``arrivals`` and settle, the two ways engines are fed.

    By default the clock is advanced to each arrival before it is ingested
    (the bench stream loops), so a θτ event due at that instant has fired
    already. ``scheduled`` puts every ingest on the simulator up front
    (``replay_validation_stream``, the fuzz oracle): an ingest event is then
    always older than the θτ event it ties with and runs first. The rule is
    the same either way — a deadline ≤ the arrival fires before the
    response is counted — and the reference implements it on its own."""
    sim = Simulator(seed=0)
    engine = make(sim)
    for time_ms, response in arrivals:
        if scheduled:
            sim.schedule_at(time_ms, engine.ingest, response)
        else:
            sim.run(until=time_ms)
            engine.ingest(response)
    sim.run(until=_GRID_STEPS * _GRID_MS + 4 * SMALL_TIMEOUT_MS)
    return engine


@given(small_streams())
@settings(max_examples=60, deadline=None)
def test_small_streams_match_the_reference(stream):
    k, arrivals = stream
    engines = _engines(k, timeout_ms=SMALL_TIMEOUT_MS)
    for scheduled in (False, True):
        expected = _fingerprint(_drive(engines["reference"], arrivals,
                                       scheduled))
        for label, make in engines.items():
            if label != "reference":
                engine = _drive(make, arrivals, scheduled)
                assert _fingerprint(engine) == expected, (label, scheduled)
                assert engine.pending_count == 0


def test_a_response_landing_exactly_on_its_deadline_is_late():
    """Replayed the way the oracle replays (every ingest scheduled up
    front, so the arrival's event is older than the θτ event it ties
    with): trigger 0's fourth response arrives at exactly first arrival +
    θτ and is dropped as late in every engine; trigger 1's first response
    shares that instant and is counted after trigger 0 is decided."""
    first, second = _response_set(0, 1), _response_set(1, 1)
    records = [RecordedResponse(time_ms=0.0, response=r) for r in first[:3]]
    records += [RecordedResponse(time_ms=TIMEOUT_MS, response=r)
                for r in (second[0], first[3])]
    records += [RecordedResponse(time_ms=TIMEOUT_MS + 1.0, response=r)
                for r in second[1:]]
    for label, make in _engines(1).items():
        engine = replay_validation_stream(records, make,
                                          settle_ms=4 * TIMEOUT_MS)
        _, decided = _fingerprint(engine)
        assert decided == [
            (TIMEOUT_MS, "('ext', 0)", False, 3, True),
            (TIMEOUT_MS + 1.0, "('ext', 1)", True, 4, False)], label
        assert engine.late_responses == 1, label


# ----------------------------------------------------------------------
# Adaptive θτ: observe() lands between two records opened in one instant
# ----------------------------------------------------------------------

def _adaptive_stream():
    """Ten k=0 triggers warm the policy's window; then, in one instant,
    trigger 10 completes with a detection latency far above the window
    (raising the next θτ) and trigger 11 opens. Its deadline tells which
    θτ it was armed with."""
    def pair(index, at, received_at):
        tau = ("ext", index)
        entry = (("flow", index),)
        return [(at, Response("c1", tau, kind, entry,
                              trigger_received_at=received_at,
                              origin="c1" if kind is ResponseKind.CACHE_UPDATE
                              else None))
                for kind in (ResponseKind.NETWORK_WRITE,
                             ResponseKind.CACHE_UPDATE)]

    arrivals = []
    for index in range(10):
        at = 10.0 * index
        arrivals += pair(index, at, at - 2.0 - index)
    arrivals += pair(10, 200.0, 120.0)
    arrivals += pair(11, 200.0, 199.0)[:1]
    return arrivals


#: ``(τ, n_responses, timed_out, decided_at)`` of the last two decisions,
#: as the parent commit's ``Validator`` and serial N=1 both made them:
#: trigger 11 is armed with 1.3 × 80 ms, not the 14.3 ms before it.
ADAPTIVE_TAIL = [("('ext', 10)", 2, False, 200.0),
                 ("('ext', 11)", 1, True, 304.0)]


@pytest.mark.parametrize("label", ("validator", "serial N=1"))
def test_adaptive_timeout_observes_between_records_of_one_instant(label):
    def policy():
        return AdaptiveTimeout(initial_ms=40.0, floor_ms=1.0)

    make = {
        "validator": lambda sim: Validator(sim, 0, timeout=policy()),
        "serial N=1": lambda sim: ValidationPipeline(
            sim, 0, shards=1, timeout=policy()),
    }[label]
    sim = Simulator(seed=0)
    engine = make(sim)
    for time_ms, response in _adaptive_stream():
        sim.schedule_at(time_ms, engine.ingest, response)
    sim.run(until=1_000.0)
    tail = [(repr(r.trigger_id), r.n_responses, r.timed_out, r.decided_at)
            for r in engine.results[-2:]]
    assert tail == ADAPTIVE_TAIL
    assert engine.triggers_decided == 12 and not engine.alarms


# ----------------------------------------------------------------------
# Hostile input: a state digest that cannot be hashed
# ----------------------------------------------------------------------

def _hostile_stream():
    """Two k=2 triggers; the secondaries' digests are a tuple holding a
    list and a bare list — from controllers, i.e. from the components
    under suspicion."""
    return [(float(index), response)
            for index, hostile in enumerate(((("c1", [1]),), [("c1", 1)]))
            for response in _response_set(index, 2, secondary_digest=hostile)]


def test_unhashable_state_digest_is_decided_not_raised():
    engines = _engines(2, timeout_ms=SMALL_TIMEOUT_MS)
    arrivals = _hostile_stream()
    expected = _fingerprint(_drive(engines.pop("reference"), arrivals))
    assert len(expected[1]) == 2
    for label, make in engines.items():
        assert _fingerprint(_drive(make, arrivals)) == expected, label


# ----------------------------------------------------------------------
# The alarm list the two engines expose
# ----------------------------------------------------------------------

def test_validator_alarms_stay_a_list_in_emission_order():
    """Triggers 9 and 10 alarm in one instant, 9 first. The sequential
    validator lists them as decided; the pipeline's merge order puts
    ``('ext', 10)`` first (by ``repr``). Same canonical stream. And the
    validator's list can be replaced by the caller."""
    arrivals = [(0.0, response) for index in (9, 10)
                for response in _response_set(index, 1, corrupted=("s0",))]
    engines = _engines(1, timeout_ms=SMALL_TIMEOUT_MS)
    validator = _drive(engines["validator"], arrivals)
    pipeline = _drive(engines["serial N=1"], arrivals)
    assert type(validator.alarms) is list
    assert [a.trigger_id for a in validator.alarms] == [("ext", 9), ("ext", 10)]
    assert [a.trigger_id for a in pipeline.alarms] == [("ext", 10), ("ext", 9)]
    assert canonical_alarm_stream(validator.alarms) == \
        canonical_alarm_stream(pipeline.alarms)

    validator.alarms = fresh = []
    for response in _response_set(11, 1, corrupted=("s0",)):
        validator.ingest(response)
    assert [a.trigger_id for a in fresh] == [("ext", 11)]
    assert validator.alarms is fresh


# ----------------------------------------------------------------------
# Structure: the loop's building blocks exist once
# ----------------------------------------------------------------------

_CORE = Path(__file__).resolve().parents[1] / "src" / "repro" / "core"


def _code_hits(pattern, skip=()):
    """``relative path → number of code lines matching`` under
    ``src/repro/core``; comments and strings (docstrings) do not count."""
    regex = re.compile(pattern)
    hits = {}
    for path in sorted(_CORE.rglob("*.py")):
        if path.name in skip:
            continue
        lines = {}
        with tokenize.open(path) as source:
            for token in tokenize.generate_tokens(source.readline):
                if token.type not in (tokenize.COMMENT, tokenize.STRING):
                    lines.setdefault(token.start[0], []).append(token.string)
        count = sum(1 for parts in lines.values()
                    if regex.search(" ".join(parts)))
        if count:
            hits[str(path.relative_to(_CORE))] = count
    return hits


@pytest.mark.parametrize("what,pattern,skip,home", [
    ("θτ deadline heap", r"heapq \. heappush \(", (),
     "backends/shardcore.py"),
    ("late-drop window", r"\bLateDropWindow \(", (),
     "backends/shardcore.py"),
    ("detection baseline scan", r"trigger_received_at is not None", (),
     "backends/shardcore.py"),
    # consensus.py defines both; the question is who calls them.
    ("unanimity fast path", r"\bunanimity_fast_consensus \(",
     ("consensus.py",), "backends/shardcore.py"),
    ("full consensus", r"\bevaluate_consensus \(", ("consensus.py",),
     "backends/shardcore.py"),
    ("Ψ update", r"cache_updates \+= 1", (), "validator.py"),
])
def test_the_decision_loop_exists_once(what, pattern, skip, home):
    """On the parent commit these were in 2, 3, 3, 2, 2 and 2 files."""
    assert _code_hits(pattern, skip) == {home: 1}, what
