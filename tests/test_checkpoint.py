"""Crash recovery (repro.core.checkpoint): envelope, WAL, round trips, soak.

The headline property mirrors the differential suites' currency: restore
from a checkpoint plus a WAL-tail replay must reproduce the uninterrupted
run's canonical alarm stream *byte for byte* (``flush_interval_ms=0``
regime, ``docs/recovery.md``). The workload here is the soak harness's
indexed stream — a pure function of the trigger index — so cut points can
land anywhere and the remainder is always recomputable.
"""

from __future__ import annotations

import json
import os
from collections import Counter

import pytest

from repro.config import JuryConfig
from repro.core.alarms import canonical_alarm_stream
from repro.core.checkpoint import (
    Checkpoint,
    WriteAheadLog,
    replay_stream,
    replay_wal,
    restore_engine,
    run_with_recovery,
    settle,
    wal_last_ingest_time,
    wal_tail,
)
from repro.core.pipeline import ValidationPipeline
from repro.core.responses import ResponseKind
from repro.core.timeouts import StaticTimeout
from repro.core.validator import Validator
from repro.errors import CheckpointError
from repro.harness.soak import soak_stream, soak_trigger
from repro.sim.simulator import Simulator

K = 3
TIMEOUT_MS = 250.0
SPACING_MS = 5.0
SETTLE_MS = 5_000.0


def _stream(triggers=120, seed=1):
    return soak_stream(triggers, K, seed, SPACING_MS)


def _make_validator(sim):
    return Validator(sim, K, timeout=StaticTimeout(TIMEOUT_MS))


def _make_pipeline(shards):
    def make(sim):
        return ValidationPipeline(sim, K, shards=shards,
                                  timeout=StaticTimeout(TIMEOUT_MS))
    return make


def _run(make, records):
    """Uninterrupted reference run over ``records``."""
    return replay_stream(records, make, SETTLE_MS)


# ----------------------------------------------------------------------
# Checkpoint envelope: versioned, digest-stamped, tamper-evident
# ----------------------------------------------------------------------

def test_envelope_build_state_round_trip():
    state = {"psi": {"c1": (1, 2)}, "alarms": [], "counters": (3, 2, 0, 0)}
    checkpoint = Checkpoint.build({"engine": "validator", "k": 3}, state)
    assert checkpoint.state() == state
    assert len(checkpoint.sha256) == 64
    clone = Checkpoint.from_json(checkpoint.to_json())
    assert clone.state() == state
    assert clone.sha256 == checkpoint.sha256
    assert clone.meta == checkpoint.meta


def test_envelope_detects_tampered_body():
    checkpoint = Checkpoint.build({}, {"x": 1})
    checkpoint.body = checkpoint.body[:-1] + b"\x00"
    with pytest.raises(CheckpointError, match="digest mismatch"):
        checkpoint.state()
    payload = Checkpoint.build({}, {"x": 1}).to_json()
    payload["sha256"] = "0" * 64
    with pytest.raises(CheckpointError, match="digest mismatch"):
        Checkpoint.from_json(payload)


def test_envelope_rejects_foreign_payloads():
    with pytest.raises(CheckpointError, match="not a jury-checkpoint"):
        Checkpoint.from_json({"format": "jury-flight"})
    good = Checkpoint.build({}, {}).to_json()
    good["version"] = 99
    with pytest.raises(CheckpointError, match="version"):
        Checkpoint.from_json(good)
    bad_body = Checkpoint.build({}, {}).to_json()
    bad_body["body"] = "not base64!!!"
    with pytest.raises(CheckpointError, match="unreadable"):
        Checkpoint.from_json(bad_body)


def _meta_without(field):
    meta = {"engine": "validator", "k": 3, "timeout_ms": 250.0}
    del meta[field]
    return meta


@pytest.mark.parametrize("meta,field", [
    ("abc", "mapping"),
    (5, "mapping"),
    ([1, 2], "mapping"),
    (_meta_without("timeout_ms"), "timeout_ms"),
    (_meta_without("k"), "'k'"),
    ({"engine": "validator", "k": "x", "timeout_ms": 250.0}, "'k'"),
    ({"engine": "validator", "k": 3, "timeout_ms": [1]}, "timeout_ms"),
    ({"engine": "pipeline", "k": 3, "timeout_ms": 250.0}, "shards"),
], ids=["str", "int", "list", "no-timeout", "no-k", "str-k", "list-timeout",
        "no-shards"])
def test_hostile_meta_is_refused_as_checkpoint_error(meta, field):
    """A malformed meta never escapes as ValueError/TypeError/KeyError:
    ``from_json`` refuses a meta that is not a mapping, and
    ``restore_engine`` names the missing or ill-typed shape field."""
    payload = {**Checkpoint.build({}, {}).to_json(), "meta": meta}
    with pytest.raises(CheckpointError, match=field):
        restore_engine(Checkpoint.from_json(payload))


def test_version_1_envelope_is_refused(tmp_path):
    """Version 2 replaced the sequential validator's ``pending`` /
    ``recently_decided`` sections with the ``core`` payload every shard
    carries. A version-1 artifact — whatever is inside — is refused at the
    envelope, from a dict and from a file, not half-loaded."""
    legacy = Checkpoint.build(
        {"engine": "validator", "k": 3, "timeout_ms": 250.0, "sim_now": 0.0},
        {"psi": {}, "pending": {}, "recently_decided": {}, "alarms": [],
         "results": [], "counters": (0, 0, 0, 0), "trigger_ids": {},
         "staleness": (200, 1000.0)}).to_json()
    assert legacy["version"] == 2
    legacy["version"] = 1
    with pytest.raises(CheckpointError, match="version 1"):
        Checkpoint.from_json(legacy)
    path = tmp_path / "v1.json"
    path.write_text(json.dumps(legacy))
    with pytest.raises(CheckpointError, match="version 1"):
        Checkpoint.load(str(path))
    state = Validator(Simulator(seed=0), 3).checkpoint().state()
    assert "core" in state and not {"pending", "recently_decided"} & set(state)


def test_envelope_save_load_file(tmp_path):
    checkpoint = Checkpoint.build({"engine": "validator"}, {"n": 42})
    path = tmp_path / "cp.json"
    checkpoint.save(str(path))
    assert not os.path.exists(str(path) + ".tmp"), "atomic rename leftovers"
    loaded = Checkpoint.load(str(path))
    assert loaded.sha256 == checkpoint.sha256
    assert loaded.state() == {"n": 42}
    with pytest.raises(CheckpointError, match="cannot load"):
        Checkpoint.load(str(tmp_path / "missing.json"))


# ----------------------------------------------------------------------
# Write-ahead log: durability discipline and the marker-position contract
# ----------------------------------------------------------------------

def test_wal_file_round_trip(tmp_path):
    path = str(tmp_path / "wal.bin")
    with WriteAheadLog(path) as wal:
        wal.append_ingest(1.0, "r1")
        wal.append_checkpoint("a" * 64)
        wal.append_ingest(2.0, "r2")
    records = WriteAheadLog.read(path)
    assert [r[0] for r in records] == ["ingest", "checkpoint", "ingest"]
    assert wal_last_ingest_time(records) == 2.0
    assert wal_tail(records, "a" * 64)[0][2] == "r2"


def test_wal_truncated_tail_is_dropped_not_misparsed(tmp_path):
    path = str(tmp_path / "wal.bin")
    with WriteAheadLog(path) as wal:
        wal.append_ingest(1.0, "whole")
        wal.append_ingest(2.0, "torn-by-the-crash")
    size = os.path.getsize(path)
    with open(path, "r+b") as handle:
        handle.truncate(size - 3)  # cut the last record mid-pickle
    records = WriteAheadLog.read(path)
    assert len(records) == 1 and records[0][2] == "whole"


def test_wal_tail_is_position_based_not_time_based():
    # Two ingests at the *same instant* as the checkpoint: the one
    # appended before the marker is subsumed by the snapshot, the one
    # after must replay. A timestamp cut would replay both or neither.
    wal = WriteAheadLog()
    wal.append_ingest(5.0, "before")
    wal.append_checkpoint("c" * 64)
    wal.append_ingest(5.0, "after")
    tail = wal_tail(wal.records(), "c" * 64)
    assert [r[2] for r in tail] == ["after"]
    with pytest.raises(CheckpointError, match="no checkpoint marker"):
        wal_tail(wal.records(), "d" * 64)


def test_wal_tail_uses_newest_matching_marker():
    # The same digest can be checkpointed twice (idle engine): recovery
    # anchors on the *last* marker so the replayed tail is minimal.
    wal = WriteAheadLog()
    wal.append_checkpoint("e" * 64)
    wal.append_ingest(1.0, "old")
    wal.append_checkpoint("e" * 64)
    wal.append_ingest(2.0, "new")
    assert [r[2] for r in wal_tail(wal.records(), "e" * 64)] == ["new"]


def test_replay_wal_schedules_only_ingests():
    sim = Simulator(seed=0)
    seen = []

    class _Engine:
        def __init__(self):
            self.sim = sim

        def ingest(self, response):
            seen.append((sim.now, response))

    wal = WriteAheadLog()
    wal.append_ingest(3.0, "a")
    # A decision record, as logs written by older builds hold it.
    wal.append(("decision", 3.5, ("ext", 0), 0))
    wal.append_ingest(7.0, "b")
    count, last = replay_wal(_Engine(), wal.records())
    assert (count, last) == (2, 7.0)
    sim.run(until=10.0)
    assert seen == [(3.0, "a"), (7.0, "b")]


# ----------------------------------------------------------------------
# Round-trip property: restore(checkpoint(s)) is byte-identical
# ----------------------------------------------------------------------

@pytest.mark.parametrize("label,make", [
    ("validator", _make_validator),
    ("pipeline-N2", _make_pipeline(2)),
])
@pytest.mark.parametrize("cut", (0.25, 0.5, 0.75))
def test_restore_resumes_byte_identical(label, make, cut):
    """Checkpoint mid-stream, restore a fresh twin, feed it the remainder:
    the twin's settled alarm stream matches the uninterrupted run's."""
    records = _stream()
    reference = _run(make, records)
    expected = canonical_alarm_stream(reference.alarms)
    assert expected, "workload must alarm for the comparison to bite"

    cut_index = int(len(records) * cut)
    cut_time = records[cut_index][1]
    sim = Simulator(seed=0)
    engine = make(sim)
    replay_wal(engine, records[:cut_index + 1])
    sim.run(until=cut_time)
    checkpoint = engine.checkpoint()

    twin = make(Simulator(seed=0))
    twin.restore(checkpoint)
    assert twin.sim.now == cut_time
    _, last = replay_wal(twin, records[cut_index + 1:])
    settle(twin, last + SETTLE_MS)
    assert canonical_alarm_stream(twin.alarms) == expected, \
        f"{label} diverged after a restore at {cut:.0%}"
    assert twin.triggers_decided == reference.triggers_decided
    assert twin.responses_received == reference.responses_received


def test_immediate_restore_re_checkpoints_to_the_same_state():
    """checkpoint → restore → checkpoint is a fixed point: the twin's
    snapshot captures byte-identical state per section — pending records,
    Ψ, heaps and counters included. (The whole-body digest is deliberately
    not compared: pickle memoization encodes object-identity sharing
    *across* sections, and a string interned in the original process may
    be two equal objects in the twin — a representation detail, not
    state.)"""
    import pickle

    records = _stream(triggers=60)
    for make in (_make_validator, _make_pipeline(2)):
        cut = records[len(records) // 2][1]
        sim = Simulator(seed=0)
        engine = make(sim)
        replay_wal(engine, [record for record in records if record[1] <= cut])
        sim.run(until=cut)
        checkpoint = engine.checkpoint()
        sim2 = Simulator(seed=0)
        twin = make(sim2)
        twin.restore(checkpoint)
        again = twin.checkpoint()
        assert again.meta == checkpoint.meta
        state, twin_state = checkpoint.state(), again.state()
        assert state.keys() == twin_state.keys()
        for key in state:
            assert pickle.dumps(state[key], 5) == \
                pickle.dumps(twin_state[key], 5), f"{key} drifted"


def test_restore_rejects_mismatched_or_dirty_targets():
    records = _stream(triggers=30)
    engine = _run(_make_validator, records)
    checkpoint = engine.checkpoint()

    # Engine-kind and shape mismatches fail loud, not silently diverge.
    pipeline = ValidationPipeline(Simulator(seed=0), K, shards=2,
                                  timeout=StaticTimeout(TIMEOUT_MS))
    with pytest.raises(CheckpointError, match="engine"):
        pipeline.restore(checkpoint)
    wrong_k = Validator(Simulator(seed=0), K + 1,
                        timeout=StaticTimeout(TIMEOUT_MS))
    with pytest.raises(CheckpointError, match="k="):
        wrong_k.restore(checkpoint)

    # A used engine is not a restore target.
    with pytest.raises(CheckpointError, match="fresh"):
        engine.restore(checkpoint)

    # A simulator already past the checkpoint instant cannot rewind.
    late_sim = Simulator(seed=0)
    late_sim.run(until=checkpoint.meta["sim_now"] + 1.0)
    late = Validator(late_sim, K, timeout=StaticTimeout(TIMEOUT_MS))
    with pytest.raises(CheckpointError, match="past"):
        late.restore(checkpoint)


@pytest.mark.parametrize("kind", ("validator", "pipeline"))
def test_restore_refusals_and_clock_rule_are_one_for_both_engines(kind):
    """``restore`` is implemented once (``EngineSurface``): both engines
    refuse in the same words and advance the clock by the same rule."""
    def make(sim, k=K):
        if kind == "validator":
            return Validator(sim, k, timeout=StaticTimeout(TIMEOUT_MS))
        return ValidationPipeline(sim, k, shards=2,
                                  timeout=StaticTimeout(TIMEOUT_MS))

    engine = _run(make, _stream(triggers=30))
    checkpoint = engine.checkpoint()
    at = checkpoint.meta["sim_now"]
    shape = "k=3" if kind == "validator" else "k=3, shards=2"

    other = "pipeline" if kind == "validator" else "validator"
    foreign = Checkpoint.build(dict(checkpoint.meta, engine=other),
                               checkpoint.state())
    with pytest.raises(CheckpointError) as refusal:
        make(Simulator(seed=0)).restore(foreign)
    assert str(refusal.value) == (
        f"checkpoint was taken by engine {other!r}, not a {kind}")

    with pytest.raises(CheckpointError) as refusal:
        make(Simulator(seed=0), k=K + 1).restore(checkpoint)
    assert str(refusal.value) == (
        f"checkpoint shape ({shape}) does not match this {kind} "
        f"({shape.replace('k=3', 'k=4')})")

    with pytest.raises(CheckpointError) as refusal:
        engine.restore(checkpoint)
    assert str(refusal.value) == (
        f"restore target must be a fresh {kind} (this one has already "
        f"ingested {engine.responses_received} responses)")

    late_sim = Simulator(seed=0)
    late_sim.run(until=at + 1.0)
    with pytest.raises(CheckpointError) as refusal:
        make(late_sim).restore(checkpoint)
    assert str(refusal.value) == (
        f"simulator is at t={at + 1.0} ms, past the checkpoint's t={at} ms")

    # The clock is run up to the checkpoint instant inclusively, also when
    # it already stands there: what is due at that instant fires before
    # the state is replaced, what is due later does not.
    sim = Simulator(seed=0)
    sim.run(until=at)
    fired = []
    sim.schedule_at(at, fired.append, "due")
    sim.schedule_at(at + 1.0, fired.append, "later")
    twin = make(sim)
    twin.restore(checkpoint)
    assert fired == ["due"] and sim.now == at
    assert twin.triggers_decided == engine.triggers_decided


def test_checkpoint_between_submit_and_merge_carries_the_merged_psi():
    """A checkpoint taken inside a simulated instant, after that instant's
    flush: Ψ counts exactly the cache updates the shards have processed
    (those routed, less those still queued), and every routed response is
    either processed or queued."""
    records = _stream(triggers=40)
    sim = Simulator(seed=0)
    engine = _make_pipeline(2)(sim)
    taken = []
    replay_wal(engine, records)
    # Scheduled from an event that runs after the first ingest of the
    # instant (whose flush event is then already queued), a delay-0 event
    # lands after that flush.
    cut = next(time_ms for _, time_ms, response in records[len(records) // 2:]
               if response.kind is ResponseKind.CACHE_UPDATE)
    sim.schedule_at(cut, sim.schedule, 0.0,
                    lambda: taken.append(engine.checkpoint()))
    settle(engine, records[-1][1] + SETTLE_MS)
    state = taken[0].state()
    relayed = {cid: fields[0] for cid, fields in state["psi"].items()
               if fields[0]}
    routed = state["counters"][0]
    queued = [response for shard in state["shards"]
              for _, response in shard["queue"] + shard["overflow"]]
    processed_updates = Counter(
        response.controller_id for _, _, response in records[:routed]
        if response.kind is ResponseKind.CACHE_UPDATE)
    processed_updates.subtract(
        response.controller_id for response in queued
        if response.kind is ResponseKind.CACHE_UPDATE)
    assert relayed == {cid: count for cid, count in processed_updates.items()
                       if count}
    processed = sum(shard["stats"]["processed"] for shard in state["shards"])
    assert processed + len(queued) == routed

    # And the envelope restores to a run that ends like the original.
    twin_sim = Simulator(seed=0)
    twin = _make_pipeline(2)(twin_sim)
    twin.restore(taken[0])
    replay_wal(twin, [record for record in records if record[1] > cut])
    twin_sim.run(until=records[-1][1] + SETTLE_MS)
    assert canonical_alarm_stream(twin.alarms) == \
        canonical_alarm_stream(engine.alarms)
    assert twin.triggers_decided == engine.triggers_decided


def test_checkpoint_with_a_legacy_backend_meta_restores():
    """Older builds recorded the execution backend in a pipeline
    checkpoint's meta. New checkpoints leave it out, and an old envelope
    whose meta says ``"backend": "processes"`` restores onto the
    in-process pipeline and replays byte-identically."""
    records = _stream(triggers=80)
    reference = _run(_make_pipeline(2), records)
    expected = canonical_alarm_stream(reference.alarms)

    cut_index = len(records) // 2
    cut_time = records[cut_index][1]
    sim = Simulator(seed=0)
    engine = _make_pipeline(2)(sim)
    replay_wal(engine, records[:cut_index + 1])
    sim.run(until=cut_time)
    checkpoint = engine.checkpoint()
    assert "backend" not in checkpoint.meta

    payload = checkpoint.to_json()
    payload["meta"]["backend"] = "processes"
    legacy = Checkpoint.from_json(json.loads(json.dumps(payload)))
    twin = restore_engine(legacy)
    assert isinstance(twin, ValidationPipeline)
    _, last = replay_wal(twin, records[cut_index + 1:])
    settle(twin, last + SETTLE_MS)
    assert canonical_alarm_stream(twin.alarms) == expected
    assert twin.triggers_decided == reference.triggers_decided


def test_checkpoint_with_legacy_shard_views_restores():
    """Older builds also wrote per-shard Ψ views (``local_progress``,
    ``local_cache_updates``) into each shard payload of a version-2
    pipeline body. Restore ignores them and replays byte-identically."""
    records = _stream(triggers=80)
    reference = _run(_make_pipeline(4), records)
    expected = canonical_alarm_stream(reference.alarms)

    cut_index = len(records) // 2
    sim = Simulator(seed=0)
    engine = _make_pipeline(4)(sim)
    replay_wal(engine, records[:cut_index + 1])
    sim.run(until=records[cut_index][1])
    checkpoint = engine.checkpoint()
    state = checkpoint.state()
    views = {cid: fields[0] for cid, fields in state["psi"].items()}
    state["shards"] = [dict(payload, local_progress=dict(views),
                            local_cache_updates=dict(views))
                       for payload in state["shards"]]
    legacy = Checkpoint.build(checkpoint.meta, state)
    twin = restore_engine(legacy)
    _, last = replay_wal(twin, records[cut_index + 1:])
    settle(twin, last + SETTLE_MS)
    assert canonical_alarm_stream(twin.alarms) == expected
    assert twin.triggers_decided == reference.triggers_decided


def _pending_checkpoint(make):
    """A checkpoint with 50 triggers pending: ``s1`` never responds, and
    the clock stops before the first θτ runs out."""
    records = [record for record in _stream(triggers=50)
               if record[2].controller_id != "s1"]
    sim = Simulator(seed=0)
    engine = make(sim)
    replay_wal(engine, records)
    sim.run(until=records[-1][1])
    assert engine.pending_count == 50
    return engine.checkpoint()


def _without(key):
    def edit(state):
        del state[key]
    return edit


@pytest.mark.parametrize("make,edit,message", [
    (_make_pipeline(4), lambda state: state.update(shards=state["shards"][:2]),
     "2 shard payloads for 4 shards"),
    (_make_pipeline(4), _without("psi"), "checkpoint body has no 'psi'"),
    (_make_pipeline(4), _without("shards"), "checkpoint body has no 'shards'"),
    (_make_validator, _without("counters"),
     "checkpoint body has no 'counters'"),
    (_make_validator, _without("core"), "checkpoint body has no 'core'"),
], ids=["pipeline-shard-subset", "pipeline-no-psi", "pipeline-no-shards",
        "validator-no-counters", "validator-no-core"])
def test_malformed_body_is_refused_as_checkpoint_error(make, edit, message):
    """A digest-valid body that lacks a key, or carries fewer shard
    payloads than its meta's shard count, is refused by name instead of
    raising ``KeyError`` or restoring a subset of the pending triggers."""
    checkpoint = _pending_checkpoint(make)
    state = checkpoint.state()
    edit(state)
    with pytest.raises(CheckpointError, match=message):
        restore_engine(Checkpoint.build(checkpoint.meta, state))


# ----------------------------------------------------------------------
# Auto-checkpointing (checkpoint_every) and the config/deployment wiring
# ----------------------------------------------------------------------

def test_auto_checkpoint_fires_and_newest_snapshot_restores():
    records = _stream(triggers=100)
    taken = []
    sim = Simulator(seed=0)
    engine = ValidationPipeline(sim, K, shards=2,
                                timeout=StaticTimeout(TIMEOUT_MS),
                                checkpoint_every=25,
                                on_checkpoint=taken.append)
    wal = WriteAheadLog()
    engine.wal = wal
    replay_wal(engine, records)
    settle(engine, records[-1][1] + SETTLE_MS)
    expected = canonical_alarm_stream(engine.alarms)
    assert len(taken) >= 3, "100 decided triggers at every-25 must snapshot"
    decided = [cp.meta["triggers_decided"] for cp in taken]
    assert decided == sorted(decided)
    # Each snapshot left its marker in the WAL, newest last.
    markers = [r[1] for r in wal.records() if r[0] == "checkpoint"]
    assert markers == [cp.sha256 for cp in taken]
    # The newest snapshot alone already carries the full alarm history
    # (nothing was pending at quiescence).
    twin = restore_engine(taken[-1])
    assert canonical_alarm_stream(twin.alarms) == expected


def test_config_checkpoint_every_validation_and_deployment_wiring():
    with pytest.raises(Exception):
        JuryConfig(kind="onos", n=3, k=2, checkpoint_every=0)
    with pytest.raises(Exception):
        JuryConfig(kind="onos", n=3, k=2, checkpoint_every=True)
    config = JuryConfig(kind="onos", n=3, k=2, switches=4, seed=3,
                        timeout_ms=200.0, policies=("default",),
                        checkpoint_every=5)
    assert config.describe()["checkpoint_every"] == 5
    assert JuryConfig.from_dict(config.to_dict()).checkpoint_every == 5

    from repro.api import Jury
    from repro.workloads.traffic import TrafficDriver
    experiment = Jury.experiment(config)
    experiment.warmup()
    deployment = experiment.jury
    driver = TrafficDriver(experiment.sim, experiment.topology,
                           packet_in_rate_per_s=300.0, duration_ms=200.0)
    driver.start()
    experiment.run(200.0 + 4 * 200.0)
    assert deployment.validator.triggers_decided >= 5
    newest = deployment.last_checkpoint
    assert newest is not None, "deployment must keep the newest snapshot"
    assert newest.meta["engine"] == "validator"
    # The kept snapshot is a live restore point, not just bookkeeping.
    twin = restore_engine(newest)
    assert twin.triggers_decided == newest.meta["triggers_decided"]


# ----------------------------------------------------------------------
# Kill/recover through run_with_recovery on the indexed workload
# ----------------------------------------------------------------------

@pytest.mark.parametrize("shards", (None, 1, 2, 4, 8))
def test_run_with_recovery_matches_uninterrupted(shards):
    records = _stream(triggers=90, seed=4)
    make = _make_validator if shards is None else _make_pipeline(shards)
    expected = canonical_alarm_stream(_run(make, records).alarms)
    for kill_fraction in (0.2, 0.6):
        kill_index = int(len(records) * kill_fraction)
        recovered = run_with_recovery(records, make, kill_index,
                                      checkpoint_every=10,
                                      settle_ms=SETTLE_MS)
        label = f"N={shards} kill@{kill_fraction:.0%}"
        assert canonical_alarm_stream(recovered.alarms) == expected, \
            f"{label}: recovery diverged"


def test_run_with_recovery_kill_before_first_checkpoint():
    """A kill inside the first interval restores from the t=0 baseline
    snapshot and replays the whole WAL."""
    records = _stream(triggers=40, seed=2)
    expected = canonical_alarm_stream(_run(_make_validator, records).alarms)
    recovered = run_with_recovery(records, _make_validator, kill_index=3,
                                  checkpoint_every=1_000_000,
                                  settle_ms=SETTLE_MS)
    assert canonical_alarm_stream(recovered.alarms) == expected


# ----------------------------------------------------------------------
# Soak workload purity (what makes the parent's resume recomputable)
# ----------------------------------------------------------------------

def test_soak_workload_is_a_pure_function_of_the_index():
    a = soak_trigger(17, K, seed=0, spacing_ms=SPACING_MS)
    b = soak_trigger(17, K, seed=0, spacing_ms=SPACING_MS)
    assert a == b
    # A different seed redraws flows/faults.
    c = soak_trigger(17, K, seed=99, spacing_ms=SPACING_MS)
    assert [r[2] for r in c] != [r[2] for r in a]
    # The flat stream is the concatenation of the per-index triggers.
    stream = soak_stream(5, K, 0, SPACING_MS)
    flat = [r for i in range(5)
            for r in soak_trigger(i, K, 0, SPACING_MS)]
    assert stream == flat


def test_soak_timestamps_are_globally_distinct_and_ordered():
    stream = soak_stream(30, K, 0, SPACING_MS)
    times = [r[1] for r in stream]
    assert times == sorted(times)
    assert len(set(times)) == len(times), \
        "distinct timestamps are what make the resume boundary exact"


def test_soak_workload_plants_faults():
    # FAULT_STRIDE guarantees ~2% faulted triggers; make sure the default
    # soak actually exercises the alarm path.
    engine = _run(_make_validator, _stream(triggers=120, seed=0))
    assert engine.triggers_alarmed > 0


# ----------------------------------------------------------------------
# The soak harness end-to-end (a real SIGKILL, scaled down for CI)
# ----------------------------------------------------------------------

def test_run_soak_kill_and_recover(tmp_path):
    from repro.harness.soak import run_soak

    payload = run_soak(duration_s=2.0, kill_at_s=1.0, checkpoint_every=20,
                       rate_per_s=50.0, k=K, max_rss_mb=512.0,
                       workdir=str(tmp_path))
    assert payload["ok"], payload["failures"]
    assert payload["worker_exitcode"] == -9
    assert payload["alarm_streams_identical"] is True
    assert payload["recovered"]["decided"] == payload["reference"]["decided"]
    assert payload["worker_peak_rss_kb"] <= 512 * 1024
    # The artifacts a post-mortem needs are on disk.
    assert (tmp_path / "CHECKPOINT_sample.json").exists()
    assert (tmp_path / "soak-wal.bin").exists()


def test_run_soak_twice_in_one_workdir(tmp_path):
    """The WAL opens for append, so a second soak in the same workdir
    must start from empty files, not resume past the first run's tail."""
    from repro.harness.soak import run_soak

    first = run_soak(duration_s=4, kill_at_s=3, checkpoint_every=50,
                     workdir=str(tmp_path))
    assert first["ok"], first["failures"]
    second = run_soak(duration_s=4, kill_at_s=1, checkpoint_every=50,
                      workdir=str(tmp_path))
    assert second["ok"], second["failures"]


def test_run_soak_rejects_out_of_range_kill(tmp_path):
    from repro.harness.soak import run_soak

    with pytest.raises(CheckpointError, match="kill-at"):
        run_soak(duration_s=2.0, kill_at_s=5.0, workdir=str(tmp_path))


@pytest.mark.parametrize("timeout_ms", [-5.0, 0.0, float("nan")])
def test_run_soak_rejects_a_timeout_that_is_not_positive(tmp_path,
                                                         timeout_ms):
    from repro.harness.soak import run_soak

    with pytest.raises(CheckpointError, match="--timeout"):
        run_soak(duration_s=2.0, kill_at_s=1.0, timeout_ms=timeout_ms,
                 workdir=str(tmp_path))
    assert not list(tmp_path.iterdir()), "refused before any worker ran"


def test_soak_cli_refuses_a_negative_timeout(tmp_path):
    from repro.cli import main

    assert main(["soak", "--duration", "2", "--kill-at", "1",
                 "--timeout", "-5", "--workdir", str(tmp_path)]) == 2


@pytest.mark.parametrize("flag,value", [
    ("--replicas", "-1"),
    ("--checkpoint-every", "0"),
    ("--checkpoint-every", "-3"),
])
def test_soak_cli_refuses_an_invalid_value_naming_its_flag(tmp_path, capsys,
                                                          flag, value):
    from repro.cli import main

    workdir = tmp_path / "work"
    assert main(["soak", "--duration", "2", "--kill-at", "1", flag, value,
                 "--workdir", str(workdir)]) == 2
    assert f"soak: {flag}: " in capsys.readouterr().err
    assert not list(workdir.iterdir()), "refused before any worker ran"


def test_soak_cli_round_trip(tmp_path):
    from repro.cli import main

    sample = tmp_path / "CHECKPOINT_out.json"
    code = main(["soak", "--duration", "2", "--kill-at", "1",
                 "--rate", "50", "--checkpoint-every", "20",
                 "--workdir", str(tmp_path / "work"),
                 "--checkpoint-output", str(sample)])
    assert code == 0
    # The uploaded sample is a loadable, digest-verified checkpoint.
    checkpoint = Checkpoint.load(str(sample))
    assert checkpoint.meta["engine"] == "validator"
    assert main(["soak", "--duration", "2", "--kill-at", "9"]) == 2


# ----------------------------------------------------------------------
# Fuzz-corpus streams through the recovery path
# ----------------------------------------------------------------------

def test_fuzz_corpus_replays_through_restored_pipeline(small_fuzz_corpus):
    """Recorded fuzz scenarios survive a mid-stream kill + restore at
    N ∈ {2, 4}: the recovered stream matches the sequential replay."""
    from repro.faults.injector import default_policy_engine
    from repro.fuzz import DifferentialOracle

    oracle = DifferentialOracle()
    faulted = next(s for s in small_fuzz_corpus if s.faults)
    clean = next(s for s in small_fuzz_corpus if not s.faults)
    for spec in (faulted, clean):
        live = oracle.record(spec)
        assert live.records, f"seed {spec.seed} recorded nothing"
        lookup = live.mastership.get
        sequential = replay_stream(
            live.records, lambda sim: Validator(
                sim, spec.k, timeout=StaticTimeout(spec.timeout_ms),
                policy_engine=default_policy_engine(),
                mastership_lookup=lookup))
        expected = canonical_alarm_stream(sequential.alarms)
        for shards in (2, 4):
            def make(sim):
                return ValidationPipeline(
                    sim, spec.k, shards=shards,
                    timeout=StaticTimeout(spec.timeout_ms),
                    policy_engine=default_policy_engine(),
                    mastership_lookup=lookup)

            recovered = run_with_recovery(
                live.records, make, kill_index=len(live.records) // 3,
                checkpoint_every=8)
            assert canonical_alarm_stream(recovered.alarms) == expected, \
                f"seed {spec.seed} diverged through recovery at N={shards}"
