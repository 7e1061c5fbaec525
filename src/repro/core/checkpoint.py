"""Crash-recovery checkpoints and the write-ahead log.

A long-lived validator deployment cannot afford to lose its in-flight
state: a crash drops every pending θτ deadline, the per-controller Ψid
view, and the alarm history, and replaying a production stream from frame
0 is exactly the unbounded cost JURY's out-of-band design avoids. This
module gives every engine flavour (sequential
:class:`~repro.core.validator.Validator`, sharded
:class:`~repro.core.pipeline.ValidationPipeline`) a common recovery
currency:

* :class:`Checkpoint` — a versioned, sha-256-stamped snapshot envelope.
  The body is a pickled state dict produced by the engine's
  ``checkpoint()`` method; the digest covers the body bytes, so a
  truncated or tampered snapshot fails loud at :meth:`Checkpoint.state`
  rather than silently diverging after restore. The JSON export
  (``format: "jury-checkpoint"``) is the on-disk/CI artifact shape.
* :class:`WriteAheadLog` — an append-only log of post-checkpoint inputs.
  Every ingested response is appended (and flushed) *before* it can
  influence a decision, and each checkpoint appends a marker carrying its
  digest. Recovery = load the newest checkpoint, then replay the WAL
  records *after* its marker: the marker's position in the log (not its
  timestamp) resolves same-instant ties, so a response that arrived in
  the same simulated instant as the checkpoint is replayed exactly once.
* :func:`restore_engine` / :func:`replay_wal` / :func:`run_with_recovery`
  — the recovery path itself, shared by the differential suite, the
  fuzz oracle's ``RECOVERY_DIVERGENCE`` invariant, and the soak harness.

The WAL is also the one *recorded stream*: attach a ``WriteAheadLog`` to
a live engine, and :func:`replay_stream` replays its :func:`wal_ingests`
into a fresh one (the differential suites, goldens and fuzz oracle).

Determinism contract: with ``flush_interval_ms=0`` (the byte-identical
regime of ``docs/pipeline.md``), ``restore(checkpoint) + WAL replay +
remaining input`` yields a canonical alarm stream byte-identical to the
uninterrupted run's. Adaptive timeout policies are re-seeded from the
timeout value captured at checkpoint time.

This module is dependency-light by design — engines are imported lazily
inside the restore helpers so ``validator.py`` and ``pipeline.py`` can
import the envelope types without a cycle.
"""

from __future__ import annotations

import base64
import hashlib
import json
import os
import pickle
import struct
from typing import Callable, Dict, List, Optional, Tuple

from repro.errors import CheckpointError

#: Envelope identity of the JSON export (mirrors ``jury-flight``).
CHECKPOINT_FORMAT = "jury-checkpoint"
CHECKPOINT_VERSION = 2

#: WAL record tags. ``ingest`` records are the replay inputs; ``decision``
#: records are a cheap cross-check trail (never replayed — decisions are
#: recomputed deterministically); ``checkpoint`` markers anchor recovery.
WAL_INGEST = "ingest"
WAL_DECISION = "decision"
WAL_CHECKPOINT = "checkpoint"

_LEN = struct.Struct("<I")


class Checkpoint:
    """A versioned, digest-stamped engine snapshot.

    ``meta`` is a JSON-safe dict describing the engine shape (kind, k,
    shards, timeout, simulated time, counters); ``body`` is the pickled
    state dict; ``sha256`` is the hex digest over the body bytes and is
    the identity the WAL markers and restore path key on.
    """

    __slots__ = ("meta", "body", "sha256")

    def __init__(self, meta: Dict[str, object], body: bytes, sha256: str):
        self.meta = meta
        self.body = body
        self.sha256 = sha256

    @classmethod
    def build(cls, meta: Dict[str, object],
              state: Dict[str, object]) -> "Checkpoint":
        body = pickle.dumps(state, protocol=pickle.HIGHEST_PROTOCOL)
        return cls(dict(meta), body, hashlib.sha256(body).hexdigest())

    def _verify(self) -> "Checkpoint":
        digest = hashlib.sha256(self.body).hexdigest()
        if digest != self.sha256:
            raise CheckpointError(
                f"checkpoint digest mismatch: body hashes to {digest[:12]}…, "
                f"envelope claims {self.sha256[:12]}…")
        return self

    def state(self) -> Dict[str, object]:
        """Verify the digest and unpickle the state dict."""
        return pickle.loads(self._verify().body)

    # ------------------------------------------------------------------
    # JSON envelope (the on-disk / CI-artifact shape)
    # ------------------------------------------------------------------
    def to_json(self) -> Dict[str, object]:
        return {
            "format": CHECKPOINT_FORMAT,
            "version": CHECKPOINT_VERSION,
            "sha256": self.sha256,
            "meta": dict(self.meta),
            "body": base64.b64encode(self.body).decode("ascii"),
        }

    @classmethod
    def from_json(cls, payload: Dict[str, object]) -> "Checkpoint":
        if not isinstance(payload, dict) \
                or payload.get("format") != CHECKPOINT_FORMAT:
            raise CheckpointError(
                f"not a {CHECKPOINT_FORMAT} payload: "
                f"format={payload.get('format')!r}"
                if isinstance(payload, dict)
                else f"not a {CHECKPOINT_FORMAT} payload")
        if payload.get("version") != CHECKPOINT_VERSION:
            raise CheckpointError(
                f"unsupported checkpoint version {payload.get('version')!r} "
                f"(this build reads version {CHECKPOINT_VERSION})")
        try:
            body = base64.b64decode(payload["body"], validate=True)
        except (KeyError, ValueError, TypeError) as exc:
            raise CheckpointError(f"unreadable checkpoint body: {exc}")
        meta = payload.get("meta", {})
        if not isinstance(meta, dict):
            raise CheckpointError(f"checkpoint meta is a "
                                  f"{type(meta).__name__}, not a mapping")
        return cls(dict(meta), body, str(payload.get("sha256")))._verify()

    def save(self, path: str) -> None:
        """Atomically write the JSON envelope (write temp + rename)."""
        tmp = f"{path}.tmp"
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(self.to_json(), handle, indent=2, sort_keys=True)
            handle.write("\n")
            handle.flush()
        os.replace(tmp, path)

    @classmethod
    def load(cls, path: str) -> "Checkpoint":
        try:
            with open(path, "r", encoding="utf-8") as handle:
                payload = json.load(handle)
        except (OSError, ValueError) as exc:
            raise CheckpointError(f"cannot load checkpoint {path}: {exc}")
        return cls.from_json(payload)


class WriteAheadLog:
    """Append-only log of post-checkpoint inputs (and a decision trail).

    File-backed (``path=...``) for real crash recovery or in-memory
    (``path=None``) for the differential/fuzz rigs. File records are
    length-prefixed pickle frames, flushed per append — the page cache
    makes a flushed record durable across a process ``SIGKILL`` (the
    failure model of the soak harness; machine-crash durability would add
    an fsync here). The reader tolerates a truncated tail: a record cut
    mid-write by the crash is dropped, never mis-parsed.
    """

    def __init__(self, path: Optional[str] = None):
        self.path = path
        self._records: Optional[List[Tuple]] = None
        self._handle = None
        if path is None:
            self._records = []
        else:
            self._handle = open(path, "ab")

    # ------------------------------------------------------------------
    # Append side (the engine's ingest/decision/checkpoint hooks)
    # ------------------------------------------------------------------
    def append(self, record: Tuple) -> None:
        if self._records is not None:
            self._records.append(record)
            return
        blob = pickle.dumps(record, protocol=pickle.HIGHEST_PROTOCOL)
        self._handle.write(_LEN.pack(len(blob)))
        self._handle.write(blob)
        self._handle.flush()

    def append_ingest(self, time_ms: float, response) -> None:
        self.append((WAL_INGEST, time_ms, response))

    def append_decision(self, time_ms: float, trigger_id: Tuple,
                        alarm_count: int) -> None:
        self.append((WAL_DECISION, time_ms, trigger_id, alarm_count))

    def append_checkpoint(self, sha256: str) -> None:
        self.append((WAL_CHECKPOINT, sha256))

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "WriteAheadLog":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Read side (recovery)
    # ------------------------------------------------------------------
    def records(self) -> List[Tuple]:
        if self._records is not None:
            return list(self._records)
        if self._handle is not None:
            self._handle.flush()
        return self.read(self.path)

    @staticmethod
    def read(path: str) -> List[Tuple]:
        """Read every complete record; a truncated tail is dropped."""
        records: List[Tuple] = []
        try:
            with open(path, "rb") as handle:
                data = handle.read()
        except OSError as exc:
            raise CheckpointError(f"cannot read WAL {path}: {exc}")
        offset = 0
        total = len(data)
        while offset + _LEN.size <= total:
            (length,) = _LEN.unpack_from(data, offset)
            start = offset + _LEN.size
            if start + length > total:
                break  # crash mid-write: drop the torn tail record
            records.append(pickle.loads(data[start:start + length]))
            offset = start + length
        return records


def wal_tail(records: List[Tuple], sha256: str) -> List[Tuple]:
    """Records after the *last* checkpoint marker matching ``sha256``.

    Position in the log — not timestamps — is what separates replayed
    from already-checkpointed inputs, so same-instant arrivals around the
    checkpoint are replayed exactly once.
    """
    marker = None
    for index, record in enumerate(records):
        if record[0] == WAL_CHECKPOINT and record[1] == sha256:
            marker = index
    if marker is None:
        raise CheckpointError(
            f"WAL has no checkpoint marker for {sha256[:12]}… "
            f"({len(records)} records scanned)")
    return records[marker + 1:]


def wal_ingests(records: List[Tuple]) -> List[Tuple]:
    """A log's ``(WAL_INGEST, time_ms, response)`` records, in log order:
    every response the engine saw, at the instant it saw it."""
    return [record for record in records if record[0] == WAL_INGEST]


def wal_last_ingest_time(records: List[Tuple]) -> Optional[float]:
    """Timestamp of the newest ingest record, or None for an empty log."""
    return max((record[1] for record in wal_ingests(records)), default=None)


def replay_wal(engine, records: List[Tuple]) -> Tuple[int, float]:
    """Schedule a log's ingest records into ``engine``, in list order.

    The one place recorded responses enter an engine. Schedules only; the
    caller runs the simulator (usually via :func:`settle`), so a WAL tail
    followed by the resumed input keeps same-instant FIFO order. Returns
    ``(scheduled_count, last_time)``; ``last_time`` falls back to the
    engine's current simulated time.
    """
    sim = engine.sim
    count, last = 0, sim.now
    for record in records:
        if record[0] == WAL_INGEST:
            sim.schedule_at(record[1], engine.ingest, record[2])
            last = max(last, record[1])
            count += 1
    return count, last


def settle(engine, until: float):
    """Run ``engine``'s simulator to ``until``, then drain what it still
    buffers (a pipeline's shard queues). Returns the engine."""
    engine.sim.run(until=until)
    drain = getattr(engine, "drain", None)
    if drain is not None:
        drain()
    return engine


def replay_stream(records: List[Tuple], make_engine: Callable,
                  settle_ms: float = 10_000.0):
    """Replay a recorded stream into ``make_engine(fresh simulator)``.

    Responses arrive at their recorded times, so θτ timers behave as they
    did live; ``settle_ms`` past the last arrival lets trailing deadlines
    fire. Returns the engine.
    """
    from repro.sim.simulator import Simulator

    engine = make_engine(Simulator(seed=0))
    _, last = replay_wal(engine, records)
    return settle(engine, last + settle_ms)


# ----------------------------------------------------------------------
# Restore helpers (engines imported lazily; see module docstring)
# ----------------------------------------------------------------------
def restore_engine(checkpoint: Checkpoint, **overrides):
    """Build a fresh simulator + engine from a checkpoint and restore it.

    The engine shape (kind, k, shards, timeout, batching knobs) comes from
    the checkpoint's meta (a missing or ill-typed field is a
    :class:`CheckpointError` naming it); keyword overrides (observers,
    ``wal=``, ``checkpoint_every=`` …) layer on top. ``restore()`` advances
    the new simulator to the checkpointed instant. A ``meta["backend"]``
    written by older builds is ignored: every shard runs in process.
    """
    from repro.core.timeouts import StaticTimeout
    from repro.sim.simulator import Simulator

    meta = checkpoint.meta

    def shape(name: str, cast: Callable, default=None):
        value = meta.get(name, default)
        if value is None:
            raise CheckpointError(f"checkpoint meta has no {name!r}")
        try:
            return cast(value)
        except (TypeError, ValueError, OverflowError):
            raise CheckpointError(f"checkpoint meta {name!r} must be "
                                  f"{cast.__name__}, got {value!r}") from None

    kind = meta.get("engine")
    if kind not in ("validator", "pipeline"):
        raise CheckpointError(f"unknown engine kind in checkpoint: {kind!r}")
    sim = Simulator(seed=0)
    common = dict(
        timeout=StaticTimeout(shape("timeout_ms", float)),
        keep_results=shape("keep_results", bool, True),
        state_aware=shape("state_aware", bool, True),
        taint_classification=shape("taint_classification", bool, True),
        **overrides)
    if kind == "validator":
        from repro.core.validator import Validator
        engine = Validator(sim, shape("k", int), **common)
    else:
        from repro.core.pipeline import ValidationPipeline
        engine = ValidationPipeline(
            sim, shape("k", int), shards=shape("shards", int),
            queue_capacity=shape("queue_capacity", int, 1024),
            batch_max=shape("batch_max", int, 512),
            flush_interval_ms=shape("flush_interval_ms", float, 0.0),
            **common)
    engine.restore(checkpoint)
    return engine


def run_with_recovery(records: List[Tuple], make_engine: Callable,
                      kill_index: int, checkpoint_every: int = 8,
                      settle_ms: float = 10_000.0):
    """Crash an engine mid-stream, recover a twin, finish the stream.

    Drives ``records`` (WAL ingest records ``(WAL_INGEST, time_ms,
    response)``, e.g. :func:`wal_ingests` of a live run's log) into a
    checkpointing engine built by ``make_engine(sim)``, abandons it after
    ingesting ``records[:kill_index]`` (the in-memory analog of
    ``kill -9``: pending timers and parent state are simply dropped; only
    the WAL and the checkpoints survive), then builds a second engine,
    restores the newest checkpoint, replays the WAL tail plus
    ``records[kill_index:]``, settles, and returns the recovered engine.
    Its canonical alarm stream — checkpoint-carried alarms included — is
    directly comparable to an uninterrupted run's.
    """
    from repro.sim.simulator import Simulator

    kill_index = max(0, min(kill_index, len(records)))
    wal = WriteAheadLog()
    newest: Dict[str, Checkpoint] = {}

    engine1 = make_engine(Simulator(seed=0))
    engine1.wal = wal
    engine1.checkpoint_every = checkpoint_every
    engine1.on_checkpoint = lambda cp: newest.__setitem__("cp", cp)
    # Baseline snapshot at t=0 so a kill inside the first interval still
    # has a restore point (production would checkpoint at deploy time).
    newest["cp"] = engine1.checkpoint()
    count, last = replay_wal(engine1, records[:kill_index])
    if count:
        engine1.sim.run(until=last)

    checkpoint = newest["cp"]
    engine2 = make_engine(Simulator(seed=0))
    engine2.restore(checkpoint)
    _, last = replay_wal(engine2, wal_tail(wal.records(), checkpoint.sha256)
                         + records[kill_index:])
    return settle(engine2, last + settle_ms)
