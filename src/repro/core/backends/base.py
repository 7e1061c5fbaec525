"""The :class:`ExecutionBackend` abstraction and its in-process backends.

A backend owns *how* a pipeline shard's work units execute:

* :class:`SerialBackend` — the inline path: ``flush_shard`` runs the
  shard's batch through the shard's own
  :class:`~repro.core.backends.shardcore.ShardCore` on the parent thread,
  with the shard itself as the core's sink. No frames: at one-response
  instants every fixed per-frame cost would be paid per response.
* :class:`FrameBackend` — shared machinery for the real backends
  (``threads``, ``processes``): the parent collects a
  :class:`~repro.core.backends.frames.BatchFrame` from the shard's queue,
  submits it to a worker hosting the shard's core, and replays the
  resulting verdict's event log through the shard's sink, deterministically.

Determinism under the simulator: submitting a frame schedules a **merge
barrier** at delay 0. The simulator runs same-instant events FIFO, so the
barrier fires after every flush of the current instant and merges verdicts
in submission order — which is exactly the serial path's flush order. All
decisions, alarms, and spans therefore land at the same simulated time,
in the same relative order, as the serial backend's.

On the synchronous ``drain()`` path (the benchmark loop; no simulated time
advances) frames are submitted one per shard per round and merged in shard
order, with one round of lookahead so workers chew on round *i+1* while the
parent merges round *i* — this is where the ``processes`` backend's real
parallelism pays.
"""

from __future__ import annotations

import pickle
from collections import deque
from typing import List, Tuple

from repro.core.backends.frames import BatchFrame, VerdictFrame
from repro.core.timeouts import StaticTimeout
from repro.errors import CheckpointError
from repro.obs import trace as obs_trace


class ExecutionBackend:
    """Scheduling strategy for pipeline shard work units."""

    #: Registry name (``JuryConfig.backend`` / ``--backend``).
    name: str = "?"
    #: True when ``flush_shard`` runs the shard's own core on the parent
    #: (no frames, no merge).
    inline: bool = True
    #: Class-level default so ``close()`` is safe on a backend that was
    #: never attached (attach may raise before setting instance state).
    _closed: bool = False

    def attach(self, pipeline) -> None:
        """Bind to a pipeline (called once from the pipeline constructor)."""
        self.pipeline = pipeline

    def flush_shard(self, shard, wakeup: bool = False) -> None:
        raise NotImplementedError

    def drain(self) -> None:
        """Synchronously process every queued response (benchmark path)."""
        raise NotImplementedError

    def shard_state(self, shard) -> dict:
        """One shard's :meth:`ShardCore.payload` for a checkpoint.

        Inline backends read the shard's core; frame backends harvest
        their worker's. It is the same payload either way, so checkpoints
        are portable across backends.
        """
        return shard.core.payload()

    def restore_shard(self, shard, payload: dict) -> None:
        """Rehydrate one shard from a :meth:`shard_state` payload."""
        shard.core.load(payload)
        shard._rearm(payload)

    def close(self) -> None:
        """Release workers. Idempotent; parent-side results stay readable."""
        self._closed = True

    # Context-manager sugar so benches/tests can scope worker lifetime.
    def __enter__(self) -> "ExecutionBackend":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class SerialBackend(ExecutionBackend):
    """Inline execution on the parent thread (the default)."""

    name = "serial"
    inline = True

    def flush_shard(self, shard, wakeup: bool = False) -> None:
        shard._process_available(wakeup)

    def drain(self) -> None:
        progressing = True
        while progressing:
            progressing = False
            for shard in self.pipeline._shards:
                if shard.queue or shard.overflow:
                    shard._process_available()
                    progressing = True


class FrameBackend(ExecutionBackend):
    """Collect → submit → barrier-merge machinery shared by real backends.

    Subclasses implement ``_start`` (spawn workers), ``_submit`` (hand a
    frame to shard's worker; must not block while the worker still owes a
    verdict — wait for it first) and ``_collect`` (block for the verdict).
    """

    inline = False

    def attach(self, pipeline) -> None:
        if not isinstance(pipeline.timeout, StaticTimeout):
            raise ValueError(
                f"backend {self.name!r} requires a StaticTimeout: adaptive "
                f"policies couple shards through observe() and would "
                f"diverge from the serial backend")
        self.pipeline = pipeline
        self.timeout_ms = pipeline.timeout.current()
        self._inflight: deque = deque()  # (shard, BatchFrame)
        self._barrier_scheduled = False
        self._closed = False
        self._start()

    def _bootstrap(self) -> dict:
        """ShardCore constructor kwargs for worker bootstrap."""
        pipeline = self.pipeline
        return {"k": pipeline.k, "timeout": self.timeout_ms,
                "state_aware": pipeline.state_aware,
                "taint_classification": pipeline.taint_classification}

    # -- subclass surface ------------------------------------------------
    def _start(self) -> None:
        raise NotImplementedError

    def _submit(self, shard, frame: BatchFrame) -> None:
        raise NotImplementedError

    def _collect(self, shard, frame: BatchFrame) -> VerdictFrame:
        raise NotImplementedError

    def _snapshot_worker(self, index: int) -> bytes:
        """Pickled ShardCore snapshot from one worker (no frames owed)."""
        raise NotImplementedError

    def _restore_worker(self, index: int, blob: bytes) -> None:
        """Push a pickled ShardCore snapshot down to one worker."""
        raise NotImplementedError

    # -- checkpoint / restore --------------------------------------------
    def _ensure_open(self) -> None:
        if self._closed:
            raise CheckpointError(
                f"backend {self.name!r} is closed: its workers are gone, "
                f"so shard state can no longer be read or restored")

    def shard_state(self, shard) -> dict:
        """Harvest one worker's ShardCore state for a checkpoint.

        Merges every in-flight verdict first: a worker snapshot taken
        while the parent still owes merges would include decisions the
        parent-side Ψ/alarm/counter state has not absorbed — the snapshot
        must be an instant-boundary cut on both sides of the pipe.
        """
        self._ensure_open()
        self._merge_inflight()
        return pickle.loads(self._snapshot_worker(shard.index))

    def restore_shard(self, shard, payload: dict) -> None:
        """Push checkpoint state to the worker and re-arm parent mirrors.

        Also resets the crash-recovery piggyback basis (where the backend
        keeps one — see ``processes``): a worker killed after this point
        rehydrates from this snapshot, not from frame 0.
        """
        self._ensure_open()
        blob = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
        self._restore_worker(shard.index, blob)
        shard._remote_open = len(payload["records"])
        shard._rearm(payload)

    # -- simulator path --------------------------------------------------
    def flush_shard(self, shard, wakeup: bool = False) -> None:
        frame = shard._collect_frame(wakeup=wakeup)
        if frame is None:
            return
        self._dispatch(shard, frame)

    def _report(self, stage: str, shard=None, detail: str = "",
                **attrs) -> None:
        """Hand one plumbing event to the pipeline's observer, if any."""
        observer = self.pipeline.observer
        if observer is not None:
            observer.engine(self.pipeline.sim.now, stage, self.name, shard,
                            detail, **attrs)

    def _dispatch(self, shard, frame: BatchFrame) -> None:
        self._report(obs_trace.ENGINE_SUBMIT, shard.index,
                     f"seq={frame.seq}", n=len(frame.items))
        self._submit(shard, frame)
        self._inflight.append((shard, frame))
        if not self._barrier_scheduled:
            self._barrier_scheduled = True
            self.pipeline.sim.schedule(0.0, self._merge_barrier)

    def _merge_barrier(self) -> None:
        self._barrier_scheduled = False
        self._merge_inflight()
        observer = self.pipeline.observer
        if observer is not None:
            observer.tick(self.pipeline.sim.now)

    def _merge_inflight(self) -> None:
        while self._inflight:
            shard, frame = self._inflight.popleft()
            self._merge_one(shard, frame)

    def _merge_one(self, shard, frame: BatchFrame) -> None:
        verdict = self._collect(shard, frame)
        self._report(obs_trace.ENGINE_EXECUTE, shard.index,
                     f"seq={frame.seq}", profile=verdict.profile,
                     events=len(verdict.events))
        shard._merge_verdict(verdict)
        self._report(obs_trace.ENGINE_MERGE, shard.index, f"seq={frame.seq}",
                     open_records=verdict.open_records)

    # -- synchronous path ------------------------------------------------
    def drain(self) -> None:
        self._merge_inflight()  # anything the simulator left in flight
        pipeline = self.pipeline
        pending: List[Tuple] = []  # previous round, being chewed by workers
        while True:
            submitted: List[Tuple] = []
            for shard in pipeline._shards:
                frame = shard._collect_frame()
                if frame is not None:
                    self._submit(shard, frame)
                    submitted.append((shard, frame))
            # Merge the previous round while workers run the new one.
            for shard, frame in pending:
                self._merge_one(shard, frame)
            if not submitted:
                break
            pending = submitted
