"""Worker-process backend: real CPU parallelism for shard execution.

One long-lived worker process per shard hosts that shard's
:class:`~repro.core.backends.shardcore.ShardCore`; the parent exchanges
pickled batch/verdict frames over a duplex pipe. Discipline:

* **One frame in flight per worker.** Before submitting a new frame the
  parent collects the previous verdict, so a send never deadlocks against
  a worker blocked writing a large verdict into a full pipe.
* **Snapshots ride the verdicts.** Every ``snapshot_every`` frames the
  parent sets ``want_snapshot`` and the worker piggybacks its pickled
  state; the parent keeps the frames submitted since that basis.
* **Death → retry once → degrade.** A dead pipe (EOF/OSError) or a verdict
  timeout counts as a worker death: the parent respawns the worker,
  restores the last snapshot, replays the since-snapshot history
  (discarding verdicts already merged), and resubmits the lost frames. If
  the replacement dies during recovery the shard **degrades**: its
  ShardCore is rebuilt in-parent from the same snapshot+history and all
  subsequent frames run inline — execution continues serially, bit-for-bit.

``inject_crashes`` gives tests a deterministic handle on this machinery
without real fault injection: budgeted crashes are consumed at submit time
(the worker is told to exit before the frame) and during recovery (the
replacement "dies", forcing the degrade path).
"""

from __future__ import annotations

import multiprocessing
import os
from collections import deque
from typing import List, Optional

from repro.core.backends.base import FrameBackend
from repro.core.backends.frames import BatchFrame, VerdictFrame
from repro.core.backends.shardcore import ShardCore
from repro.obs.observer import (
    WORKER_DEATH,
    WORKER_POOL,
    WORKER_RESTART,
    WORKER_RESTORE_FAILED,
)
from repro.obs.profile import StageProfiler
from repro.obs.trace import ENGINE_DEGRADE


def _worker_main(conn, bootstrap: dict, profile: bool = False) -> None:
    """Worker process loop: recv control tuples, send verdicts."""
    core = ShardCore(**bootstrap)
    # Wall-clock profiling lives here, inside the worker; durations ride
    # home on the verdict frame like snapshots do. A "restore" duration is
    # held in the profiler and ships with the next frame verdict.
    profiler = StageProfiler() if profile else None
    try:
        while True:
            msg = conn.recv()
            tag = msg[0]
            if tag == "frame":
                if profiler is None:
                    conn.send(core.process(msg[1]))
                else:
                    frame = msg[1]
                    started = profiler.now()
                    verdict = core.process(frame)
                    profiler.observe("wakeup" if frame.wakeup else "batch",
                                     profiler.now() - started)
                    verdict.profile = profiler.take()
                    conn.send(verdict)
            elif tag == "snapshot":  # checkpoint harvest (no frame owed)
                conn.send(core.snapshot())
            elif tag == "restore":
                started = None if profiler is None else profiler.now()
                core = ShardCore(**bootstrap)
                if msg[1] is not None:
                    core.restore(msg[1])
                if profiler is not None:
                    profiler.observe("restore", profiler.now() - started)
                conn.send(("ok",))
            elif tag == "crash":  # test hook: die without cleanup
                os._exit(17)
            else:  # "exit"
                return
    except (EOFError, OSError, KeyboardInterrupt):
        return


class _WorkerDied(Exception):
    pass


class _Worker:
    """Parent-side bookkeeping for one shard's worker process."""

    def __init__(self, index: int):
        self.index = index
        self.proc = None
        self.conn = None
        #: Frames submitted, verdict not yet received (FIFO).
        self.pending: deque = deque()
        #: Verdicts received ahead of collection (FIFO).
        self.ready: deque = deque()
        #: Last piggybacked snapshot and the frames submitted since it.
        self.snapshot: Optional[bytes] = None
        self.history: List[BatchFrame] = []
        self.frames_since_snapshot = 0
        #: Non-None once degraded: the in-parent ShardCore running inline.
        self.core: Optional[ShardCore] = None
        #: Test hook: pending deterministic crashes (see inject_crashes).
        self.crash_budget = 0


class ProcessesBackend(FrameBackend):
    """One worker process per shard; frames pickled over pipes."""

    name = "processes"

    def __init__(self, worker_timeout_s: float = 60.0,
                 snapshot_every: int = 32):
        self.worker_timeout_s = worker_timeout_s
        self.snapshot_every = snapshot_every

    def _start(self) -> None:
        methods = multiprocessing.get_all_start_methods()
        self._ctx = multiprocessing.get_context(
            "fork" if "fork" in methods else None)
        self._boot = self._bootstrap()
        self._workers = [_Worker(i) for i in range(self.pipeline.shards)]
        for worker in self._workers:
            self._spawn(worker)
        self._report(WORKER_POOL, workers=len(self._workers))

    def _spawn(self, worker: _Worker) -> None:
        parent_conn, child_conn = self._ctx.Pipe()
        proc = self._ctx.Process(
            target=_worker_main,
            args=(child_conn, self._boot, self.pipeline.profile),
            name=f"jury-shard-{worker.index}", daemon=True)
        proc.start()
        child_conn.close()
        worker.proc = proc
        worker.conn = parent_conn

    # ------------------------------------------------------------------
    # Frame exchange
    # ------------------------------------------------------------------
    def _submit(self, shard, frame: BatchFrame) -> None:
        worker = self._workers[shard.index]
        while worker.pending and worker.core is None:
            self._await_verdict(worker)
        if worker.core is not None:  # degraded: run inline, stay ordered
            worker.ready.append(worker.core.process(frame))
            return
        worker.frames_since_snapshot += 1
        if worker.frames_since_snapshot >= self.snapshot_every:
            frame.want_snapshot = True
        if worker.crash_budget > 0:
            worker.crash_budget -= 1
            try:
                worker.conn.send(("crash",))
            except OSError:  # jury: ignore[H403] — already-dead worker
                pass
        worker.pending.append(frame)
        worker.history.append(frame)
        try:
            worker.conn.send(("frame", frame))
        except OSError:
            self._recover(worker)

    def _collect(self, shard, frame: BatchFrame) -> VerdictFrame:
        worker = self._workers[shard.index]
        while not worker.ready:
            self._await_verdict(worker)
        return worker.ready.popleft()

    def _await_verdict(self, worker: _Worker) -> None:
        try:
            if not worker.conn.poll(self.worker_timeout_s):
                raise _WorkerDied(
                    f"no verdict within {self.worker_timeout_s}s")
            verdict = worker.conn.recv()
        except (EOFError, OSError, _WorkerDied):
            self._recover(worker)
            return
        worker.pending.popleft()
        if verdict.snapshot is not None:
            worker.snapshot = verdict.snapshot
            worker.history = list(worker.pending)
            worker.frames_since_snapshot = len(worker.pending)
            verdict.snapshot = None  # parent keeps it; frame stays light
        worker.ready.append(verdict)

    # ------------------------------------------------------------------
    # Checkpoint / restore (FrameBackend surface)
    # ------------------------------------------------------------------
    def _snapshot_worker(self, index: int) -> bytes:
        """Harvest one worker's ShardCore for a pipeline checkpoint.

        Waits out any owed verdicts first (one frame in flight per worker),
        asks the worker for a snapshot, and makes it the new piggyback
        basis: the since-snapshot history is empty by construction. A death
        during the harvest goes through the normal recover path and the
        harvest is retried against the replacement (or the degraded
        in-parent core).
        """
        worker = self._workers[index]
        while worker.pending and worker.core is None:
            self._await_verdict(worker)
        if worker.core is None:
            try:
                blob = self._roundtrip(worker, ("snapshot",))
            except (EOFError, OSError, _WorkerDied):
                self._recover(worker)
                if worker.core is None:
                    blob = self._roundtrip(worker, ("snapshot",))
        if worker.core is not None:  # degraded: snapshot the inline core
            blob = worker.core.snapshot()
        worker.snapshot = blob
        worker.history = []
        worker.frames_since_snapshot = 0
        return blob

    def _restore_worker(self, index: int, blob: bytes) -> None:
        """Rehydrate one worker from a checkpoint's shard payload.

        Resets the crash-recovery basis to this snapshot — a worker killed
        after the restore replays from here, not from frame 0. If the
        worker (or its replacement) dies mid-restore the shard falls back
        to an in-parent core, same as the degrade path.
        """
        worker = self._workers[index]
        while worker.pending and worker.core is None:
            self._await_verdict(worker)
        worker.ready.clear()
        worker.pending.clear()
        worker.snapshot = blob
        worker.history = []
        worker.frames_since_snapshot = 0
        if worker.core is not None:  # degraded: rebuild the inline core
            core = ShardCore(**self._boot)
            core.restore(blob)
            worker.core = core
            return
        try:
            self._roundtrip(worker, ("restore", blob))
        except (EOFError, OSError, _WorkerDied):
            self._reap(worker)
            try:
                self._spawn(worker)
                self._roundtrip(worker, ("restore", blob))
            except (EOFError, OSError, _WorkerDied):
                self._report(WORKER_RESTORE_FAILED, index)
                core = ShardCore(**self._boot)
                core.restore(blob)
                worker.core = core

    # ------------------------------------------------------------------
    # Death handling: respawn + replay once, then degrade to inline
    # ------------------------------------------------------------------
    def _recover(self, worker: _Worker) -> None:
        self._report(WORKER_DEATH, worker.index, f"shard {worker.index}")
        self._reap(worker)
        pending_seqs = {f.seq for f in worker.pending}
        try:
            if worker.crash_budget > 0:  # test hook: replacement dies too
                worker.crash_budget -= 1
                raise _WorkerDied("injected crash during recovery")
            self._spawn(worker)
            self._roundtrip(worker, ("restore", worker.snapshot))
            replays = list(worker.history)
            for index, frame in enumerate(replays):
                verdict = self._roundtrip(worker, ("frame", frame))
                if verdict.snapshot is not None:
                    worker.snapshot = verdict.snapshot
                    worker.history = list(replays[index + 1:])
                    worker.frames_since_snapshot = len(worker.history)
                    verdict.snapshot = None
                if frame.seq in pending_seqs:
                    worker.ready.append(verdict)
            worker.pending.clear()
            self._report(WORKER_RESTART, worker.index)
        except (EOFError, OSError, _WorkerDied):
            self._degrade(worker, pending_seqs)

    def _roundtrip(self, worker: _Worker, msg):
        worker.conn.send(msg)
        if not worker.conn.poll(self.worker_timeout_s):
            raise _WorkerDied("no reply during recovery")
        return worker.conn.recv()

    def _degrade(self, worker: _Worker, pending_seqs) -> None:
        self._report(ENGINE_DEGRADE, worker.index,
                     f"shard {worker.index} runs inline")
        self._reap(worker)
        core = ShardCore(**self._boot)
        if worker.snapshot is not None:
            core.restore(worker.snapshot)
        for frame in worker.history:
            verdict = core.process(frame)
            if frame.seq in pending_seqs:
                worker.ready.append(verdict)
        worker.pending.clear()
        worker.core = core

    def _reap(self, worker: _Worker) -> None:
        if worker.proc is not None:
            if worker.proc.is_alive():
                worker.proc.terminate()
            worker.proc.join(timeout=5.0)
            worker.proc = None
        if worker.conn is not None:
            worker.conn.close()
            worker.conn = None

    # ------------------------------------------------------------------
    # Test hook and teardown
    # ------------------------------------------------------------------
    def inject_crashes(self, shard_index: int, count: int = 1) -> None:
        """Arm ``count`` deterministic worker deaths on one shard.

        The first is consumed at the next submit (the worker exits before
        processing the frame); a second is consumed during the ensuing
        recovery, killing the replacement and forcing the degrade path.
        """
        self._workers[shard_index].crash_budget += count

    @property
    def degraded_shards(self) -> List[int]:
        return [w.index for w in self._workers if w.core is not None]

    def close(self) -> None:
        # getattr on _workers (not a truthy _closed default): close() must
        # be a no-op both after a previous close and when attach never ran
        # (e.g. the timeout-policy validation raised before _start).
        if self._closed:
            return
        self._closed = True
        for worker in getattr(self, "_workers", []):
            if worker.conn is not None and worker.proc is not None \
                    and worker.proc.is_alive():
                try:
                    worker.conn.send(("exit",))
                except OSError:  # jury: ignore[H403] — worker died first
                    pass
        for worker in getattr(self, "_workers", []):
            if worker.proc is not None:
                worker.proc.join(timeout=2.0)
            self._reap(worker)
