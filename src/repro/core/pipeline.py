"""Sharded, batched validation pipeline.

The sequential :class:`~repro.core.validator.Validator` processes every
relayed response through a single dispatch path; at production trigger rates
the validator is the throughput chokepoint (JURY §V, Fig. 4h). This module
shards Algorithm 1 across ``N`` validator workers:

* **Routing** — responses are partitioned by a *stable* hash of the trigger
  id (:func:`shard_of`), so every response for a trigger τ lands on the same
  shard and the per-trigger record Vτ/Nτ/θτ never crosses shards. The hash
  is CRC-32 of ``repr(τ)``, deliberately not the builtin ``hash`` (which is
  randomised per process for strings and would break replayability).
* **Batching** — each shard ingests from a bounded arrival queue, at most
  ``batch_max`` responses per flush. When a queue is full, arrivals divert
  to an explicit overflow ring; nothing is dropped, and the accounting
  (``enqueued == processed + still-queued``) is an asserted invariant of the
  property-based suite.
* **Ψid partitioning** — shards keep per-shard views of the per-controller
  state Ψid (their local digest-progress/cache-update contributions) and
  decide against the *merged* view, which the in-process pipeline realises
  as a shared mapping updated at ingest time; :meth:`ValidationPipeline.merged_view`
  reconciles the per-shard views against the merged view (a distributed
  deployment would ship the local views to the merge point instead).
  :meth:`ValidationPipeline.checkpoint` / :meth:`ValidationPipeline.restore`
  extend that to full crash recovery (``repro.core.checkpoint``,
  ``docs/recovery.md``).
* **Deterministic merge** — per-shard alarm streams drain into a single
  ordered stream: ``(decision time, trigger id)`` via
  :func:`repro.core.alarms.alarm_merge_key`. The differential suite
  (``tests/test_pipeline_differential.py``) asserts the merged stream is
  byte-identical to the sequential validator's on replayed workloads.

Decision logic is *shared*, not forked: a shard keeps only its queue,
overflow ring, flush event and θτ wakeup, and drives the same
:class:`~repro.core.backends.shardcore.ShardCore` the sequential validator
drives, reporting into the same :class:`~repro.core.validator.DecisionCore`
sink.

Equivalence contract: with ``flush_interval_ms=0`` micro-batches coincide
with same-timestamp arrivals and the pipeline is *byte-identical* to the
sequential validator (``docs/pipeline.md`` §equivalence); with a positive
flush interval decisions may land later in simulated time, so only verdict
equivalence (classification, alarm reasons, response counts) is guaranteed.
"""

from __future__ import annotations

import itertools
import zlib
from collections import deque
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.alarms import Alarm, ValidationResult
from repro.core.backends import resolve_backend
from repro.core.backends.frames import (
    EV_LATE,
    EV_PSI,
    BatchFrame,
    VerdictFrame,
)
from repro.core.backends.shardcore import CoreMemo, ShardCore
from repro.core.responses import Response
from repro.core.timeouts import StaticTimeout, TimeoutPolicy
from repro.core.validator import (
    ControllerState,
    DecisionCore,
    EngineSurface,
)
from repro.obs.observer import Observer
from repro.sim.simulator import Simulator


def shard_of(trigger_id: Tuple, shards: int) -> int:
    """Stable shard index for a trigger id.

    CRC-32 over ``repr(τ)`` — stable across processes and Python versions,
    unlike ``hash(str)`` which is salted by PYTHONHASHSEED. All responses
    for one trigger must hash identically or Vτ would split across shards.
    """
    return zlib.crc32(repr(trigger_id).encode("utf-8")) % shards


@dataclass
class ShardStats:
    """Queue/batch/decision counters for one shard."""

    enqueued: int = 0
    processed: int = 0
    batches: int = 0
    batched_responses: int = 0
    max_batch: int = 0
    queue_high_water: int = 0
    overflow_enqueued: int = 0
    overflow_drained: int = 0
    #: Episodes of queue-full diversion (rising edges, not per response).
    backpressure_events: int = 0
    timer_wakeups: int = 0
    fastpath_decisions: int = 0
    slowpath_decisions: int = 0
    late_responses: int = 0
    decided: int = 0
    alarmed: int = 0

    def snapshot(self) -> Dict[str, int]:
        return dict(self.__dict__)


@dataclass
class PipelineStats:
    """Aggregated pipeline counters plus the per-shard breakdown."""

    shards: int
    responses_routed: int
    per_shard: List[Dict[str, int]]

    def total(self, counter: str) -> int:
        return sum(s[counter] for s in self.per_shard)

    def snapshot(self) -> Dict[str, object]:
        aggregate = {key: self.total(key) for key in self.per_shard[0]} \
            if self.per_shard else {}
        aggregate["max_batch"] = max(
            (s["max_batch"] for s in self.per_shard), default=0)
        aggregate["queue_high_water"] = max(
            (s["queue_high_water"] for s in self.per_shard), default=0)
        return {"shards": self.shards,
                "responses_routed": self.responses_routed,
                "aggregate": aggregate,
                "per_shard": self.per_shard}


class _Shard(DecisionCore):
    """One validator worker: bounded queue, batched flushes, one θτ wakeup.

    Owns the arrival side only. The decisions are made by a
    :class:`~repro.core.backends.shardcore.ShardCore` — ``core`` on an
    inline backend, the worker's on a frame backend — and reach this
    object through the :class:`~repro.core.validator.DecisionCore` sink
    either way: called by the core directly, or replayed from the worker's
    event log by :meth:`_merge_verdict`.
    """

    def __init__(self, pipeline: "ValidationPipeline", index: int):
        self._init_core(pipeline.sim, pipeline.k,
                        policy_engine=pipeline.policy_engine,
                        mastership_lookup=pipeline.mastership_lookup,
                        state_aware=pipeline.state_aware,
                        taint_classification=pipeline.taint_classification,
                        state=pipeline.state, observer=pipeline.observer)
        self.pipeline = pipeline
        self.index = index
        self.timeout: TimeoutPolicy = pipeline.timeout
        self.queue: deque = deque()
        self.overflow: deque = deque()
        self.core = ShardCore(pipeline.k, pipeline.timeout,
                              state_aware=pipeline.state_aware,
                              taint_classification=pipeline.taint_classification)
        self.core.memo = pipeline._memo
        self._flush_scheduled = False
        self.stats = ShardStats()
        # Frame backends (``core`` stays empty: the worker has the live
        # one): monotone frame sequence, the worker's open-record count.
        self._frame_seq = itertools.count()
        self._remote_open = 0

    # ------------------------------------------------------------------
    # Arrival side (called by the router)
    # ------------------------------------------------------------------
    def enqueue(self, arrived_at: float, response: Response) -> None:
        stats = self.stats
        stats.enqueued += 1
        if self.overflow or len(self.queue) >= self.pipeline.queue_capacity:
            # Once anything is in overflow, later arrivals must follow it or
            # the drain would reorder responses against arrival order.
            if not self.overflow:
                stats.backpressure_events += 1
            self.overflow.append((arrived_at, response))
            stats.overflow_enqueued += 1
        else:
            self.queue.append((arrived_at, response))
            if len(self.queue) > stats.queue_high_water:
                stats.queue_high_water = len(self.queue)
        if not self._flush_scheduled:
            self._flush_scheduled = True
            self.sim.schedule(self.pipeline.flush_interval_ms, self._flush)

    def _flush(self) -> None:
        self._flush_scheduled = False
        backend = self.pipeline.backend
        backend.flush_shard(self)
        # The end of an inline step; a frame backend's step ends at its
        # merge barrier, once the verdict is in.
        if self.observer is not None and backend.inline:
            self.observer.tick(self.sim.now)

    def _on_wakeup(self) -> None:
        self.stats.timer_wakeups += 1
        # Not just "fire what is due": responses still queued arrived
        # before (or at) this deadline, and the core must count them
        # before θτ classifies their trigger.
        self.pipeline.backend.flush_shard(self, wakeup=True)

    def _take_batch(self) -> Tuple[object, bool]:
        """Up to ``batch_max`` queued responses, oldest first, and whether
        taking them drained the shard.

        The overflow ring refills the queue only when the queue empties
        (each refill counts as a drain); a remainder is backpressured to
        another flush in the same simulated instant.
        """
        queue = self.queue
        overflow = self.overflow
        budget = self.pipeline.batch_max
        if not overflow and len(queue) <= budget:
            # The common case hands the deque over whole and starts a
            # fresh one, so a re-entrant ingest (an on_alarm hook) never
            # appends to a batch that is being iterated.
            self.queue = deque()
            return queue, True
        stats = self.stats
        capacity = self.pipeline.queue_capacity
        items = []
        while budget > 0:
            if not queue and overflow:
                while overflow and len(queue) < capacity:
                    queue.append(overflow.popleft())
                    stats.overflow_drained += 1
            if not queue:
                break
            items.append(queue.popleft())
            budget -= 1
        drained = not queue and not overflow
        if not drained and not self._flush_scheduled:
            self._flush_scheduled = True
            self.sim.schedule(0.0, self._flush)
        return items, drained

    # ------------------------------------------------------------------
    # Inline backends: this shard's own core, this object as its sink
    # ------------------------------------------------------------------
    def _process_available(self, wakeup: bool = False) -> None:
        """Run the next batch through the core (see :meth:`ShardCore.run`
        for the deadline-before-arrival rule)."""
        items, drained = self._take_batch()
        core = self.core
        core.run(items, self.sim.now, drained, self, self.stats)
        if drained:
            if wakeup:
                # Entries of triggers decided at full count are dropped
                # here, once per wakeup; a flush only looks at whether a
                # new record moved the head.
                core.next_deadline()
            deadlines = core.deadlines
            if deadlines and deadlines[0][0] < self._wakeup_at:
                self._arm(deadlines[0][0])

    def _emit(self, result: ValidationResult, alarms: List[Alarm]) -> None:
        self.stats.decided += 1
        if alarms:
            self.stats.alarmed += 1
            self.pipeline._alarms_sorted = False
        self.pipeline._emit(result, alarms)

    # ------------------------------------------------------------------
    # Frame backends (repro.core.backends): the parent keeps queue and
    # overflow accounting plus everything that touches shared state; the
    # worker's core makes the sink calls into an event log that this side
    # replays.
    # ------------------------------------------------------------------
    def _collect_frame(self, wakeup: bool = False) -> Optional[BatchFrame]:
        """The next batch as a frame, or None when there is nothing to do
        — except for θτ wakeups, which always produce a frame so the
        worker fires due deadlines."""
        items, drained = self._take_batch()
        if not items and not wakeup:
            return None
        return BatchFrame(shard=self.index, seq=next(self._frame_seq),
                          now=self.sim.now, items=tuple(items),
                          drained=drained, wakeup=wakeup)

    def _merge_verdict(self, verdict: VerdictFrame) -> None:
        """Replay a worker's ordered event log through the sink.

        Event order is the worker core's call order, which is an inline
        core's call order for the same responses — so each decision's
        staleness/policy checks observe exactly the Ψ prefix they would
        have inline, and alarm/span emission order matches.
        """
        stats = self.stats
        for key, value in verdict.stats_delta.items():
            if key == "max_batch":
                if value > stats.max_batch:
                    stats.max_batch = value
            else:
                setattr(stats, key, getattr(stats, key) + value)
        for event in verdict.events:
            tag = event[0]
            if tag == EV_PSI:
                self.psi(event[1], event[2], event[3], event[4])
            elif tag == EV_LATE:
                self.late(event[1], event[2])
            else:  # EV_DECISION
                d = event[1]
                self.decision(d.trigger_id, d.count, d.external, d.timed_out,
                              d.detection_ms, d.outcome, list(d.responses))
        self._remote_open = verdict.open_records
        if verdict.next_deadline is not None:
            self._arm(verdict.next_deadline)


class ValidationPipeline(EngineSurface):
    """Drop-in sharded replacement for :class:`~repro.core.validator.Validator`.

    Exposes the validator's public surface — ``ingest`` /
    ``handle_control_message`` and, through the shared
    :class:`~repro.core.validator.EngineSurface`, counters, ``results`` /
    ``alarms``, ``detection_times`` / ``false_positive_rate``,
    ``on_alarm``, ``checkpoint`` / ``restore`` — so
    :class:`~repro.core.deployment.JuryDeployment` and the harness can select
    ``pipeline=N`` without touching call sites.
    """

    kind = "pipeline"

    def __init__(self, sim: Simulator, k: int, shards: int = 4,
                 timeout: Optional[TimeoutPolicy] = None,
                 policy_engine=None,
                 mastership_lookup: Optional[Callable[[int], Optional[str]]] = None,
                 keep_results: bool = True,
                 state_aware: bool = True,
                 taint_classification: bool = True,
                 queue_capacity: int = 1024,
                 batch_max: int = 512,
                 flush_interval_ms: float = 0.0,
                 tracer=None, metrics=None,
                 forensics=None, health=None, snapshot_sink=None,
                 sampler=None, recorder=None, profile=False,
                 backend="serial",
                 checkpoint_every: Optional[int] = None,
                 on_checkpoint: Optional[Callable] = None,
                 wal=None):
        if shards < 1:
            raise ValueError(f"shards must be >= 1: {shards}")
        if queue_capacity < 1:
            raise ValueError(f"queue_capacity must be >= 1: {queue_capacity}")
        if batch_max < 1:
            raise ValueError(f"batch_max must be >= 1: {batch_max}")
        # One observer, shared by every shard; the trace carries no shard
        # indices (queues, batches and overflow are scraped into metrics),
        # so it is byte-identical at any shard count.
        self._init_surface(keep_results, checkpoint_every, on_checkpoint, wal,
                           Observer.build(tracer=tracer, metrics=metrics,
                                          forensics=forensics, health=health,
                                          sampler=sampler, recorder=recorder,
                                          sink=snapshot_sink))
        self.sim = sim
        self.k = k
        self.shards = shards
        self.timeout = timeout if timeout is not None else StaticTimeout(150.0)
        self.policy_engine = policy_engine
        self.mastership_lookup = mastership_lookup
        self.state_aware = state_aware
        self.taint_classification = taint_classification
        self.queue_capacity = queue_capacity
        self.batch_max = batch_max
        self.flush_interval_ms = flush_interval_ms
        #: Wall-clock worker profiling (repro.obs.profile): read by frame
        #: backends at worker start; the serial backend has no workers and
        #: ignores it.
        self.profile = bool(profile)
        #: Merged Ψid view shared by all shards (see module docstring).
        self.state: Dict[str, ControllerState] = {}
        # One digest/network-entry memo for every core in this process.
        # ``_merged_network`` only names its merge for bench/workloads.py's
        # kernel replay to call; the cores go to the memo itself, so
        # rebinding this attribute intercepts nothing.
        self._memo = CoreMemo()
        self._merged_network = self._memo.merged_network
        self._shards = [_Shard(self, i) for i in range(shards)]
        # tau -> shard, a pure function of the trigger id resolved once per
        # trigger.
        self._route: Dict[Tuple, _Shard] = {}
        #: Execution backend (repro.core.backends): owns how shard work
        #: units are scheduled. ``serial`` runs each shard's core in
        #: place; ``threads``/``processes`` exchange batch/verdict frames
        #: with long-lived workers. Attached last — a frame backend
        #: validates the timeout policy and spawns its workers here.
        self.backend = resolve_backend(backend)
        self.backend_name = self.backend.name
        self.backend.attach(self)

    def close(self) -> None:
        """Shut down backend workers. Results/alarms stay readable."""
        self.backend.close()

    def __enter__(self) -> "ValidationPipeline":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Ingest / routing
    # ------------------------------------------------------------------
    def handle_control_message(self, channel, response: Response) -> None:
        """Channel endpoint for controller modules (Validator-compatible)."""
        self.ingest(response)

    def ingest(self, response: Response) -> None:
        now = self.sim.now
        if self.wal is not None:
            # Logged before it can influence any decision: recovery replays
            # exactly the inputs this run saw, in arrival order.
            self.wal.append_ingest(now, response)
        self.responses_received += 1
        tau = response.trigger_id
        # Route cache: ~2k+2 responses share each trigger id, so the
        # repr+CRC of shard_of amortises to one dict hit per response.
        shard = self._route.get(tau)
        if shard is None:
            shard = self._shards[shard_of(tau, self.shards)]
            if len(self._route) > 100_000:
                self._route.clear()
            self._route[tau] = shard
        if self.observer is not None:
            # Engine-level (pre-queue), so response events match the
            # sequential validator's at any shard count.
            self.observer.ingest(now, response)
        shard.enqueue(now, response)

    def drain(self) -> None:
        """Synchronously process every queued response (benchmark path)."""
        self.backend.drain()

    def ordered_results(self) -> List[ValidationResult]:
        """Decided-trigger results in the deterministic merge order."""
        return sorted(self.results,
                      key=lambda r: (r.decided_at, repr(r.trigger_id)))

    # ------------------------------------------------------------------
    # Validator-compatible introspection
    # ------------------------------------------------------------------
    @property
    def late_responses(self) -> int:
        return sum(s.stats.late_responses for s in self._shards)

    @property
    def pending_count(self) -> int:
        """Undecided triggers plus responses still queued on any shard.

        On a frame backend the per-shard records live in the workers; the
        parent mirrors each worker's open-record count from its latest
        verdict (exact at instant boundaries, where the merge barrier has
        already drained every in-flight frame).
        """
        if self.backend.inline:
            open_records = sum(len(s.core.records) for s in self._shards)
        else:
            open_records = sum(s._remote_open for s in self._shards)
        return open_records + sum(
            len(s.queue) + len(s.overflow) for s in self._shards)

    @property
    def staleness_threshold(self) -> Optional[int]:
        return self._shards[0].staleness_threshold

    @staleness_threshold.setter
    def staleness_threshold(self, value: Optional[int]) -> None:
        for shard in self._shards:
            shard.staleness_threshold = value

    @property
    def staleness_cooldown_ms(self) -> float:
        return self._shards[0].staleness_cooldown_ms

    @staleness_cooldown_ms.setter
    def staleness_cooldown_ms(self, value: float) -> None:
        for shard in self._shards:
            shard.staleness_cooldown_ms = value

    # ------------------------------------------------------------------
    # Stats and checkpointing
    # ------------------------------------------------------------------
    @property
    def stats(self) -> PipelineStats:
        return PipelineStats(
            shards=self.shards,
            responses_routed=self.responses_received,
            per_shard=[s.stats.snapshot() for s in self._shards])

    def merged_view(self) -> Dict[str, ControllerState]:
        """Merge the per-shard Ψid views into one consistent snapshot.

        The merge is ``max`` over digest progress and ``sum`` over cache
        update counts — both order-independent, which is why the in-process
        pipeline can maintain the merged view incrementally. The result
        matches ``self.state`` by construction (asserted in the unit suite).
        """
        merged: Dict[str, ControllerState] = {}
        for shard in self._shards:
            for cid, progress in shard.local_progress.items():
                entry = merged.setdefault(cid, ControllerState())
                if progress > entry.digest_progress:
                    entry.digest_progress = progress
            for cid, count in shard.local_cache_updates.items():
                entry = merged.setdefault(cid, ControllerState())
                entry.cache_updates += count
        for cid, entry in merged.items():
            shared = self.state.get(cid)
            if shared is not None:
                entry.last_entry = shared.last_entry
                entry.last_stale_alarm_at = shared.last_stale_alarm_at
        return merged

    # ------------------------------------------------------------------
    # What is this engine's own in a checkpoint (see EngineSurface)
    # ------------------------------------------------------------------
    def _engine_shape(self) -> Dict[str, int]:
        return {"k": self.k, "shards": self.shards}

    def _engine_state(self) -> Tuple[Dict[str, object], Dict[str, object]]:
        """Per shard: the core payload (via the backend, so a frame
        backend harvests its worker's core, merging any in-flight verdicts
        first), arrival queue and overflow ring, stats, and the Ψid local
        views. The backend is recorded but is not part of the shape: a
        serial checkpoint restores onto a processes backend and back."""
        state = {"shards": [
            {"core": self.backend.shard_state(shard),
             "queue": list(shard.queue),
             "overflow": list(shard.overflow),
             "stats": shard.stats.snapshot(),
             "local_progress": dict(shard.local_progress),
             "local_cache_updates": dict(shard.local_cache_updates)}
            for shard in self._shards]}
        meta = {"backend": self.backend_name,
                "queue_capacity": self.queue_capacity,
                "batch_max": self.batch_max,
                "flush_interval_ms": self.flush_interval_ms}
        return state, meta

    def _engine_restore(self, state: Dict[str, object]) -> None:
        """On a frame backend the core payload is pushed down to the
        workers, which also resets the crash-recovery piggyback basis: a
        worker killed after this point rehydrates from this snapshot
        instead of frame 0."""
        for shard, payload in zip(self._shards, state["shards"]):
            self.backend.restore_shard(shard, payload["core"])
            shard.queue = deque(payload["queue"])
            shard.overflow = deque(payload["overflow"])
            for key, value in payload["stats"].items():
                setattr(shard.stats, key, value)
            shard.local_progress = dict(payload["local_progress"])
            shard.local_cache_updates = dict(payload["local_cache_updates"])
            if ((shard.queue or shard.overflow)
                    and not shard._flush_scheduled):
                shard._flush_scheduled = True
                self.sim.schedule(self.flush_interval_ms, shard._flush)
