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
* **One Ψid** — the pipeline is the one
  :class:`~repro.core.validator.DecisionCore` its shards report to, so
  every shard updates and decides against the same per-controller state
  Ψid as it processes responses.
  :meth:`ValidationPipeline.checkpoint` / :meth:`ValidationPipeline.restore`
  snapshot it with the shards' queues and cores for crash recovery
  (``repro.core.checkpoint``, ``docs/recovery.md``).
* **Deterministic merge** — per-shard alarm streams drain into a single
  ordered stream: ``(decision time, trigger id)`` via
  :func:`repro.core.alarms.alarm_merge_key`. The differential suite
  (``tests/test_pipeline_differential.py``) asserts the merged stream is
  byte-identical to the sequential validator's on replayed workloads.

Decision logic is *shared*, not forked: a shard keeps only its queue,
overflow ring, flush event, θτ wakeup and counters, and drives the same
:class:`~repro.core.backends.shardcore.ShardCore` the sequential validator
drives, handing every batch's effects to the pipeline, which is the
:class:`~repro.core.validator.DecisionCore` sink.

Equivalence contract: with ``flush_interval_ms=0`` micro-batches coincide
with same-timestamp arrivals and the pipeline is *byte-identical* to the
sequential validator (``docs/pipeline.md`` §equivalence); with a positive
flush interval decisions may land later in simulated time, so only verdict
equivalence (classification, alarm reasons, response counts) is guaranteed.
"""

from __future__ import annotations

import zlib
from collections import deque
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.alarms import Alarm, ValidationResult
from repro.core.backends.shardcore import CoreMemo, ShardCore
from repro.core.responses import Response
from repro.core.timeouts import StaticTimeout, TimeoutPolicy
from repro.core.validator import DecisionCore, EngineSurface, ThetaWakeup
from repro.errors import CheckpointError
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
    """Queue/batch/decision counters for one shard: the arrival-side ones
    kept by the shard, the rest (``DELTA_KEYS``) by its core."""

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


class _Shard(ThetaWakeup):
    """One validator shard: bounded queue, batched flushes, one θτ wakeup.

    Owns the arrival side only. The decisions are made by the shard's
    :class:`~repro.core.backends.shardcore.ShardCore` (``core``), which
    reports them to the pipeline, the engine's one
    :class:`~repro.core.validator.DecisionCore` sink.
    """

    def __init__(self, pipeline: "ValidationPipeline"):
        self.pipeline = pipeline
        self.sim = pipeline.sim
        self.queue: deque = deque()
        self.overflow: deque = deque()
        self.core = ShardCore(pipeline.k, pipeline.timeout,
                              state_aware=pipeline.state_aware,
                              taint_classification=pipeline.taint_classification)
        self.core.memo = pipeline._memo
        self._flush_scheduled = False
        self.stats = ShardStats()

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
        self._process_available()

    def _on_wakeup(self) -> None:
        self.stats.timer_wakeups += 1
        # Not just "fire what is due": responses still queued arrived
        # before (or at) this deadline, and the core must count them
        # before θτ classifies their trigger.
        self._process_available(wakeup=True)

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
    # Decision side: this shard's own core, the pipeline as its sink
    # ------------------------------------------------------------------
    def _process_available(self, wakeup: bool = False) -> None:
        """Run the next batch through the core (see :meth:`ShardCore.run`
        for the deadline-before-arrival rule)."""
        items, drained = self._take_batch()
        self.core.run(items, self.sim.now, drained, self.pipeline, self.stats)
        if drained:
            self._arm(prune=wakeup)


class ValidationPipeline(DecisionCore, EngineSurface):
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
    _engine_keys = ("shards",)

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
                 forensics=None, health=None,
                 sampler=None, recorder=None,
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
        if backend != "serial":
            # Shards always run in process; "serial" is still accepted for
            # callers that name it explicitly.
            raise ValueError(f"unknown execution backend {backend!r}; "
                             f"only 'serial' remains")
        # One observer for every shard; the trace carries no shard
        # indices (queues, batches and overflow are scraped into metrics),
        # so it is byte-identical at any shard count.
        observer = Observer.build(tracer=tracer, metrics=metrics,
                                  forensics=forensics, health=health,
                                  sampler=sampler, recorder=recorder)
        self._init_core(sim, k, policy_engine=policy_engine,
                        mastership_lookup=mastership_lookup,
                        state_aware=state_aware,
                        taint_classification=taint_classification,
                        observer=observer)
        self._init_surface(keep_results, checkpoint_every, on_checkpoint, wal,
                           observer)
        self.shards = shards
        self.timeout = timeout if timeout is not None else StaticTimeout(150.0)
        self.queue_capacity = queue_capacity
        self.batch_max = batch_max
        self.flush_interval_ms = flush_interval_ms
        # One digest/network-entry memo for every core in this process.
        # ``_merged_network`` only names its merge for bench/workloads.py's
        # kernel replay to call; the cores go to the memo itself, so
        # rebinding this attribute intercepts nothing.
        self._memo = CoreMemo()
        self._merged_network = self._memo.merged_network
        self._shards = [_Shard(self) for _ in range(shards)]
        # tau -> shard, a pure function of the trigger id resolved once per
        # trigger.
        self._route: Dict[Tuple, _Shard] = {}

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
        """Synchronously process every queued response (benchmark path):
        one batch per non-empty shard per round, until every queue is
        empty."""
        progressing = True
        while progressing:
            progressing = False
            for shard in self._shards:
                if shard.queue or shard.overflow:
                    shard._process_available()
                    progressing = True

    def _emit(self, result: ValidationResult, alarms: List[Alarm]) -> None:
        if alarms:
            # Shards emit within one instant in shard order (see alarms).
            self._alarms_sorted = False
        super()._emit(result, alarms)

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
        """Undecided triggers plus responses still queued on any shard."""
        return sum(len(s.core.records) + len(s.queue) + len(s.overflow)
                   for s in self._shards)

    # ------------------------------------------------------------------
    # Stats and checkpointing
    # ------------------------------------------------------------------
    @property
    def stats(self) -> PipelineStats:
        return PipelineStats(
            shards=self.shards,
            responses_routed=self.responses_received,
            per_shard=[s.stats.snapshot() for s in self._shards])

    # ------------------------------------------------------------------
    # What is this engine's own in a checkpoint (see EngineSurface)
    # ------------------------------------------------------------------
    def _engine_shape(self) -> Dict[str, int]:
        return {"k": self.k, "shards": self.shards}

    def _engine_state(self) -> Tuple[Dict[str, object], Dict[str, object]]:
        """Per shard: the core payload, arrival queue and overflow ring,
        and stats."""
        state = {"shards": [
            {"core": shard.core.payload(),
             "queue": list(shard.queue),
             "overflow": list(shard.overflow),
             "stats": shard.stats.snapshot()}
            for shard in self._shards]}
        meta = {"queue_capacity": self.queue_capacity,
                "batch_max": self.batch_max,
                "flush_interval_ms": self.flush_interval_ms}
        return state, meta

    def _engine_restore(self, state: Dict[str, object]) -> None:
        """Older bodies also carry two per-shard Ψ views in every shard
        payload; nothing reads them."""
        payloads = state["shards"]
        if len(payloads) != self.shards:
            raise CheckpointError(
                f"checkpoint body holds {len(payloads)} shard payloads for "
                f"{self.shards} shards")
        for shard, payload in zip(self._shards, payloads):
            shard.core.load(payload["core"])
            shard._arm()
            shard.queue = deque(payload["queue"])
            shard.overflow = deque(payload["overflow"])
            for key, value in payload["stats"].items():
                setattr(shard.stats, key, value)
            if ((shard.queue or shard.overflow)
                    and not shard._flush_scheduled):
                shard._flush_scheduled = True
                self.sim.schedule(self.flush_interval_ms, shard._flush)
