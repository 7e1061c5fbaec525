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

Decision logic is *shared*, not forked: shards inherit
:class:`~repro.core.validator.DecisionCore`, and the batch fast path
(:meth:`_Shard._fast_consensus`) only short-circuits a trigger when it can
prove ``evaluate_consensus`` would return the clean unanimous outcome —
anything else falls back to the sequential code path.

Equivalence contract: with ``flush_interval_ms=0`` micro-batches coincide
with same-timestamp arrivals and the pipeline is *byte-identical* to the
sequential validator (``docs/pipeline.md`` §equivalence); with a positive
flush interval decisions may land later in simulated time, so only verdict
equivalence (classification, alarm reasons, response counts) is guaranteed.
"""

from __future__ import annotations

import heapq
import itertools
import zlib
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.controllers.context import restore_trigger_ids, snapshot_trigger_ids
from repro.core.alarms import Alarm, ValidationResult, alarm_merge_key
from repro.core.backends import resolve_backend
from repro.core.checkpoint import (
    Checkpoint,
    observe_checkpoint,
    observe_restore,
)
from repro.core.backends.frames import (
    EV_LATE,
    EV_PSI_CACHE,
    EV_PSI_PROGRESS,
    BatchFrame,
    DecisionRecord,
    VerdictFrame,
)
from repro.core.consensus import (
    ConsensusOutcome,
    _merge_network,
    unanimity_fast_consensus,
)
from repro.core.latedrop import LateDropWindow
from repro.core.responses import Response, ResponseKind
from repro.core.timeouts import StaticTimeout, TimeoutPolicy
from repro.core.validator import (
    ControllerState,
    DecisionCore,
    digest_progress,
    restore_controller_states,
    snapshot_controller_states,
)
from repro.errors import CheckpointError
from repro.obs import trace as obs_trace
from repro.obs.sampling import active_sampler
from repro.obs.trace import active_tracer
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


_CACHE_UPDATE = ResponseKind.CACHE_UPDATE


@dataclass
class _ShardRecord:
    """Vτ / Nτ / θτ on a shard — no state snapshots (dead weight: the
    sequential validator drops them before evaluating consensus)."""

    responses: List[Response] = field(default_factory=list)
    count: int = 0
    first_at: float = 0.0
    deadline: float = 0.0
    decided: bool = False


class _Shard(DecisionCore):
    """One validator worker: bounded queue, batch ingest, coalesced timers."""

    def __init__(self, pipeline: "ValidationPipeline", index: int):
        self._init_core(pipeline.sim, pipeline.k,
                        policy_engine=pipeline.policy_engine,
                        mastership_lookup=pipeline.mastership_lookup,
                        state_aware=pipeline.state_aware,
                        taint_classification=pipeline.taint_classification,
                        state=pipeline.state,
                        tracer=pipeline.tracer, metrics=pipeline.metrics,
                        forensics=pipeline.forensics, health=pipeline.health,
                        sampler=pipeline.sampler, recorder=pipeline.recorder)
        self.pipeline = pipeline
        self.index = index
        self.timeout: TimeoutPolicy = pipeline.timeout
        self.queue: deque = deque()
        self.overflow: deque = deque()
        self.records: Dict[Tuple, _ShardRecord] = {}
        self._late_drop = LateDropWindow()
        # Coalesced θτ timers: one heap + one scheduled wakeup per shard
        # instead of a sim event per trigger (the sequential validator's
        # schedule/cancel pair is pure overhead at high trigger rates).
        self._deadlines: List[Tuple[float, int, Tuple]] = []
        self._deadline_seq = itertools.count()
        self._wakeup = None
        self._wakeup_at = float("inf")
        self._flush_scheduled = False
        self.stats = ShardStats()
        # Frame-backend bookkeeping (unused on the serial/inline path):
        # monotone frame sequence and the worker's open-record mirror.
        self._frame_seq = itertools.count()
        self._remote_open = 0
        # Per-shard Ψid view: this shard's own contributions, reconciled
        # against the merged view at checkpoint (see ValidationPipeline).
        self.local_progress: Dict[str, int] = {}
        self.local_cache_updates: Dict[str, int] = {}

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
        if not backend.inline:
            # Frame backend: collect → submit; the merge barrier (scheduled
            # at delay 0, so still within this simulated instant) replays
            # the verdict and drives the snapshot sink.
            backend.flush_shard(self)
            return
        self._process_available()
        sink = self.pipeline.snapshot_sink
        if sink is not None:
            # Periodic export rides the flush path: the sink snapshots at
            # most once per interval boundary, never schedules sim events.
            sink.observe(self.sim.now)

    def _process_available(self) -> None:
        """Ingest up to ``batch_max`` queued responses, oldest first.

        Before ingesting a response that arrived at time ``t``, any θτ
        deadline ≤ ``t`` fires first — the sequential validator would have
        fired that timer before this response arrived, and classification
        must match (the timer-expires-while-queued race of the regression
        suite). When the queue fully drains, deadlines up to the current
        simulated time fire as well.

        The per-response steps are the inlined body of
        :meth:`Validator.ingest <repro.core.validator.Validator.ingest>`
        minus the state snapshots (which the sequential path discards
        before evaluating consensus): late-drop → record create + θτ arm →
        count → append → Ψ update → decide at ``2k + 2``. Inlining with
        hoisted locals is what buys the batch path its throughput — this
        loop is the pipeline's innermost.
        """
        stats = self.stats
        pipeline = self.pipeline
        queue = self.queue
        overflow = self.overflow
        records = self.records
        recently_decided = self._late_drop.decided
        deadlines = self._deadlines
        state = self.state
        local_progress = self.local_progress
        local_cache_updates = self.local_cache_updates
        progress_memo = pipeline._progress_memo
        progress_of = pipeline._progress_of
        full_count = 2 * self.k + 2
        capacity = pipeline.queue_capacity
        budget = pipeline.batch_max
        batch = 0
        while budget > 0:
            if not queue and overflow:
                while overflow and len(queue) < capacity:
                    queue.append(overflow.popleft())
                    stats.overflow_drained += 1
            if not queue:
                break
            arrived_at, response = queue.popleft()
            batch += 1
            budget -= 1
            if deadlines and deadlines[0][0] <= arrived_at:
                self._fire_deadlines(arrived_at)
            tau = response.trigger_id
            if tau in recently_decided:
                stats.late_responses += 1
                if self.tracer is not None and self._sampled(tau):
                    self.tracer.emit(self.sim.now, tau, obs_trace.LATE_DROP,
                                     controller=response.controller_id)
                if self.metrics is not None and self._sampled(tau):
                    self.metrics.counter(
                        "validator_late_responses_total").inc()
                continue
            record = records.get(tau)
            if record is None:
                record = _ShardRecord(first_at=arrived_at)
                record.deadline = arrived_at + self.timeout.current()
                heapq.heappush(deadlines,
                               (record.deadline, next(self._deadline_seq),
                                tau))
                records[tau] = record
                self._arm_wakeup()
            record.count += 1
            record.responses.append(response)
            cid = response.controller_id
            if response.kind is _CACHE_UPDATE:
                entry = state.get(cid)
                if entry is None:
                    entry = state[cid] = ControllerState()
                entry.cache_updates += 1
                entry.last_entry = response.entry
                local_cache_updates[cid] = local_cache_updates.get(cid, 0) + 1
            digest = response.state_digest
            if digest:
                progress = progress_memo.get(digest)
                if progress is None and digest not in progress_memo:
                    progress = progress_of(digest)
                if progress is not None:
                    entry = state.get(cid)
                    if entry is None:
                        entry = state[cid] = ControllerState()
                    if progress > entry.digest_progress:
                        entry.digest_progress = progress
                    if progress > local_progress.get(cid, -1):
                        local_progress[cid] = progress
            if record.count >= full_count:
                self._decide(tau, record, timed_out=False)
        stats.processed += batch
        if batch:
            stats.batches += 1
            stats.batched_responses += batch
            if batch > stats.max_batch:
                stats.max_batch = batch
        if queue or overflow:
            # Budget exhausted: backpressure the remainder to the next flush
            # (same simulated instant at flush interval 0).
            if not self._flush_scheduled:
                self._flush_scheduled = True
                self.sim.schedule(0.0, self._flush)
        else:
            self._fire_deadlines(self.sim.now)
            self._arm_wakeup()

    # ------------------------------------------------------------------
    # θτ deadlines
    # ------------------------------------------------------------------
    def _fire_deadlines(self, upto: float) -> None:
        while self._deadlines and self._deadlines[0][0] <= upto:
            _, _, tau = heapq.heappop(self._deadlines)
            record = self.records.get(tau)
            if record is None or record.decided:
                continue  # decided at full count; heap entry is stale
            self._decide(tau, record, timed_out=True)

    def _arm_wakeup(self) -> None:
        while self._deadlines and self._deadlines[0][2] not in self.records:
            heapq.heappop(self._deadlines)
        if not self._deadlines:
            if self._wakeup is not None:
                self._wakeup.cancel()
                self._wakeup = None
                self._wakeup_at = float("inf")
            return
        head = self._deadlines[0][0]
        if self._wakeup is not None:
            if self._wakeup_at <= head:
                return  # current wakeup fires first and will re-arm
            self._wakeup.cancel()
        self._wakeup = self.sim.schedule_at(head, self._on_wakeup)
        self._wakeup_at = head

    def _on_wakeup(self) -> None:
        self._wakeup = None
        self._wakeup_at = float("inf")
        self.stats.timer_wakeups += 1
        # Queued responses arrived before (or at) this deadline; ingest them
        # before letting any timer classify the trigger with fewer responses
        # than the sequential validator would have seen.
        self._process_available()

    # ------------------------------------------------------------------
    # Frame-backend path (repro.core.backends): the parent keeps queue and
    # overflow accounting plus everything that touches shared state; the
    # worker's ShardCore runs the per-response loop and ships back an
    # ordered event log this side replays.
    # ------------------------------------------------------------------
    def _collect_frame(self, wakeup: bool = False) -> Optional[BatchFrame]:
        """Drain up to ``batch_max`` queued responses into a frame.

        Mirrors the queue/overflow discipline of ``_process_available``
        exactly (refill from overflow only when the queue empties, count
        each refill as a drain, reschedule a flush for any remainder).
        Returns None when there is nothing to do — except for θτ wakeups,
        which always produce a frame so the worker fires due deadlines.
        """
        stats = self.stats
        queue = self.queue
        overflow = self.overflow
        capacity = self.pipeline.queue_capacity
        budget = self.pipeline.batch_max
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
        if not items and not wakeup:
            return None
        drained = not queue and not overflow
        if not drained and not self._flush_scheduled:
            # Budget exhausted: backpressure the remainder to the next
            # flush (same simulated instant at flush interval 0).
            self._flush_scheduled = True
            self.sim.schedule(0.0, self._flush)
        return BatchFrame(shard=self.index, seq=next(self._frame_seq),
                          now=self.sim.now, items=tuple(items),
                          drained=drained, wakeup=wakeup)

    def _merge_verdict(self, frame: BatchFrame, verdict: VerdictFrame) -> None:
        """Replay a worker's ordered event log against the shared state.

        Event order is the worker's processing order, which is the serial
        path's processing order for the same responses — so each decision's
        staleness/policy checks observe exactly the Ψ prefix the inline
        loop would have produced, and alarm/span emission order matches.
        """
        stats = self.stats
        for key, value in verdict.stats_delta.items():
            if key == "max_batch":
                if value > stats.max_batch:
                    stats.max_batch = value
            else:
                setattr(stats, key, getattr(stats, key) + value)
        state = self.state
        local_progress = self.local_progress
        local_cache_updates = self.local_cache_updates
        for event in verdict.events:
            tag = event[0]
            if tag == EV_PSI_CACHE:
                _, cid, entry_value = event
                entry = state.get(cid)
                if entry is None:
                    entry = state[cid] = ControllerState()
                entry.cache_updates += 1
                entry.last_entry = entry_value
                local_cache_updates[cid] = local_cache_updates.get(cid, 0) + 1
            elif tag == EV_PSI_PROGRESS:
                _, cid, progress = event
                entry = state.get(cid)
                if entry is None:
                    entry = state[cid] = ControllerState()
                if progress > entry.digest_progress:
                    entry.digest_progress = progress
                if progress > local_progress.get(cid, -1):
                    local_progress[cid] = progress
            elif tag == EV_LATE:
                _, tau, controller = event
                if self.tracer is not None and self._sampled(tau):
                    self.tracer.emit(self.sim.now, tau, obs_trace.LATE_DROP,
                                     controller=controller)
                if self.metrics is not None and self._sampled(tau):
                    self.metrics.counter(
                        "validator_late_responses_total").inc()
            else:  # EV_DECISION
                self._finalize_decision(event[1])
        self._remote_open = verdict.open_records
        self._remote_arm(verdict.next_deadline, frame.drained)

    def _finalize_decision(self, decision: DecisionRecord) -> None:
        """Run the observable half of a decision the worker classified.

        The worker ships classification + consensus outcome; this side
        reruns the unmodified check battery
        (:meth:`DecisionCore._post_consensus_alarms` — the sanity check is
        pure and cheap, staleness needs the merged Ψ, the policy engine
        lives only here) and emits results exactly as ``_decide`` does.
        """
        tau = decision.trigger_id
        responses = list(decision.responses)
        if self.tracer is not None and self._sampled(tau):
            self._trace_decide(tau, decision.count, decision.external,
                               decision.timed_out)
        alarms = self._post_consensus_alarms(tau, responses,
                                             decision.outcome,
                                             decision.external)
        self.timeout.observe(decision.detection_ms)
        result = ValidationResult(
            trigger_id=tau, ok=not alarms, external=decision.external,
            decided_at=self.sim.now, n_responses=decision.count,
            detection_ms=decision.detection_ms,
            timed_out=decision.timed_out, alarms=alarms)
        if (self.tracer is not None or self.metrics is not None
                or self.forensics is not None or self.health is not None
                or self.recorder is not None):
            self._observe_decision(tau, result, responses,
                                   decision.outcome, decision.external)
        self.stats.decided += 1
        if alarms:
            self.stats.alarmed += 1
        self.pipeline._emit(result, alarms)

    def _remote_arm(self, head: Optional[float], drained: bool) -> None:
        """Arm the shard wakeup from the worker's θτ heap head."""
        if head is None:
            if drained and self._wakeup is not None:
                self._wakeup.cancel()
                self._wakeup = None
                self._wakeup_at = float("inf")
            return
        if self._wakeup is not None:
            if self._wakeup_at <= head:
                return  # current wakeup fires first and will re-arm
            self._wakeup.cancel()
        self._wakeup = self.sim.schedule_at(head, self._on_remote_wakeup)
        self._wakeup_at = head

    def _on_remote_wakeup(self) -> None:
        self._wakeup = None
        self._wakeup_at = float("inf")
        # The wakeup frame may carry zero items; the worker still counts
        # the wakeup and fires deadlines up to the frame's timestamp.
        self.pipeline.backend.flush_shard(self, wakeup=True)

    # ------------------------------------------------------------------
    # Decision
    # ------------------------------------------------------------------
    def _decide(self, tau: Tuple, record: _ShardRecord,
                timed_out: bool) -> None:
        record.decided = True
        responses = record.responses
        external = self._classify_external(record.count, responses)
        if self.tracer is not None and self._sampled(tau):
            self._trace_decide(tau, record.count, external, timed_out)
        outcome = self._fast_consensus(responses, external)
        if outcome is None:
            self.stats.slowpath_decisions += 1
            outcome, alarms = self._run_checks(tau, responses, external)
        else:
            self.stats.fastpath_decisions += 1
            alarms = self._post_consensus_alarms(tau, responses, outcome,
                                                 external)

        received = [r.trigger_received_at for r in responses
                    if r.trigger_received_at is not None]
        baseline = min(received) if received else record.first_at
        detection_ms = max(0.0, self.sim.now - baseline)
        self.timeout.observe(detection_ms)

        result = ValidationResult(
            trigger_id=tau, ok=not alarms, external=external,
            decided_at=self.sim.now, n_responses=record.count,
            detection_ms=detection_ms, timed_out=timed_out, alarms=alarms)
        if (self.tracer is not None or self.metrics is not None
                or self.forensics is not None or self.health is not None
                or self.recorder is not None):
            self._observe_decision(tau, result, responses, outcome, external)
        self.stats.decided += 1
        if alarms:
            self.stats.alarmed += 1
        del self.records[tau]
        if self._late_drop.add(tau, self.sim.now):
            self._late_drop.expire(self.sim.now, self.timeout.current())
        self.pipeline._emit(result, alarms)

    def _fast_consensus(self, responses: List[Response],
                        external: bool) -> Optional[ConsensusOutcome]:
        """Unanimity fast path: the clean outcome or ``None`` (fall back).

        The logic lives in
        :func:`repro.core.consensus.unanimity_fast_consensus` so backend
        worker ShardCores run literally the same code with their own
        network-entry memo; this wrapper binds the pipeline's.
        """
        return unanimity_fast_consensus(responses, external,
                                        self.state_aware,
                                        self.pipeline._merged_network)

    # ------------------------------------------------------------------
    # Checkpoint / restore (inline backends; frame backends harvest the
    # same payload shape from their worker's ShardCore instead)
    # ------------------------------------------------------------------
    def core_state(self) -> Dict[str, object]:
        """This shard's decision state, ShardCore-snapshot compatible.

        Same payload shape as :meth:`ShardCore.snapshot
        <repro.core.backends.shardcore.ShardCore.snapshot>` (unpickled), so
        a checkpoint taken on one backend restores on any other.
        ``itertools.count`` cannot be peeked, so reading the next heap
        tie-break seq burns one value and re-creates the counter there.
        """
        seq = next(self._deadline_seq)
        self._deadline_seq = itertools.count(seq)
        return {
            "records": {
                tau: (tuple(r.responses), r.count, r.first_at, r.deadline,
                      r.decided)
                for tau, r in self.records.items()},
            "recently_decided": self._late_drop.payload(),
            "deadlines": list(self._deadlines),
            "deadline_seq": seq,
        }

    def core_restore(self, payload: Dict[str, object]) -> None:
        """Rehydrate decision state from a :meth:`core_state` payload.

        Re-arms the coalesced θτ wakeup; a head deadline already in the
        past (backpressured batch at checkpoint time) is clamped to *now*
        so the wakeup fires immediately instead of tripping the
        simulator's no-past-scheduling guard.
        """
        self.records = {
            tau: _ShardRecord(responses=list(fields[0]), count=fields[1],
                              first_at=fields[2], deadline=fields[3],
                              decided=fields[4])
            for tau, fields in payload["records"].items()}
        self._late_drop.restore(payload["recently_decided"])
        self._deadlines = list(payload["deadlines"])
        heapq.heapify(self._deadlines)
        self._deadline_seq = itertools.count(int(payload["deadline_seq"]))
        while self._deadlines and self._deadlines[0][2] not in self.records:
            heapq.heappop(self._deadlines)
        if self._wakeup is not None:
            self._wakeup.cancel()
            self._wakeup = None
            self._wakeup_at = float("inf")
        if self._deadlines:
            head = max(self._deadlines[0][0], self.sim.now)
            self._wakeup = self.sim.schedule_at(head, self._on_wakeup)
            self._wakeup_at = head


class ValidationPipeline:
    """Drop-in sharded replacement for :class:`~repro.core.validator.Validator`.

    Exposes the validator's public surface (``ingest`` /
    ``handle_control_message``, counters, ``results`` / ``alarms``,
    ``detection_times`` / ``false_positive_rate``, ``on_alarm``) so
    :class:`~repro.core.deployment.JuryDeployment` and the harness can select
    ``pipeline=N`` without touching call sites.
    """

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
        self.sim = sim
        self.k = k
        self.shards = shards
        self.timeout = timeout if timeout is not None else StaticTimeout(150.0)
        self.policy_engine = policy_engine
        self.mastership_lookup = mastership_lookup
        self.keep_results = keep_results
        self.state_aware = state_aware
        self.taint_classification = taint_classification
        self.queue_capacity = queue_capacity
        self.batch_max = batch_max
        self.flush_interval_ms = flush_interval_ms
        #: Observability (repro.obs); shards share both objects, and the
        #: trace they produce carries no shard indices — engine-specific
        #: detail (queues, batches, overflow) goes to the metrics registry
        #: so traces stay byte-identical at any shard count.
        self.tracer = active_tracer(tracer)
        self.metrics = metrics
        self.forensics = forensics
        self.health = health
        #: Periodic exporter (repro.obs.export.SnapshotSink) driven by the
        #: shard flush path; like the other observers it is pull-only.
        self.snapshot_sink = snapshot_sink
        #: Head sampler and flight recorder (repro.obs.sampling /
        #: .recorder): the sampler gates observer cost per trigger, the
        #: recorder is the always-on bounded ring — both shared by every
        #: shard, like the tracer.
        self.sampler = active_sampler(sampler)
        self.recorder = recorder
        #: Wall-clock worker profiling (repro.obs.profile): read by frame
        #: backends at worker start; the serial backend has no workers and
        #: ignores it.
        self.profile = bool(profile)
        #: Merged Ψid view shared by all shards (see module docstring).
        self.state: Dict[str, ControllerState] = {}
        self._shards = [_Shard(self, i) for i in range(shards)]
        # tau -> (shard, head-sampling decision): both are pure functions
        # of the trigger id, resolved once per trigger.
        self._route: Dict[Tuple, Tuple["_Shard", bool]] = {}
        self.results: List[ValidationResult] = []
        self._alarms: List[Alarm] = []
        self._alarms_sorted = True
        self.on_alarm: Optional[Callable[[Alarm], None]] = None
        self.responses_received = 0
        self.triggers_decided = 0
        self.triggers_alarmed = 0
        # Bounded memo caches: digests and network entries repeat heavily
        # across triggers (state advances slowly relative to trigger rate).
        self._progress_memo: Dict[Tuple, Optional[int]] = {}
        self._network_memo: Dict[Tuple, Tuple] = {}
        #: Crash recovery (repro.core.checkpoint): optional write-ahead log
        #: of ingests/decisions, plus an automatic snapshot every
        #: ``checkpoint_every`` decided triggers handed to ``on_checkpoint``.
        self.wal = wal
        self.checkpoint_every = checkpoint_every
        self.on_checkpoint = on_checkpoint
        self._since_checkpoint = 0
        self._checkpoint_scheduled = False
        #: Execution backend (repro.core.backends): owns how shard work
        #: units are scheduled. ``serial`` keeps the historical inline
        #: path; ``threads``/``processes`` exchange batch/verdict frames
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
        if self.wal is not None:
            # Logged before it can influence any decision: recovery replays
            # exactly the inputs this run saw, in arrival order.
            self.wal.append_ingest(self.sim.now, response)
        self.responses_received += 1
        tau = response.trigger_id
        # Route cache: ~2k+2 responses share each trigger id, so the
        # repr+CRC of shard_of — and the head-sampling decision, which
        # hashes the same key — amortise to one dict hit per response.
        entry = self._route.get(tau)
        if entry is None:
            sampler = self.sampler
            entry = (self._shards[shard_of(tau, self.shards)],
                     sampler is None or sampler.sampled(tau))
            if len(self._route) > 100_000:
                self._route.clear()
            self._route[tau] = entry
        shard, sampled = entry
        if sampled:
            if self.tracer is not None:
                self.tracer.emit(self.sim.now, tau, obs_trace.INGEST,
                                 kind=response.kind.value,
                                 controller=response.controller_id)
            if self.metrics is not None:
                self.metrics.counter("validator_responses_total",
                                     kind=response.kind.value).inc()
            if self.health is not None:
                # Engine-level hook (pre-queue) so response events match
                # the sequential validator's regardless of shard count.
                received = response.trigger_received_at
                self.health.record_response(
                    self.sim.now, response.controller_id,
                    lag_ms=None if received is None
                    else max(0.0, self.sim.now - received))
        shard.enqueue(self.sim.now, response)

    def drain(self) -> None:
        """Synchronously process every queued response (benchmark path)."""
        self.backend.drain()

    # ------------------------------------------------------------------
    # Emission (single ordered alarm stream)
    # ------------------------------------------------------------------
    def _emit(self, result: ValidationResult, alarms: List[Alarm]) -> None:
        self.triggers_decided += 1
        if alarms:
            self.triggers_alarmed += 1
            self._alarms.extend(alarms)
            self._alarms_sorted = False
            if self.on_alarm is not None:
                for alarm in alarms:
                    self.on_alarm(alarm)
        if self.keep_results:
            self.results.append(result)
        if self.wal is not None:
            self.wal.append_decision(self.sim.now, result.trigger_id,
                                     len(alarms))
        if self.checkpoint_every is not None:
            self._since_checkpoint += 1
            if (self._since_checkpoint >= self.checkpoint_every
                    and not self._checkpoint_scheduled):
                # Delay 0 lands after every event of the current simulated
                # instant — including the merge barrier on frame backends —
                # so the snapshot captures a consistent instant boundary.
                self._checkpoint_scheduled = True
                self.sim.schedule(0.0, self._auto_checkpoint)

    @property
    def alarms(self) -> List[Alarm]:
        """The merged alarm stream in deterministic order.

        Sorted by ``(raised_at, trigger id)`` — the pipeline's published
        merge contract. The sort is stable, so alarms of one trigger keep
        their check-battery emission order.
        """
        if not self._alarms_sorted:
            self._alarms.sort(key=alarm_merge_key)
            self._alarms_sorted = True
        return self._alarms

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
            open_records = sum(len(s.records) for s in self._shards)
        else:
            open_records = sum(s._remote_open for s in self._shards)
        return open_records + sum(
            len(s.queue) + len(s.overflow) for s in self._shards)

    def detection_times(self, external_only: bool = True) -> List[float]:
        return [r.detection_ms for r in self.results
                if (r.external or not external_only)]

    def false_positive_rate(self) -> float:
        if not self.triggers_decided:
            return 0.0
        return self.triggers_alarmed / self.triggers_decided

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
    # Checkpoint / restore (repro.core.checkpoint, docs/recovery.md)
    # ------------------------------------------------------------------
    def _auto_checkpoint(self) -> None:
        self._checkpoint_scheduled = False
        self._since_checkpoint = 0
        checkpoint = self.checkpoint()
        if self.on_checkpoint is not None:
            self.on_checkpoint(checkpoint)

    def checkpoint(self) -> "Checkpoint":
        """Snapshot the full pipeline into a restorable envelope.

        Captures the merged Ψ view, every shard's decision state (via the
        backend, so frame backends harvest their worker's ShardCore — the
        backend merges any in-flight verdicts first), arrival queues and
        overflow rings, per-shard stats, the per-shard Ψid local views,
        the merged alarm stream, results, engine counters, and the global
        trigger-id counters. Appends a marker to the WAL (when attached)
        so :func:`repro.core.checkpoint.wal_tail` can split the log.
        """
        state = {
            "psi": snapshot_controller_states(self.state),
            "shards": [
                {"core": self.backend.shard_state(shard),
                 "queue": list(shard.queue),
                 "overflow": list(shard.overflow),
                 "stats": shard.stats.snapshot(),
                 "local_progress": dict(shard.local_progress),
                 "local_cache_updates": dict(shard.local_cache_updates)}
                for shard in self._shards],
            # The sorted property: idempotent, deterministic order.
            "alarms": list(self.alarms),
            "results": list(self.results),
            "counters": (self.responses_received, self.triggers_decided,
                         self.triggers_alarmed),
            "trigger_ids": snapshot_trigger_ids(),
            "staleness": (self.staleness_threshold,
                          self.staleness_cooldown_ms),
        }
        meta = {
            "engine": "pipeline",
            "k": self.k,
            "shards": self.shards,
            "backend": self.backend_name,
            "timeout_ms": self.timeout.current(),
            "sim_now": self.sim.now,
            "queue_capacity": self.queue_capacity,
            "batch_max": self.batch_max,
            "flush_interval_ms": self.flush_interval_ms,
            "keep_results": self.keep_results,
            "state_aware": self.state_aware,
            "taint_classification": self.taint_classification,
            "triggers_decided": self.triggers_decided,
        }
        checkpoint = Checkpoint.build(meta, state)
        if self.wal is not None:
            self.wal.append_checkpoint(checkpoint.sha256)
        observe_checkpoint(self, checkpoint)
        return checkpoint

    def restore(self, checkpoint: "Checkpoint") -> None:
        """Rehydrate this (fresh) pipeline from a :meth:`checkpoint`.

        The pipeline must have the same shape (``k``, shard count) as the
        one that produced the snapshot and must not have advanced past the
        snapshot's simulated time; the backend may differ (a serial
        checkpoint restores onto a processes backend and vice versa — the
        shard payload is the portable ShardCore shape). On frame backends
        the payload is pushed down to the replacement workers, which also
        resets the crash-recovery piggyback basis: a worker killed after
        this point rehydrates from this snapshot instead of frame 0.
        """
        meta = checkpoint.meta
        if meta.get("engine") != "pipeline":
            raise CheckpointError(
                f"checkpoint was taken by engine "
                f"{meta.get('engine')!r}, not a pipeline")
        if meta.get("k") != self.k or meta.get("shards") != self.shards:
            raise CheckpointError(
                f"checkpoint shape (k={meta.get('k')}, "
                f"shards={meta.get('shards')}) does not match this "
                f"pipeline (k={self.k}, shards={self.shards})")
        if self.triggers_decided or self.responses_received:
            raise CheckpointError(
                "restore target must be a fresh pipeline (this one has "
                f"already ingested {self.responses_received} responses)")
        state = checkpoint.state()
        sim_now = meta["sim_now"]
        if self.sim.now > sim_now:
            raise CheckpointError(
                f"simulator is at t={self.sim.now} ms, past the "
                f"checkpoint's t={sim_now} ms")
        self.sim.run(until=sim_now)
        # Shards hold a reference to this exact dict (shared merged view):
        # mutate in place, never rebind.
        self.state.clear()
        self.state.update(restore_controller_states(state["psi"]))
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
        self._alarms = list(state["alarms"])
        self._alarms_sorted = True
        self.results = list(state["results"])
        (self.responses_received, self.triggers_decided,
         self.triggers_alarmed) = state["counters"]
        restore_trigger_ids(state["trigger_ids"])
        threshold, cooldown = state["staleness"]
        self.staleness_threshold = threshold
        self.staleness_cooldown_ms = cooldown
        observe_restore(self, checkpoint)

    # ------------------------------------------------------------------
    # Memoised helpers for the shard fast path
    # ------------------------------------------------------------------
    def _progress_of(self, digest: Tuple) -> Optional[int]:
        if not digest:
            return None
        cached = self._progress_memo.get(digest)
        if cached is None and digest not in self._progress_memo:
            cached = digest_progress(digest)
            if len(self._progress_memo) > 4096:
                self._progress_memo.clear()
            self._progress_memo[digest] = cached
        return cached

    def _merged_network(self, network: List[Response]) -> Tuple:
        if not network:
            return ()
        if len(network) == 1:
            entry = network[0].entry
            cached = self._network_memo.get(entry)
            if cached is None:
                cached = _merge_network(network)
                if len(self._network_memo) > 2048:
                    self._network_memo.clear()
                self._network_memo[entry] = cached
            return cached
        return _merge_network(network)
