"""Worker-side shard state: the portable half of a pipeline shard.

A :class:`ShardCore` owns exactly the per-trigger state a
:class:`~repro.core.pipeline._Shard` keeps — Vτ/Nτ records, the coalesced
θτ deadline heap, the recently-decided late-drop window — and processes
:class:`~repro.core.backends.frames.BatchFrame` work units with the same
inlined loop semantics as ``_Shard._process_available``. It holds **no**
shared state: instead of touching the merged Ψid view or the observability
stack it appends to an ordered event log that the parent replays (see
``frames.py``), which is what lets the same class run in a worker process,
a worker thread, or inline on the parent after a degrade.

Determinism contract: given the same frame sequence, a ShardCore produces
the same event log as the serial shard produces side effects, in the same
order — the backend differential suite pins this at N∈{1,2,4,8}.
"""

from __future__ import annotations

import heapq
import pickle
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.backends.frames import (
    EV_DECISION,
    EV_LATE,
    EV_PSI_CACHE,
    EV_PSI_PROGRESS,
    BatchFrame,
    DecisionRecord,
    VerdictFrame,
)
from repro.core.consensus import (
    _merge_network,
    evaluate_consensus,
    unanimity_fast_consensus,
)
from repro.core.latedrop import LateDropWindow
from repro.core.responses import Response, ResponseKind
from repro.core.validator import classify_external, digest_progress

_CACHE_UPDATE = ResponseKind.CACHE_UPDATE

#: Counter names shipped back per frame; the parent folds them into the
#: shard's :class:`~repro.core.pipeline.ShardStats` (``max_batch`` by max,
#: the rest by sum — ``decided``/``alarmed`` stay parent-side because only
#: the parent sees alarms).
DELTA_KEYS = ("processed", "batches", "batched_responses", "max_batch",
              "timer_wakeups", "fastpath_decisions", "slowpath_decisions",
              "late_responses")


@dataclass
class _CoreRecord:
    """Vτ / Nτ / θτ on a worker (mirror of ``_ShardRecord``)."""

    responses: List[Response] = field(default_factory=list)
    count: int = 0
    first_at: float = 0.0
    deadline: float = 0.0
    decided: bool = False


class ShardCore:
    """Processes batch frames for one shard; emits ordered event logs."""

    def __init__(self, k: int, timeout_ms: float, state_aware: bool = True,
                 taint_classification: bool = True):
        self.k = k
        self.timeout_ms = timeout_ms
        self.state_aware = state_aware
        self.taint_classification = taint_classification
        self.records: Dict[Tuple, _CoreRecord] = {}
        self.late_drop = LateDropWindow()
        self.deadlines: List[Tuple[float, int, Tuple]] = []
        self._deadline_seq = 0
        # Bounded memos, same bounds as the pipeline's (they repeat heavily).
        self._progress_memo: Dict[Tuple, Optional[int]] = {}
        self._network_memo: Dict[Tuple, Tuple] = {}

    # ------------------------------------------------------------------
    # Frame processing (the worker hot loop)
    # ------------------------------------------------------------------
    def process(self, frame: BatchFrame) -> VerdictFrame:
        events: List[Tuple] = []
        stats = {key: 0 for key in DELTA_KEYS}
        if frame.wakeup:
            stats["timer_wakeups"] = 1
        records = self.records
        recently_decided = self.late_drop.decided
        deadlines = self.deadlines
        full_count = 2 * self.k + 2
        now = frame.now
        batch = 0
        for arrived_at, response in frame.items:
            batch += 1
            if deadlines and deadlines[0][0] <= arrived_at:
                self._fire_deadlines(arrived_at, now, events, stats)
            tau = response.trigger_id
            if tau in recently_decided:
                stats["late_responses"] += 1
                events.append((EV_LATE, tau, response.controller_id))
                continue
            record = records.get(tau)
            if record is None:
                record = _CoreRecord(first_at=arrived_at)
                record.deadline = arrived_at + self.timeout_ms
                self._deadline_seq += 1
                heapq.heappush(deadlines,
                               (record.deadline, self._deadline_seq, tau))
                records[tau] = record
            record.count += 1
            record.responses.append(response)
            cid = response.controller_id
            if response.kind is _CACHE_UPDATE:
                events.append((EV_PSI_CACHE, cid, response.entry))
            digest = response.state_digest
            if digest:
                progress = self._progress_of(digest)
                if progress is not None:
                    events.append((EV_PSI_PROGRESS, cid, progress))
            if record.count >= full_count:
                self._decide(tau, record, False, now, events, stats)
        stats["processed"] = batch
        if batch:
            stats["batches"] = 1
            stats["batched_responses"] = batch
            stats["max_batch"] = batch
        if frame.drained:
            self._fire_deadlines(now, now, events, stats)
        return VerdictFrame(
            shard=frame.shard, seq=frame.seq, events=tuple(events),
            stats_delta={k: v for k, v in stats.items() if v},
            next_deadline=self._peek_deadline(),
            open_records=len(records),
            snapshot=self.snapshot() if frame.want_snapshot else None)

    def _fire_deadlines(self, upto: float, now: float, events: List[Tuple],
                        stats: Dict[str, int]) -> None:
        while self.deadlines and self.deadlines[0][0] <= upto:
            _, _, tau = heapq.heappop(self.deadlines)
            record = self.records.get(tau)
            if record is None or record.decided:
                continue  # decided at full count; heap entry is stale
            self._decide(tau, record, True, now, events, stats)

    def _peek_deadline(self) -> Optional[float]:
        while self.deadlines and self.deadlines[0][2] not in self.records:
            heapq.heappop(self.deadlines)
        return self.deadlines[0][0] if self.deadlines else None

    def _decide(self, tau: Tuple, record: _CoreRecord, timed_out: bool,
                now: float, events: List[Tuple],
                stats: Dict[str, int]) -> None:
        record.decided = True
        responses = record.responses
        external = classify_external(record.count, responses, self.k,
                                     self.taint_classification)
        outcome = unanimity_fast_consensus(responses, external,
                                           self.state_aware,
                                           self._merged_network)
        fastpath = outcome is not None
        if fastpath:
            stats["fastpath_decisions"] += 1
        else:
            stats["slowpath_decisions"] += 1
            outcome = evaluate_consensus(responses, self.k, external,
                                         state_aware=self.state_aware)
        received = [r.trigger_received_at for r in responses
                    if r.trigger_received_at is not None]
        baseline = min(received) if received else record.first_at
        detection_ms = max(0.0, now - baseline)
        events.append((EV_DECISION, DecisionRecord(
            trigger_id=tau, count=record.count, external=external,
            timed_out=timed_out, detection_ms=detection_ms,
            fastpath=fastpath, outcome=outcome,
            responses=tuple(responses))))
        del self.records[tau]
        if self.late_drop.add(tau, now):
            self.late_drop.expire(now, self.timeout_ms)

    # ------------------------------------------------------------------
    # Memoised helpers (bounds mirror ValidationPipeline's)
    # ------------------------------------------------------------------
    def _progress_of(self, digest: Tuple) -> Optional[int]:
        memo = self._progress_memo
        cached = memo.get(digest)
        if cached is None and digest not in memo:
            cached = digest_progress(digest)
            if len(memo) > 4096:
                memo.clear()
            memo[digest] = cached
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

    # ------------------------------------------------------------------
    # Snapshot / restore (worker bootstrap after a death)
    # ------------------------------------------------------------------
    def snapshot(self) -> bytes:
        """Pickled decision state — everything but the (pure) memos."""
        return pickle.dumps({
            "records": {
                tau: (tuple(r.responses), r.count, r.first_at, r.deadline,
                      r.decided)
                for tau, r in self.records.items()},
            "recently_decided": self.late_drop.payload(),
            "deadlines": list(self.deadlines),
            "deadline_seq": self._deadline_seq,
        }, protocol=pickle.HIGHEST_PROTOCOL)

    def restore(self, payload: bytes) -> None:
        """Load a :meth:`snapshot` — the replacement worker's bootstrap."""
        data = pickle.loads(payload)
        self.records = {
            tau: _CoreRecord(responses=list(fields[0]), count=fields[1],
                             first_at=fields[2], deadline=fields[3],
                             decided=fields[4])
            for tau, fields in data["records"].items()}
        self.late_drop.restore(data["recently_decided"])
        self.deadlines = list(data["deadlines"])
        heapq.heapify(self.deadlines)
        self._deadline_seq = data["deadline_seq"]
