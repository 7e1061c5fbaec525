"""The one implementation of Algorithm 1's collect → θτ → decide loop.

A :class:`ShardCore` owns the per-trigger state — Vτ/Nτ records, the
coalesced θτ deadline heap, the late-drop window — and :meth:`ShardCore.run`
is the only place responses are collected, deadlines fire and consensus is
evaluated. It touches nothing shared: every effect goes through a three-method
*sink* the caller passes in,

``psi(controller_id, cached, entry, progress)``
    a response moved a controller's Ψid (a cache relay and/or digest progress),
``late(trigger_id, controller_id)``
    a response for an already-decided trigger was dropped,
``decision(trigger_id, count, external, timed_out, detection_ms, outcome, responses)``
    Vτ closed and consensus was evaluated,

called in processing order. The sequential
:class:`~repro.core.validator.Validator` and every pipeline shard pass
*themselves* (:class:`~repro.core.validator.DecisionCore` implements the
sink once), so effects land where and when the response is processed.
:meth:`ShardCore.process` runs one
:class:`~repro.core.backends.frames.BatchFrame` against an
:class:`_EventLog` sink instead; the benchmark's frame kernel is its last
caller.

Determinism contract: given the same items in the same order a core makes
the same sink calls in the same order — the differential suite pins this
at N∈{1,2,4,8}, and ``tests/test_one_engine.py`` holds the loop itself to
an independent reference.
"""

from __future__ import annotations

import heapq
from types import SimpleNamespace
from typing import (
    Collection,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.core.backends.frames import (
    EV_DECISION,
    EV_LATE,
    EV_PSI,
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
from repro.core.timeouts import StaticTimeout, TimeoutPolicy

_CACHE_UPDATE = ResponseKind.CACHE_UPDATE

#: The counters :meth:`ShardCore.run` maintains on the ``stats`` object it
#: is handed (a subset of :class:`~repro.core.pipeline.ShardStats`).
DELTA_KEYS = ("processed", "batches", "batched_responses", "max_batch",
              "fastpath_decisions", "slowpath_decisions", "late_responses")


def core_counters() -> SimpleNamespace:
    """A zeroed ``stats`` object for :meth:`ShardCore.run`."""
    return SimpleNamespace(**dict.fromkeys(DELTA_KEYS, 0))


def digest_progress(digest: Tuple) -> Optional[int]:
    """Total applied writes encoded in a (origin, seq) digest, if valid."""
    if not digest:
        return None
    try:
        return sum(seq for _, seq in digest)
    except (TypeError, ValueError):
        return None


def classify_external(count: int, responses: Sequence[Response], k: int,
                      taint_classification: bool) -> bool:
    """Algorithm 1's external test: count overflow or a tainted response."""
    external = count > k + 2
    if taint_classification:
        external = external or any(r.tainted for r in responses)
    return external


class _ProgressMemo(dict):
    """``digest → digest_progress(digest)``, filled on first lookup."""

    def __missing__(self, digest: Tuple) -> Optional[int]:
        if len(self) > 4096:
            self.clear()
        value = self[digest] = digest_progress(digest)
        return value


class CoreMemo:
    """Bounded memos for the two pure lookups of the hot loop.

    Digests and network entries repeat heavily across triggers (state
    advances slowly relative to the trigger rate). Cores that run in one
    process share one memo; both dicts are only ever mutated in place.
    """

    def __init__(self) -> None:
        self.progress = _ProgressMemo()
        self._network: Dict[Tuple, Tuple] = {}

    def merged_network(self, network: List[Response]) -> Tuple:
        """:func:`~repro.core.consensus._merge_network`, memoised for the
        common single-writer case."""
        if not network:
            return ()
        if len(network) == 1:
            entry = network[0].entry
            cached = self._network.get(entry)
            if cached is None:
                cached = _merge_network(network)
                if len(self._network) > 2048:
                    self._network.clear()
                self._network[entry] = cached
            return cached
        return _merge_network(network)


class _Record:
    """Vτ for one in-flight trigger. Nτ is ``len(responses)``; θτ is the
    trigger's entry in the core's deadline heap."""

    __slots__ = ("responses", "first_at")

    def __init__(self, first_at: float, responses: Iterable[Response] = ()):
        self.responses: List[Response] = list(responses)
        self.first_at = first_at


class _EventLog:
    """The sink :meth:`ShardCore.process` hands :meth:`ShardCore.run`:
    effects as picklable events, in call order (see ``frames.py``)."""

    def __init__(self) -> None:
        self.events: List[Tuple] = []

    def psi(self, controller_id, cached, entry, progress) -> None:
        self.events.append((EV_PSI, controller_id, cached, entry, progress))

    def late(self, trigger_id, controller_id) -> None:
        self.events.append((EV_LATE, trigger_id, controller_id))

    def decision(self, trigger_id, count, external, timed_out, detection_ms,
                 outcome, responses) -> None:
        self.events.append((EV_DECISION, DecisionRecord(
            trigger_id=trigger_id, count=count, external=external,
            timed_out=timed_out, detection_ms=detection_ms, outcome=outcome,
            responses=tuple(responses))))


class ShardCore:
    """Algorithm 1 for the triggers of one shard (or of a whole validator).

    ``timeout`` is the engine's :class:`~repro.core.timeouts.TimeoutPolicy`
    — consulted each time a record opens, so an adaptive policy that the
    sink's ``decision`` feeds is seen between two records of one batch — or
    a plain number of milliseconds.
    """

    def __init__(self, k: int, timeout: Union[TimeoutPolicy, float],
                 state_aware: bool = True,
                 taint_classification: bool = True):
        self.k = k
        self.timeout = (timeout if isinstance(timeout, TimeoutPolicy)
                        else StaticTimeout(timeout))
        self.state_aware = state_aware
        self.taint_classification = taint_classification
        self.records: Dict[Tuple, _Record] = {}
        # Triggers already decided: a late response (e.g. a promise-held
        # FLOW_MOD emerging after θτ) must be dropped, not allowed to open
        # a fresh record that would be judged alone and alarm spuriously.
        self.late_drop = LateDropWindow()
        # Coalesced θτ: one heap per core and one wakeup per driver instead
        # of a simulator event per trigger. Entries of triggers decided at
        # full count go stale in place and are skipped when they surface.
        self.deadlines: List[Tuple[float, int, Tuple]] = []
        self._deadline_seq = 0
        self.memo = CoreMemo()

    # ------------------------------------------------------------------
    # The loop
    # ------------------------------------------------------------------
    def run(self, items: Collection[Tuple[float, Response]], now: float,
            drained: bool, out, stats) -> None:
        """Collect ``items`` — ``(arrived_at, response)``, oldest first —
        at simulated time ``now``, reporting every effect to ``out``.

        Before a response that arrived at ``t`` is counted, every θτ
        deadline ≤ ``t`` fires: the trigger's timer ran out before this
        response existed, however long it then sat in a queue. With
        ``drained`` (nothing older is still queued behind these items)
        deadlines up to ``now`` fire as well.

        Re-entrancy: ``out.decision`` may call back into the engine (an
        ``on_alarm`` hook that ingests). All state is mutated in place and
        a decided trigger is moved to the late-drop window *before* the
        sink hears of it, so a nested ``run`` sees a consistent core.
        """
        records = self.records
        decided = self.late_drop.decided
        deadlines = self.deadlines
        progress_memo = self.memo.progress
        psi = out.psi
        full_count = 2 * self.k + 2
        for arrived_at, response in items:
            if deadlines and deadlines[0][0] <= arrived_at:
                self._fire_deadlines(arrived_at, now, out, stats)
            tau = response.trigger_id
            if tau in decided:
                stats.late_responses += 1
                out.late(tau, response.controller_id)
                continue
            record = records.get(tau)
            if record is None:
                self._deadline_seq += 1
                heapq.heappush(deadlines,
                               (arrived_at + self.timeout.current(),
                                self._deadline_seq, tau))
                record = records[tau] = _Record(arrived_at)
            responses = record.responses
            responses.append(response)
            cached = response.kind is _CACHE_UPDATE
            digest = response.state_digest
            progress = None
            if digest:
                try:
                    progress = progress_memo[digest]
                except TypeError:
                    # The digest comes from a controller — the component
                    # under suspicion — and may hold anything, including
                    # something unhashable: computed unmemoised, not raised.
                    progress = digest_progress(digest)
            if cached or progress is not None:
                psi(response.controller_id, cached, response.entry, progress)
            if len(responses) >= full_count:
                self._decide(tau, record, False, now, out, stats)
        batch = len(items)
        if batch:
            stats.processed += batch
            stats.batches += 1
            stats.batched_responses += batch
            if batch > stats.max_batch:
                stats.max_batch = batch
        if drained and deadlines and deadlines[0][0] <= now:
            self._fire_deadlines(now, now, out, stats)

    def _fire_deadlines(self, upto: float, now: float, out, stats) -> None:
        deadlines = self.deadlines
        records = self.records
        while deadlines and deadlines[0][0] <= upto:
            tau = heapq.heappop(deadlines)[2]
            record = records.get(tau)
            # None: decided at full count, the heap entry is stale.
            if record is not None:
                self._decide(tau, record, True, now, out, stats)

    def _decide(self, tau: Tuple, record: _Record, timed_out: bool,
                now: float, out, stats) -> None:
        del self.records[tau]
        over_cap = self.late_drop.add(tau, now)
        responses = record.responses
        count = len(responses)
        external = classify_external(count, responses, self.k,
                                     self.taint_classification)
        # The fast path returns an outcome only when it provably equals
        # what evaluate_consensus would produce; anything murkier is None.
        outcome = unanimity_fast_consensus(responses, external,
                                           self.state_aware,
                                           self.memo.merged_network)
        if outcome is None:
            stats.slowpath_decisions += 1
            outcome = evaluate_consensus(responses, self.k, external,
                                         state_aware=self.state_aware)
        else:
            stats.fastpath_decisions += 1
        received = [r.trigger_received_at for r in responses
                    if r.trigger_received_at is not None]
        baseline = min(received) if received else record.first_at
        out.decision(tau, count, external, timed_out,
                     max(0.0, now - baseline), outcome, responses)
        if over_cap:
            self.late_drop.expire(now, self.timeout.current())

    def next_deadline(self) -> Optional[float]:
        """Earliest θτ deadline of an undecided trigger (drops the stale
        entries above it), or None."""
        deadlines = self.deadlines
        while deadlines and deadlines[0][2] not in self.records:
            heapq.heappop(deadlines)
        return deadlines[0][0] if deadlines else None

    # ------------------------------------------------------------------
    # Frames (the benchmark's frame kernel)
    # ------------------------------------------------------------------
    def process(self, frame: BatchFrame) -> VerdictFrame:
        """Run one batch frame against an event-log sink."""
        log = _EventLog()
        stats = core_counters()
        self.run(frame.items, frame.now, frame.drained, log, stats)
        return VerdictFrame(
            shard=frame.shard, seq=frame.seq, events=tuple(log.events),
            stats_delta={key: value for key, value in vars(stats).items()
                         if value},
            next_deadline=self.next_deadline(),
            open_records=len(self.records))

    # ------------------------------------------------------------------
    # Checkpoint / restore
    # ------------------------------------------------------------------
    def payload(self) -> Dict[str, object]:
        """The decision state as plain data — everything but the (pure)
        memo; the same shape for a validator's core and a pipeline
        shard's. Stale heap heads are dropped first, which makes restore →
        payload a fixed point."""
        self.next_deadline()
        return {
            "records": {tau: (tuple(r.responses), r.first_at)
                        for tau, r in self.records.items()},
            "recently_decided": self.late_drop.payload(),
            "deadlines": list(self.deadlines),
            "deadline_seq": self._deadline_seq,
        }

    def load(self, payload: Dict[str, object]) -> None:
        """Replace the decision state with a :meth:`payload`."""
        self.records = {
            tau: _Record(first_at, responses)
            for tau, (responses, first_at) in payload["records"].items()}
        self.late_drop.restore(payload["recently_decided"])
        self.deadlines = list(payload["deadlines"])
        heapq.heapify(self.deadlines)
        self._deadline_seq = int(payload["deadline_seq"])
