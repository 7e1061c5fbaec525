"""The out-of-band validator — Algorithm 1.

For every trigger τ the validator collects responses into Vτ, counting them
in Nτ and arming a timer θτ on the first arrival. A decision fires when the
full external-response complement (``2k + 2``: one primary network write,
``k + 1`` cache updates, ``k`` replica results) has arrived or the timer
expires. Classification follows the algorithm exactly: a tainted response in
Vτ — or more than ``k + 2`` responses — marks the trigger *external*;
external triggers run CONSENSUS → SANITY_CHECK → POLICY_CHECK, internal ones
CONSENSUS → POLICY_CHECK. A failed check raises an alarm with precise action
attribution.

The validator also maintains the per-controller-id state Ψid of Algorithm 1:
a running count of cache updates per controller plus a copy of the latest,
relying on the TCP-ordered relay of updates for accuracy (§IV-C).

The collect → θτ → decide loop itself lives in
:class:`~repro.core.backends.shardcore.ShardCore` and nowhere else; this
module holds the two halves around it. :class:`DecisionCore` is the *sink*
the loop reports to — the Ψid update, the late-drop telemetry, and the
check battery run on a decided trigger — and each engine is exactly one:
the sequential :class:`Validator` and
:class:`~repro.core.pipeline.ValidationPipeline`, whose shards hand their
batches to it. :class:`Validator` is the synchronous driver: one core, no
queue, every response run through it before ``ingest`` returns.
:class:`ThetaWakeup` is the one coalesced θτ wakeup a driver (the
validator, or a pipeline shard) keeps for its core.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.controllers.context import restore_trigger_ids, snapshot_trigger_ids
from repro.core.alarms import (
    Alarm,
    AlarmReason,
    ValidationResult,
    alarm_merge_key,
)
from repro.core.backends.shardcore import ShardCore, core_counters
from repro.core.checkpoint import Checkpoint
from repro.core.consensus import ConsensusOutcome, sanity_check
from repro.core.responses import Response
from repro.core.timeouts import StaticTimeout, TimeoutPolicy
from repro.errors import CheckpointError
from repro.obs.observer import Observer
from repro.sim.simulator import Simulator


@dataclass
class ControllerState:
    """Ψid: succinct per-controller state at the validator."""

    cache_updates: int = 0
    last_entry: Tuple = ()
    #: Progress of this replica's view: sum of per-origin applied seqs from
    #: its latest response digest. Stalls when the node desynchronizes.
    digest_progress: int = 0
    last_stale_alarm_at: float = -1e18


def snapshot_controller_states(
        state: Dict[str, "ControllerState"]) -> Dict[str, Tuple]:
    """Picklable snapshot of a Ψid mapping (checkpoint / restore)."""
    return {cid: (entry.cache_updates, entry.last_entry,
                  entry.digest_progress, entry.last_stale_alarm_at)
            for cid, entry in state.items()}


def restore_controller_states(
        payload: Dict[str, Tuple]) -> Dict[str, "ControllerState"]:
    """Inverse of :func:`snapshot_controller_states`."""
    return {cid: ControllerState(cache_updates=fields[0],
                                 last_entry=fields[1],
                                 digest_progress=fields[2],
                                 last_stale_alarm_at=fields[3])
            for cid, fields in payload.items()}


class DecisionCore:
    """The engine-side half of Algorithm 1: the sink a core reports to.

    A :class:`~repro.core.backends.shardcore.ShardCore` collects responses,
    keeps θτ and evaluates consensus; everything that touches shared state
    happens here, in the three sink methods :meth:`psi`, :meth:`late` and
    :meth:`decision` (SANITY_CHECK → staleness → POLICY_CHECK, then the
    result and its alarms), and the last two are what the
    :class:`~repro.obs.observer.Observer` hears of a trigger. Each engine
    is one DecisionCore, the sink of every core it drives, so a decided
    trigger yields identical alarms whichever driver collected it. A
    subclass provides ``timeout`` and ``_emit``.
    """

    sim: Simulator
    k: int
    policy_engine: object
    mastership_lookup: Optional[Callable[[int], Optional[str]]]
    state_aware: bool
    taint_classification: bool
    staleness_threshold: Optional[int]
    staleness_cooldown_ms: float
    state: Dict[str, ControllerState]

    def _init_core(self, sim: Simulator, k: int,
                   policy_engine=None,
                   mastership_lookup: Optional[Callable[[int], Optional[str]]] = None,
                   state_aware: bool = True,
                   taint_classification: bool = True,
                   observer: Optional[Observer] = None) -> None:
        self.sim = sim
        self.k = k
        self.policy_engine = policy_engine
        self.mastership_lookup = mastership_lookup
        #: The observer seam (repro.obs.observer), or None when nothing
        #: observes: one branch per event, and no observer can alter a
        #: decision (read-only contract).
        self.observer = observer
        #: Ablation switches (DESIGN.md §5): snapshot-grouped consensus and
        #: taint-based external/internal classification.
        self.state_aware = state_aware
        self.taint_classification = taint_classification
        #: Staleness monitor (out-of-sync node detection): alarm when a
        #: responding replica's view lags the most advanced responder by
        #: more than this many writes. None disables the monitor.
        self.staleness_threshold = 200
        self.staleness_cooldown_ms = 1000.0
        self.state = {}

    # ------------------------------------------------------------------
    # The sink (see repro.core.backends.shardcore)
    # ------------------------------------------------------------------
    def psi(self, controller_id: str, cached: bool, entry: Tuple,
            progress: Optional[int]) -> None:
        """A response moved Ψid: a cache relay and/or digest progress."""
        state = self.state.get(controller_id)
        if state is None:
            state = self.state[controller_id] = ControllerState()
        if cached:
            state.cache_updates += 1
            state.last_entry = entry
        if progress is not None and progress > state.digest_progress:
            state.digest_progress = progress

    def late(self, tau: Tuple, controller_id: str) -> None:
        """A response for an already-decided trigger was dropped."""
        observer = self.observer
        if observer is not None:
            observer.late(self.sim.now, tau, controller_id)

    def decision(self, tau: Tuple, count: int, external: bool,
                 timed_out: bool, detection_ms: float,
                 outcome: ConsensusOutcome,
                 responses: List[Response]) -> bool:
        """Vτ closed with ``outcome``: run the checks, publish the result.
        Returns whether the trigger alarmed."""
        now = self.sim.now
        alarms, checks = self._post_consensus_alarms(tau, responses, outcome,
                                                     external)
        self.timeout.observe(detection_ms)
        result = ValidationResult(
            trigger_id=tau, ok=not alarms, external=external,
            decided_at=now, n_responses=count, detection_ms=detection_ms,
            timed_out=timed_out, alarms=alarms)
        observer = self.observer
        if observer is not None:
            # Before the result is published: an on_alarm hook may ingest,
            # and this trigger's spans must precede whatever that emits.
            observer.decision(now, result, responses, checks)
        self._emit(result, alarms)
        return bool(alarms)

    # ------------------------------------------------------------------
    # Checks
    # ------------------------------------------------------------------
    def _post_consensus_alarms(self, tau: Tuple, responses: List[Response],
                               outcome: ConsensusOutcome, external: bool
                               ) -> Tuple[List[Alarm], tuple]:
        """Sanity, staleness, and policy checks after a consensus outcome.

        Returns the alarms and the battery's four raw verdicts: the
        consensus ``outcome``, the sanity outcome (None when consensus
        failed and sanity did not run), the staleness alarms (None with
        the monitor off) and the policy violations (None without a policy
        engine). Every decided trigger comes through here whichever driver
        collected it, so the ``check:*`` spans and counters an
        observer renders from the verdicts describe it identically.
        """
        alarms: List[Alarm] = []
        sane = None
        if not outcome.ok:
            alarms.append(self._alarm(tau, outcome, responses))
        else:
            # Sanity runs for every decided trigger: empty cache and network
            # entries pass trivially, and internal T2 faults (cache write
            # whose FLOW_MOD was dropped) are caught here too.
            sane = sanity_check(outcome.primary_cache_entry,
                                outcome.primary_network_entry,
                                outcome.primary_id)
            if not sane.ok:
                alarms.append(self._alarm(tau, sane, responses))

        stale = self._staleness_alarms(tau, responses)
        alarms.extend(stale)

        violations = None
        if self.policy_engine is not None:
            violations = self.policy_engine.check_decision(
                outcome, external, mastership_lookup=self.mastership_lookup)
            for violation in violations:
                alarms.append(Alarm(
                    trigger_id=tau, reason=AlarmReason.POLICY_VIOLATION,
                    offending_controller=outcome.primary_id,
                    detail=str(violation), raised_at=self.sim.now))
        return alarms, (outcome, sane,
                        None if self.staleness_threshold is None else stale,
                        violations)

    def _staleness_alarms(self, tau: Tuple,
                          responses: List[Response]) -> List[Alarm]:
        """Flag responders whose view lags the cluster (out-of-sync nodes).

        Consensus deliberately excuses stale replicas per trigger (transient
        asynchrony, §IV-C); *persistent* lag is an operational fault the
        validator's per-controller state exposes. Rate-limited per node.
        """
        if self.staleness_threshold is None:
            return []
        responders = {r.controller_id for r in responses}
        # Sorted so alarm emission order is replica-count deterministic.
        progresses = {cid: self.state[cid].digest_progress
                      for cid in sorted(responders) if cid in self.state}
        if len(progresses) < 2:
            return []
        frontier = max(progresses.values())
        if frontier - min(progresses.values()) <= self.staleness_threshold:
            return []  # nobody exceeds the lag bound; skip the per-node scan
        alarms: List[Alarm] = []
        for cid, progress in progresses.items():
            if frontier - progress <= self.staleness_threshold:
                continue
            state = self.state[cid]
            if self.sim.now - state.last_stale_alarm_at < self.staleness_cooldown_ms:
                continue
            state.last_stale_alarm_at = self.sim.now
            alarms.append(Alarm(
                trigger_id=tau, reason=AlarmReason.STALE_REPLICA,
                offending_controller=cid, raised_at=self.sim.now,
                detail=f"replica view lags the cluster by "
                       f"{frontier - progress} writes"))
        return alarms

    def _alarm(self, tau: Tuple, outcome: ConsensusOutcome,
               responses: List[Response]) -> Alarm:
        return Alarm(
            trigger_id=tau, reason=outcome.reason,
            offending_controller=outcome.offending,
            detail=outcome.detail, raised_at=self.sim.now,
            responses=tuple(responses))


class ThetaWakeup:
    """A driver's one coalesced θτ wakeup: a single simulator event due at
    its core's earliest deadline instead of one per trigger. A subclass
    provides ``sim``, ``core`` and ``_on_wakeup``."""

    _wakeup = None
    _wakeup_at = float("inf")

    def _arm(self, prune: bool = False) -> None:
        """Keep the wakeup no later than the core's earliest deadline; a
        new record almost never moves it. With ``prune``, heap entries of
        triggers decided at full count are dropped first: once per wakeup,
        not looked for on every response. A deadline already in the past
        (a core restored with a backpressured batch) fires at once instead
        of tripping the simulator's no-past-scheduling guard."""
        core = self.core
        if prune:
            core.next_deadline()
        deadlines = core.deadlines
        if deadlines and deadlines[0][0] < self._wakeup_at:
            head = max(deadlines[0][0], self.sim.now)
            if self._wakeup is not None:
                self._wakeup.cancel()
            self._wakeup = self.sim.schedule_at(head, self._wakeup_fired)
            self._wakeup_at = head

    def _wakeup_fired(self) -> None:
        self._wakeup = None
        self._wakeup_at = float("inf")
        self._on_wakeup()


#: The top-level keys of every checkpoint body; an engine's
#: ``_engine_keys`` name the ones its ``_engine_state`` adds.
BODY_KEYS = ("psi", "alarms", "results", "counters", "trigger_ids",
             "staleness")


class EngineSurface:
    """What a deployment, a checkpoint and a replay see of an engine.

    Results, the alarm stream, counters, the write-ahead log and the
    checkpoint envelope, implemented once for :class:`Validator` (the
    engine every deployment builds) and
    :class:`~repro.core.pipeline.ValidationPipeline`, so recovery and
    replay drive either through the same calls. An engine provides
    ``ingest`` (and the channel endpoint ``handle_control_message``), its
    :attr:`kind`, and the three ``_engine_*`` hooks and ``_engine_keys``
    that say what is specific to it in a snapshot; ``sim``, ``k``,
    ``timeout``, ``state`` and the ablation and staleness switches are read
    off the engine under those names.
    """

    #: ``meta["engine"]`` of this engine's checkpoints.
    kind: str
    _engine_keys: Tuple[str, ...]

    def _init_surface(self, keep_results: bool,
                      checkpoint_every: Optional[int],
                      on_checkpoint: Optional[Callable], wal,
                      observer: Optional[Observer]) -> None:
        self.observer = observer
        #: The subscribers deployments, the CLI and the benchmarks read off
        #: the engine (None when off); the engine reports only through
        #: ``observer``.
        self.tracer, self.metrics, self.forensics, self.health = (
            (observer.tracer, observer.metrics, observer.forensics,
             observer.health) if observer is not None else (None,) * 4)
        self.keep_results = keep_results
        self.results: List[ValidationResult] = []
        self._alarms: List[Alarm] = []
        self._alarms_sorted = True
        self.on_alarm: Optional[Callable[[Alarm], None]] = None
        self.responses_received = 0
        self.triggers_decided = 0
        self.triggers_alarmed = 0
        #: Crash recovery (repro.core.checkpoint): optional write-ahead log
        #: of ingests, plus an automatic snapshot every
        #: ``checkpoint_every`` decided triggers handed to ``on_checkpoint``.
        self.wal = wal
        self.checkpoint_every = checkpoint_every
        self.on_checkpoint = on_checkpoint
        self._since_checkpoint = 0
        self._checkpoint_scheduled = False

    # ------------------------------------------------------------------
    # Emission (single ordered alarm stream)
    # ------------------------------------------------------------------
    def _emit(self, result: ValidationResult, alarms: List[Alarm]) -> None:
        self.triggers_decided += 1
        if alarms:
            self.triggers_alarmed += 1
            self._alarms.extend(alarms)
            if self.on_alarm is not None:
                for alarm in alarms:
                    self.on_alarm(alarm)
        if self.keep_results:
            self.results.append(result)
        if self.checkpoint_every is not None:
            self._since_checkpoint += 1
            if (self._since_checkpoint >= self.checkpoint_every
                    and not self._checkpoint_scheduled):
                # Delay 0 lands after every event of the current simulated
                # instant, so the snapshot captures a consistent instant
                # boundary.
                self._checkpoint_scheduled = True
                self.sim.schedule(0.0, self._auto_checkpoint)

    @property
    def alarms(self) -> List[Alarm]:
        """The alarm stream, a plain list that may be replaced.

        A :class:`Validator`'s is in emission order, which is decision
        order. A pipeline's shards emit within one instant in shard order
        and mark the list unsorted; it is then put in the published merge
        order, ``(raised_at, trigger id)`` — the same at any shard count —
        on the next read. The sort is stable, so alarms of one trigger
        keep their check-battery emission order.
        """
        if not self._alarms_sorted:
            self._alarms.sort(key=alarm_merge_key)
            self._alarms_sorted = True
        return self._alarms

    @alarms.setter
    def alarms(self, alarms: List[Alarm]) -> None:
        self._alarms = alarms

    def detection_times(self, external_only: bool = True) -> List[float]:
        """Detection latencies of decided triggers (ms)."""
        return [r.detection_ms for r in self.results
                if (r.external or not external_only)]

    def false_positive_rate(self) -> float:
        """Alarmed fraction of decided triggers (meaningful on benign runs)."""
        if not self.triggers_decided:
            return 0.0
        return self.triggers_alarmed / self.triggers_decided

    # ------------------------------------------------------------------
    # Checkpoint / restore (repro.core.checkpoint, docs/recovery.md)
    # ------------------------------------------------------------------
    def _auto_checkpoint(self) -> None:
        self._checkpoint_scheduled = False
        self._since_checkpoint = 0
        checkpoint = self.checkpoint()
        if self.on_checkpoint is not None:
            self.on_checkpoint(checkpoint)

    def checkpoint(self) -> Checkpoint:
        """Full crash-recovery snapshot of this engine.

        Captures Ψid, the alarm and result history, the counters, the
        process-global trigger-id counter positions, and the engine's own
        decision state (``_engine_state``: one core payload for a
        validator; per shard, the core payload plus queues and stats for a
        pipeline). Appends
        a marker to the attached WAL so recovery knows which log records
        the snapshot subsumes.
        """
        state, meta = self._engine_state()
        state.update(
            psi=snapshot_controller_states(self.state),
            alarms=list(self.alarms), results=list(self.results),
            counters=(self.responses_received, self.triggers_decided,
                      self.triggers_alarmed),
            trigger_ids=snapshot_trigger_ids(),
            staleness=(self.staleness_threshold, self.staleness_cooldown_ms))
        meta.update(
            self._engine_shape(), engine=self.kind,
            timeout_ms=self.timeout.current(), sim_now=self.sim.now,
            keep_results=self.keep_results, state_aware=self.state_aware,
            taint_classification=self.taint_classification,
            triggers_decided=self.triggers_decided)
        checkpoint = Checkpoint.build(meta, state)
        if self.wal is not None:
            self.wal.append_checkpoint(checkpoint.sha256)
        if self.observer is not None:
            self.observer.checkpoint(self.sim.now, checkpoint)
        return checkpoint

    def restore(self, checkpoint: Checkpoint) -> None:
        """Rehydrate this *fresh* engine from a :meth:`checkpoint`.

        The engine must have the kind and shape (``k``; shard count) of
        the one that produced the snapshot and must not have advanced past
        its simulated time. Advances the
        simulator to the checkpointed instant, rebuilds Ψid and the
        decision state, re-arms the θτ wakeups at the original deadlines,
        and re-seeds the trigger-id counters. After a WAL-tail replay the
        alarm stream continues byte-identically to the uninterrupted
        run's (``flush_interval_ms=0`` regime).
        """
        meta = checkpoint.meta
        if meta.get("engine") != self.kind:
            raise CheckpointError(
                f"checkpoint was taken by engine {meta.get('engine')!r}, "
                f"not a {self.kind}")
        shape = self._engine_shape()
        theirs = {key: meta.get(key) for key in shape}
        if theirs != shape:
            def show(values):
                return ", ".join(f"{key}={value!r}"
                                 for key, value in values.items())
            raise CheckpointError(
                f"checkpoint shape ({show(theirs)}) does not match this "
                f"{self.kind} ({show(shape)})")
        if self.triggers_decided or self.responses_received:
            raise CheckpointError(
                f"restore target must be a fresh {self.kind} (this one has "
                f"already ingested {self.responses_received} responses)")
        state = checkpoint.state()
        for key in BODY_KEYS + self._engine_keys:
            if key not in state:
                raise CheckpointError(f"checkpoint body has no {key!r}")
        sim_now = float(meta.get("sim_now", 0.0))
        if self.sim.now > sim_now:
            raise CheckpointError(
                f"simulator is at t={self.sim.now} ms, past the "
                f"checkpoint's t={sim_now} ms")
        self.sim.run(until=sim_now)
        self._engine_restore(state)
        self.state = restore_controller_states(state["psi"])
        self._alarms = list(state["alarms"])
        self._alarms_sorted = True
        self.results = list(state["results"])
        (self.responses_received, self.triggers_decided,
         self.triggers_alarmed) = state["counters"]
        restore_trigger_ids(state["trigger_ids"])
        self.staleness_threshold, self.staleness_cooldown_ms = \
            state["staleness"]
        if self.observer is not None:
            self.observer.restore(self.sim.now, checkpoint)


class Validator(ThetaWakeup, DecisionCore, EngineSurface):
    """Out-of-band response validator: the synchronous driver of one core.

    No queue and no flush event: ``ingest`` runs the response through the
    core, which decides — and fires ``on_alarm`` — before it returns.
    """

    kind = "validator"
    _engine_keys = ("core", "late_responses")

    def __init__(self, sim: Simulator, k: int,
                 timeout: Optional[TimeoutPolicy] = None,
                 policy_engine=None,
                 mastership_lookup: Optional[Callable[[int], Optional[str]]] = None,
                 keep_results: bool = True,
                 state_aware: bool = True,
                 taint_classification: bool = True,
                 tracer=None, metrics=None,
                 forensics=None, health=None,
                 sampler=None, recorder=None,
                 checkpoint_every: Optional[int] = None,
                 on_checkpoint: Optional[Callable] = None,
                 wal=None):
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
        self.timeout = timeout if timeout is not None else StaticTimeout(150.0)
        self.core = ShardCore(k, self.timeout, state_aware=state_aware,
                              taint_classification=taint_classification)
        self._counters = core_counters()

    def handle_control_message(self, channel, response: Response) -> None:
        """Channel endpoint for controller modules."""
        self.ingest(response)

    def ingest(self, response: Response) -> None:
        """Process one incoming (id, τ, entry) response."""
        now = self.sim.now
        if self.wal is not None:
            # Logged before it can influence any decision: recovery replays
            # exactly the inputs this run saw, in arrival order.
            self.wal.append_ingest(now, response)
        self.responses_received += 1
        observer = self.observer
        if observer is not None:
            observer.ingest(now, response)
        self.core.run(((now, response),), now, True, self, self._counters)
        self._arm()

    def _on_wakeup(self) -> None:
        now = self.sim.now
        self.core.run((), now, True, self, self._counters)
        self._arm(prune=True)

    # ------------------------------------------------------------------
    # What is this engine's own in a checkpoint (see EngineSurface)
    # ------------------------------------------------------------------
    def _engine_shape(self) -> Dict[str, int]:
        return {"k": self.k}

    def _engine_state(self) -> Tuple[Dict[str, object], Dict[str, object]]:
        return {"core": self.core.payload(),
                "late_responses": self.late_responses}, {}

    def _engine_restore(self, state: Dict[str, object]) -> None:
        self.core.load(state["core"])
        self._arm()
        self._counters.late_responses = state["late_responses"]

    # ------------------------------------------------------------------
    # Introspection for the harness
    # ------------------------------------------------------------------
    @property
    def late_responses(self) -> int:
        """Responses dropped because their trigger was already decided."""
        return self._counters.late_responses

    @property
    def pending_count(self) -> int:
        """Triggers awaiting more responses or their timer."""
        return len(self.core.records)
