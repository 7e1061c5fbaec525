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

The decision logic is factored into :class:`DecisionCore` so that the
sequential :class:`Validator` and the shards of
:class:`~repro.core.pipeline.ValidationPipeline` run literally the same code
on a decided trigger — the differential-equivalence suite
(``tests/test_pipeline_differential.py``) rests on that sharing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.controllers.context import restore_trigger_ids, snapshot_trigger_ids
from repro.core.alarms import Alarm, AlarmReason, ValidationResult
from repro.core.checkpoint import Checkpoint, observe_checkpoint, observe_restore
from repro.core.consensus import ConsensusOutcome, evaluate_consensus, sanity_check
from repro.core.latedrop import LateDropWindow
from repro.core.responses import Response
from repro.core.timeouts import StaticTimeout, TimeoutPolicy
from repro.errors import CheckpointError
from repro.obs import trace as obs_trace
from repro.obs.sampling import active_sampler
from repro.obs.trace import active_tracer
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


def digest_progress(digest: Tuple) -> Optional[int]:
    """Total applied writes encoded in a (origin, seq) digest, if valid."""
    if not digest:
        return None
    try:
        return sum(seq for _, seq in digest)
    except (TypeError, ValueError):
        return None


# Backward-compatible private alias (pre-pipeline name).
_digest_progress = digest_progress


def classify_external(count: int, responses: Sequence[Response], k: int,
                      taint_classification: bool) -> bool:
    """Algorithm 1's external test: count overflow or a tainted response.

    Pure so backend worker processes (:mod:`repro.core.backends`) classify
    triggers with literally the same code as the in-process validators.
    """
    external = count > k + 2
    if taint_classification:
        external = external or any(r.tainted for r in responses)
    return external


def snapshot_controller_states(
        state: Dict[str, "ControllerState"]) -> Dict[str, Tuple]:
    """Picklable snapshot of a Ψid mapping (worker bootstrap / restore)."""
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


@dataclass
class _TriggerRecord:
    """Vτ / Nτ / θτ for one in-flight trigger."""

    responses: List[Tuple[Tuple, Response]] = field(default_factory=list)
    count: int = 0
    first_at: float = 0.0
    #: Scheduled θτ event; annotated so it is a per-record dataclass field
    #: rather than a class attribute shared across records.
    timer: Optional[object] = None
    decided: bool = False


class DecisionCore:
    """Classification and the check battery shared by all validator flavours.

    Hosts exactly the per-trigger decision logic of Algorithm 1 —
    external/internal classification, CONSENSUS → SANITY_CHECK →
    POLICY_CHECK, and the staleness monitor — with no opinion about how
    responses were collected. :class:`Validator` collects them one at a
    time; a pipeline shard collects them in batches; both defer here so a
    decided trigger yields identical alarms either way.
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
                   state: Optional[Dict[str, ControllerState]] = None,
                   tracer=None, metrics=None,
                   forensics=None, health=None,
                   sampler=None, recorder=None) -> None:
        self.sim = sim
        self.k = k
        self.policy_engine = policy_engine
        self.mastership_lookup = mastership_lookup
        #: Observability (repro.obs). ``None`` is the no-op fast path: every
        #: instrumentation site guards with a single ``is not None`` branch,
        #: and no observer can alter a decision (read-only contract). The
        #: forensics and health observers (repro.obs.diagnose / .health)
        #: follow the same rules as the tracer and the metrics registry.
        self.tracer = active_tracer(tracer)
        self.metrics = metrics
        self.forensics = forensics
        self.health = health
        #: Head sampler (repro.obs.sampling). ``None`` records everything;
        #: otherwise observers see only the sampled triggers — a pure
        #: function of the trigger id, so every engine samples identically.
        #: Decisions and alarms never consult it, and alarmed decisions
        #: are always observed in full (see _observe_decision).
        self.sampler = active_sampler(sampler)
        # One-slot memo for _sampled (the trigger currently being decided).
        self._sampled_key: Optional[Tuple] = None
        self._sampled_value = True
        #: Flight recorder (repro.obs.recorder). Always on when present —
        #: one bounded append per decision — and never sampled: its whole
        #: point is holding the events leading up to an anomaly.
        self.recorder = recorder
        #: Ablation switches (DESIGN.md §5): snapshot-grouped consensus and
        #: taint-based external/internal classification.
        self.state_aware = state_aware
        self.taint_classification = taint_classification
        #: Staleness monitor (out-of-sync node detection): alarm when a
        #: responding replica's view lags the most advanced responder by
        #: more than this many writes. None disables the monitor.
        self.staleness_threshold = 200
        self.staleness_cooldown_ms = 1000.0
        self.state = state if state is not None else {}

    # ------------------------------------------------------------------
    # Classification and checks
    # ------------------------------------------------------------------
    def _classify_external(self, count: int,
                           responses: Sequence[Response]) -> bool:
        """Algorithm 1's external test: count overflow or a tainted response."""
        return classify_external(count, responses, self.k,
                                 self.taint_classification)

    def _sampled(self, tau: Tuple) -> bool:
        """Head-sampling decision for this trigger's telemetry.

        One-slot memo: the decision path asks three times per trigger
        (DECIDE span gate, check spans, decision observers), always for
        the trigger currently being decided.
        """
        sampler = self.sampler
        if sampler is None:
            return True
        if tau == self._sampled_key:
            return self._sampled_value
        value = sampler.sampled(tau)
        self._sampled_key = tau
        self._sampled_value = value
        return value

    def _run_checks(self, tau: Tuple, responses: List[Response],
                    external: bool) -> Tuple[ConsensusOutcome, List[Alarm]]:
        """CONSENSUS plus everything downstream of it, for one trigger."""
        outcome = evaluate_consensus(responses, self.k, external,
                                     state_aware=self.state_aware)
        return outcome, self._post_consensus_alarms(tau, responses, outcome,
                                                    external)

    def _post_consensus_alarms(self, tau: Tuple, responses: List[Response],
                               outcome: ConsensusOutcome,
                               external: bool) -> List[Alarm]:
        """Sanity, staleness, and policy checks after a consensus outcome.

        Both the sequential validator and the pipeline's unanimity fast
        path converge here, so the per-check spans emitted below describe
        every decided trigger identically regardless of engine — the
        trace-determinism contract of :mod:`repro.obs.trace` rests on it.
        """
        tracer = self.tracer
        metrics = self.metrics
        # Head sampling gates only the telemetry: the checks below run
        # identically for every trigger, and _observe_decision re-records
        # alarmed decisions in full regardless of the head decision.
        if (tracer is not None or metrics is not None) \
                and not self._sampled(tau):
            tracer = None
            metrics = None
        alarms: List[Alarm] = []
        if not outcome.ok:
            alarms.append(self._alarm(tau, outcome, responses))
        consensus_verdict = (obs_trace.VERDICT_OK if outcome.ok
                             else outcome.reason.value)
        if tracer is not None:
            tracer.emit(self.sim.now, tau, obs_trace.CHECK_CONSENSUS,
                        verdict=consensus_verdict,
                        detail=outcome.offending or "")
        if metrics is not None:
            metrics.counter("validator_checks_total", check="consensus",
                            verdict=consensus_verdict).inc()

        if outcome.ok:
            # Sanity runs for every decided trigger: empty cache and network
            # entries pass trivially, and internal T2 faults (cache write
            # whose FLOW_MOD was dropped) are caught here too.
            sane = sanity_check(outcome.primary_cache_entry,
                                outcome.primary_network_entry,
                                outcome.primary_id)
            if not sane.ok:
                alarms.append(self._alarm(tau, sane, responses))
            sanity_verdict = (obs_trace.VERDICT_OK if sane.ok
                              else sane.reason.value)
            if tracer is not None:
                tracer.emit(self.sim.now, tau, obs_trace.CHECK_SANITY,
                            verdict=sanity_verdict,
                            detail=sane.offending or "")
            if metrics is not None:
                metrics.counter("validator_checks_total", check="sanity",
                                verdict=sanity_verdict).inc()

        stale = self._staleness_alarms(tau, responses)
        alarms.extend(stale)
        if self.staleness_threshold is not None:
            stale_verdict = (obs_trace.VERDICT_OK if not stale
                             else f"stale:{len(stale)}")
            if tracer is not None:
                tracer.emit(self.sim.now, tau, obs_trace.CHECK_STALENESS,
                            verdict=stale_verdict,
                            detail=",".join(sorted(
                                a.offending_controller or "?"
                                for a in stale)))
            if metrics is not None:
                metrics.counter("validator_checks_total", check="staleness",
                                verdict=obs_trace.VERDICT_OK if not stale
                                else "stale").inc()

        if self.policy_engine is not None:
            violations = self.policy_engine.check_decision(
                outcome, external, mastership_lookup=self.mastership_lookup)
            for violation in violations:
                alarms.append(Alarm(
                    trigger_id=tau, reason=AlarmReason.POLICY_VIOLATION,
                    offending_controller=outcome.primary_id,
                    detail=str(violation), raised_at=self.sim.now))
            policy_verdict = (obs_trace.VERDICT_OK if not violations
                              else f"violations:{len(violations)}")
            if tracer is not None:
                tracer.emit(self.sim.now, tau, obs_trace.CHECK_POLICY,
                            verdict=policy_verdict,
                            detail=str(violations[0]) if violations else "")
            if metrics is not None:
                metrics.counter("validator_checks_total", check="policy",
                                verdict=obs_trace.VERDICT_OK if not violations
                                else "violation").inc()
        return alarms

    def _observe_decision(self, tau: Tuple, result: ValidationResult,
                          responses: Sequence[Response],
                          outcome: ConsensusOutcome,
                          external: bool) -> None:
        """Feed the decision to every enabled observer.

        Emits the alarm/accept spans and decision metrics, hands the
        evidence bundle (responses + consensus outcome) to the forensics
        observer, and records the decision event for health scoring. Called
        by every validator flavour immediately after a trigger's
        :class:`ValidationResult` is assembled; the DECIDE span itself is
        emitted earlier (before the checks) by :meth:`_trace_decide` so the
        per-trigger stage order matches causality.
        """
        recorder = self.recorder
        if recorder is not None:
            now = self.sim.now
            recorder.record(now, "decision", tau,
                            verdict="alarmed" if result.alarms else "ok",
                            external=external, timed_out=result.timed_out,
                            n=result.n_responses,
                            detection_ms=result.detection_ms)
            for alarm in result.alarms:
                recorder.record(now, "alarm", tau,
                                verdict=alarm.reason.value,
                                detail=alarm.offending_controller or "")
            if result.alarms:
                recorder.trigger("alarm", now)
        # Alarmed decisions are always observed in full — the severity
        # override of the head sampler (docs/observability.md §sampling).
        if not result.alarms and not self._sampled(tau):
            return
        tracer = self.tracer
        if tracer is not None:
            now = self.sim.now
            if result.alarms:
                for alarm in result.alarms:
                    tracer.emit(now, tau, obs_trace.ALARM,
                                verdict=alarm.reason.value,
                                detail=alarm.offending_controller or "")
            else:
                tracer.emit(now, tau, obs_trace.ACCEPT,
                            verdict=obs_trace.VERDICT_OK)
        metrics = self.metrics
        if metrics is not None:
            metrics.counter(
                "validator_decisions_total",
                outcome="alarmed" if result.alarms else "ok").inc()
            if result.timed_out:
                metrics.counter("validator_timeout_decisions_total").inc()
            metrics.histogram("validator_detection_ms").observe(
                result.detection_ms)
            metrics.histogram("validator_responses_per_trigger").observe(
                result.n_responses)
            for alarm in result.alarms:
                metrics.counter("validator_alarms_total",
                                reason=alarm.reason.value).inc()
        if self.forensics is not None:
            self.forensics.observe_decision(tau, responses, outcome,
                                            result, external)
        if self.health is not None:
            self.health.record_decision(self.sim.now, responses,
                                        result.alarms, result.timed_out)

    def _trace_decide(self, tau: Tuple, count: int, external: bool,
                      timed_out: bool) -> None:
        """DECIDE span: Vτ closed, checks about to run (tracer non-None)."""
        self.tracer.emit(self.sim.now, tau, obs_trace.DECIDE,
                         verdict="timeout" if timed_out else "full-count",
                         external=external, n_responses=count)

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


class Validator(DecisionCore):
    """Out-of-band response validator (sequential, one response at a time)."""

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
        self._init_core(sim, k, policy_engine=policy_engine,
                        mastership_lookup=mastership_lookup,
                        state_aware=state_aware,
                        taint_classification=taint_classification,
                        tracer=tracer, metrics=metrics,
                        forensics=forensics, health=health,
                        sampler=sampler, recorder=recorder)
        self.timeout = timeout if timeout is not None else StaticTimeout(150.0)
        self.keep_results = keep_results
        self._pending: Dict[Tuple, _TriggerRecord] = {}
        # Triggers already decided: late responses (e.g. a promise-held
        # FLOW_MOD emerging after the timer) must be dropped, not allowed to
        # open a fresh record that would be judged alone and alarm
        # spuriously.
        self._late_drop = LateDropWindow()
        self.results: List[ValidationResult] = []
        self.alarms: List[Alarm] = []
        self.on_alarm: Optional[Callable[[Alarm], None]] = None
        # Counters.
        self.responses_received = 0
        self.triggers_decided = 0
        self.triggers_alarmed = 0
        self.late_responses = 0
        #: Crash recovery (repro.core.checkpoint): optional write-ahead log
        #: of ingested responses, and an automatic snapshot every
        #: ``checkpoint_every`` decided triggers handed to ``on_checkpoint``.
        self.wal = wal
        self.checkpoint_every = checkpoint_every
        self.on_checkpoint = on_checkpoint
        self._since_checkpoint = 0
        self._checkpoint_scheduled = False

    # ------------------------------------------------------------------
    # Ingest
    # ------------------------------------------------------------------
    def handle_control_message(self, channel, response: Response) -> None:
        """Channel endpoint for controller modules."""
        self.ingest(response)

    def ingest(self, response: Response) -> None:
        """Process one incoming (id, τ, entry) response."""
        if self.wal is not None:
            # Logged before it can influence any decision: recovery replays
            # exactly the inputs this run saw, in arrival order.
            self.wal.append_ingest(self.sim.now, response)
        self.responses_received += 1
        tau = response.trigger_id
        sampler = self.sampler
        sampled = sampler is None or sampler.sampled(tau)
        tracer = self.tracer
        if tracer is not None and sampled:
            tracer.emit(self.sim.now, tau, obs_trace.INGEST,
                        kind=response.kind.value,
                        controller=response.controller_id)
        if self.metrics is not None and sampled:
            self.metrics.counter("validator_responses_total",
                                 kind=response.kind.value).inc()
        if self.health is not None and sampled:
            received = response.trigger_received_at
            self.health.record_response(
                self.sim.now, response.controller_id,
                lag_ms=None if received is None
                else max(0.0, self.sim.now - received))
        if tau in self._late_drop.decided:
            self.late_responses += 1
            if tracer is not None and sampled:
                tracer.emit(self.sim.now, tau, obs_trace.LATE_DROP,
                            controller=response.controller_id)
            if self.metrics is not None and sampled:
                self.metrics.counter("validator_late_responses_total").inc()
            return
        record = self._pending.get(tau)
        if record is None:
            record = _TriggerRecord(first_at=self.sim.now)
            record.timer = self.sim.schedule(
                self.timeout.current(), self._on_timer, tau)
            self._pending[tau] = record
        if record.decided:
            return  # late response after decision (counts as slow replica)
        record.count += 1
        snapshot = self._snapshot(response.controller_id)
        record.responses.append((snapshot, response))
        if response.is_cache:
            state = self.state.setdefault(response.controller_id, ControllerState())
            state.cache_updates += 1
            state.last_entry = response.entry
        progress = digest_progress(response.state_digest)
        if progress is not None:
            state = self.state.setdefault(response.controller_id, ControllerState())
            state.digest_progress = max(state.digest_progress, progress)
        if record.count >= 2 * self.k + 2:
            self._decide(tau, record, timed_out=False)

    def _snapshot(self, controller_id: str) -> Tuple:
        state = self.state.get(controller_id)
        if state is None:
            return (0, ())
        return (state.cache_updates, state.last_entry)

    def _on_timer(self, tau: Tuple) -> None:
        record = self._pending.get(tau)
        if record is not None and not record.decided:
            self._decide(tau, record, timed_out=True)

    # ------------------------------------------------------------------
    # Decision
    # ------------------------------------------------------------------
    def _decide(self, tau: Tuple, record: _TriggerRecord, timed_out: bool) -> None:
        record.decided = True
        if record.timer is not None:
            record.timer.cancel()
        responses = [response for _, response in record.responses]
        external = self._classify_external(record.count, responses)
        if self.tracer is not None and self._sampled(tau):
            self._trace_decide(tau, record.count, external, timed_out)
        outcome, alarms = self._run_checks(tau, responses, external)

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
        self.triggers_decided += 1
        if alarms:
            self.triggers_alarmed += 1
            self.alarms.extend(alarms)
            if self.on_alarm is not None:
                for alarm in alarms:
                    self.on_alarm(alarm)
        if self.keep_results:
            self.results.append(result)
        del self._pending[tau]
        if self._late_drop.add(tau, self.sim.now):
            self._late_drop.expire(self.sim.now, self.timeout.current())
        if self.wal is not None:
            self.wal.append_decision(self.sim.now, tau, len(alarms))
        if self.checkpoint_every is not None:
            self._since_checkpoint += 1
            if (self._since_checkpoint >= self.checkpoint_every
                    and not self._checkpoint_scheduled):
                # Delay-0 so the snapshot lands after every event of this
                # simulated instant, at a consistent boundary.
                self._checkpoint_scheduled = True
                self.sim.schedule(0.0, self._auto_checkpoint)

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
        """Full crash-recovery snapshot of this validator.

        Captures Ψid, every pending Vτ/Nτ record with its θτ deadline
        (read off the scheduled timer), the late-drop window, the alarm
        and result history, the counters, and the process-global
        trigger-id counter positions. Appends a marker to the attached
        WAL so recovery knows which log records the snapshot subsumes.
        """
        state = {
            "psi": snapshot_controller_states(self.state),
            "pending": {
                tau: (tuple(record.responses), record.count, record.first_at,
                      record.timer.time if record.timer is not None else None)
                for tau, record in self._pending.items()},
            "recently_decided": self._late_drop.payload(),
            "alarms": list(self.alarms),
            "results": list(self.results),
            "counters": (self.responses_received, self.triggers_decided,
                         self.triggers_alarmed, self.late_responses),
            "trigger_ids": snapshot_trigger_ids(),
            "staleness": (self.staleness_threshold,
                          self.staleness_cooldown_ms),
        }
        meta = {
            "engine": "validator", "k": self.k,
            "timeout_ms": self.timeout.current(), "sim_now": self.sim.now,
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

    def restore(self, checkpoint: Checkpoint) -> None:
        """Rehydrate a *fresh* validator from a :meth:`checkpoint`.

        Advances the simulator to the checkpointed instant, rebuilds Ψid
        and the pending records, re-arms every θτ timer at its original
        deadline, and re-seeds the trigger-id counters. After a WAL-tail
        replay the alarm stream continues byte-identically to the
        uninterrupted run's (``flush_interval_ms=0`` regime).
        """
        meta = checkpoint.meta
        if meta.get("engine") != "validator":
            raise CheckpointError(
                f"checkpoint is for engine {meta.get('engine')!r}, "
                f"not a sequential validator")
        if int(meta.get("k", -1)) != self.k:
            raise CheckpointError(
                f"checkpoint k={meta.get('k')!r} does not match "
                f"this validator's k={self.k}")
        if self.responses_received or self.triggers_decided or self._pending:
            raise CheckpointError(
                "restore target must be a fresh validator (this one has "
                "already processed responses)")
        state = checkpoint.state()
        sim_now = float(meta.get("sim_now", 0.0))
        if self.sim.now > sim_now:
            raise CheckpointError(
                f"simulator is at t={self.sim.now}ms, already past the "
                f"checkpoint instant t={sim_now}ms")
        if self.sim.now < sim_now:
            self.sim.run(until=sim_now)
        self.state.clear()
        self.state.update(restore_controller_states(state["psi"]))
        for tau, fields in state["pending"].items():
            record = _TriggerRecord(responses=list(fields[0]),
                                    count=fields[1], first_at=fields[2])
            deadline = fields[3]
            if deadline is not None:
                record.timer = self.sim.schedule_at(
                    deadline, self._on_timer, tau)
            self._pending[tau] = record
        self._late_drop.restore(state["recently_decided"])
        self.alarms = list(state["alarms"])
        self.results = list(state["results"])
        (self.responses_received, self.triggers_decided,
         self.triggers_alarmed, self.late_responses) = state["counters"]
        restore_trigger_ids(state["trigger_ids"])
        self.staleness_threshold, self.staleness_cooldown_ms = \
            state["staleness"]
        observe_restore(self, checkpoint)

    # ------------------------------------------------------------------
    # Introspection for the harness
    # ------------------------------------------------------------------
    @property
    def pending_count(self) -> int:
        """Triggers awaiting more responses or their timer."""
        return len(self._pending)

    def detection_times(self, external_only: bool = True) -> List[float]:
        """Detection latencies of decided triggers (ms)."""
        return [r.detection_ms for r in self.results
                if (r.external or not external_only)]

    def false_positive_rate(self) -> float:
        """Alarmed fraction of decided triggers (meaningful on benign runs)."""
        if not self.triggers_decided:
            return 0.0
        return self.triggers_alarmed / self.triggers_decided
