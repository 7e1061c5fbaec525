"""Differential oracles: the invariants every fuzz scenario must satisfy.

One :class:`DifferentialOracle` run executes a scenario **live** (fresh
simulator, topology, controller cluster, JURY deployment; the simulator
numbers the trigger ids, so a scenario gets the same ids wherever in a
process it runs), records the validator's exact input stream, then replays
that identical stream through the independent
:class:`~repro.fuzz.reference.ReferenceValidator`, the sequential
:class:`~repro.core.validator.Validator` and the sharded
:class:`~repro.core.pipeline.ValidationPipeline` at N ∈ {1, 2, 4, 8},
with observability on and off, checking the invariant catalog:

``CLEAN_RUN_ALARMED``
    A scenario with no fault schedule raised an alarm (a false positive —
    the paper's headline "no false alarms" claim).
``FAULT_UNDETECTED``
    An injected fault produced no matching alarm inside its settle window.
``DEADLINE_EXCEEDED``
    The fault was detected, but later than its θτ-derived deadline.
``PREMATURE_ALARM``
    An alarm fired before the first fault was even injected.
``REPLAY_DIVERGENCE``
    Replaying the recorded response stream through a fresh sequential
    validator did not reproduce the live alarm stream byte-for-byte.
``ENGINE_DIVERGENCE``
    The canonical alarm stream of the sequential validator, or of the
    sharded pipeline at some shard count, differs
    from the reference's. Validator and pipeline drive the same
    ``ShardCore``; the reference is a separate, textbook Algorithm 1, so
    this checks the decision loop and not only its drivers.
``RECOVERY_DIVERGENCE``
    Killing an engine mid-stream, restoring its newest checkpoint, and
    replaying the WAL tail plus the remaining records did not reproduce
    the uninterrupted replay's alarm stream byte-for-byte
    (:func:`repro.core.checkpoint.run_with_recovery`).
``COUNTER_MISMATCH``
    An engine agrees with the reference on alarms but not on accounting
    (decided / received / late counts).
``TRACE_DIVERGENCE``
    The canonical trace encoding differs between engines.
``OBSERVER_IMPURITY``
    Attaching tracer + metrics changed the alarm stream.

Violations carry enough detail to triage without re-running; the
:class:`~repro.fuzz.shrink.Shrinker` uses the violation-code signature as
its interestingness predicate.

Engine/trace divergences additionally ship **artifacts** (PR 8): the
diverging pair is re-run traced, the canonical traces are aligned with
:func:`repro.obs.diff.diff_tracers`, and the violation detail names the
first-divergence point; ``report.artifacts`` carries the full trace diff
plus a flight-recorder dump of the diverging replay (saved next to the
corpus entry by ``jury-repro fuzz --save-failing``), so every surviving
counterexample is triageable offline.

A ``perturb`` knob applies a deterministic timeout delta to the pipeline
replay at exactly one named shard count — a planted fire drill that must
produce exactly ``ENGINE_DIVERGENCE``, exercising the divergence →
diff → artifact path end to end (the committed
``tests/corpus/planted-engine-divergence.json`` entry).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.fuzz.scenario import ScenarioSpec, build_fault_scenario

#: Shard counts every scenario is replayed at.
DEFAULT_SHARD_COUNTS = (1, 2, 4, 8)
#: Shard counts additionally replayed with tracing + metrics attached.
DEFAULT_TRACED_SHARDS = (2, 4)


@dataclass(frozen=True)
class InvariantViolation:
    """One broken invariant, with human-readable detail."""

    code: str
    detail: str

    def __str__(self) -> str:
        return f"{self.code}: {self.detail}"


@dataclass
class FaultOutcome:
    """Detection verdict for one scheduled fault."""

    name: str
    injected_at: float
    deadline_ms: float
    detected: bool
    detection_ms: Optional[float]


@dataclass
class LiveRun:
    """Everything recorded from one live execution of a scenario."""

    spec: ScenarioSpec
    #: The validator's WAL ingest records ``(WAL_INGEST, time_ms,
    #: response)`` from warm-up's end on: the stream every replay is fed.
    records: list
    mastership: Dict[int, str]
    #: Canonical stream of the alarms raised *inside the recorded window*
    #: (post-warmup) — the only alarms a replay can reproduce.
    alarm_stream: bytes
    triggers_decided: int
    fault_outcomes: List[FaultOutcome] = field(default_factory=list)
    first_injection_at: Optional[float] = None
    alarms_before_injection: int = 0
    #: Alarms raised during warmup, before the WAL attached.
    warmup_alarms: int = 0
    #: Simulated time at which the live run stopped. Replays settle past
    #: the last record, so a trigger still in flight at the live cutoff
    #: decides in the replay but not live; live-vs-replay comparisons must
    #: therefore cap the replay stream at this instant.
    ended_at: float = 0.0


@dataclass
class OracleReport:
    """The verdict for one scenario."""

    spec: ScenarioSpec
    violations: List[InvariantViolation] = field(default_factory=list)
    triggers_decided: int = 0
    records: int = 0
    fault_outcomes: List[FaultOutcome] = field(default_factory=list)
    #: Stable digests for seed-stability assertions: the spec's canonical
    #: JSON, the live canonical alarm stream, and the canonical trace of
    #: the traced sequential replay (PR 3's encoding).
    spec_digest: str = ""
    alarm_digest: str = ""
    trace_digest: str = ""
    #: Divergence triage artifacts: ``trace_diff`` (the aligned canonical
    #: trace diff of the first diverging pair, JSON-able) and ``flight``
    #: (the diverging replay's flight-recorder payload). Empty when no
    #: engine/trace divergence occurred.
    artifacts: Dict[str, object] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.violations

    def codes(self) -> Tuple[str, ...]:
        """Sorted, de-duplicated violation codes — the failure signature."""
        return tuple(sorted({v.code for v in self.violations}))

    def to_dict(self) -> Dict[str, object]:
        return {
            "spec": self.spec.to_dict(),
            "ok": self.ok,
            "violations": [{"code": v.code, "detail": v.detail}
                           for v in self.violations],
            "triggers_decided": self.triggers_decided,
            "records": self.records,
            "faults": [{"name": f.name, "detected": f.detected,
                        "detection_ms": f.detection_ms,
                        "deadline_ms": f.deadline_ms}
                       for f in self.fault_outcomes],
            "spec_digest": self.spec_digest,
            "alarm_digest": self.alarm_digest,
            "trace_digest": self.trace_digest,
            "artifacts": dict(self.artifacts),
        }


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class DifferentialOracle:
    """Runs scenarios live and differentially; reports broken invariants."""

    def __init__(self,
                 shard_counts: Tuple[int, ...] = DEFAULT_SHARD_COUNTS,
                 traced_shards: Tuple[int, ...] = DEFAULT_TRACED_SHARDS,
                 settle_ms: float = 10_000.0,
                 perturb: Optional[Dict[str, object]] = None):
        self.shard_counts = shard_counts
        self.traced_shards = traced_shards
        self.settle_ms = settle_ms
        #: Planted fire drill: ``{"shards": ..., "timeout_delta_ms": ...}``
        #: perturbs exactly one replay variant's
        #: static timeout, deterministically forcing ENGINE_DIVERGENCE.
        self.perturb = perturb

    # ------------------------------------------------------------------
    # Live execution + recording
    # ------------------------------------------------------------------
    def record(self, spec: ScenarioSpec) -> LiveRun:
        """Execute ``spec`` live and capture the validator input stream."""
        from repro.api import Jury
        from repro.config import JuryConfig
        from repro.core.alarms import canonical_alarm_stream
        from repro.core.checkpoint import WriteAheadLog, wal_ingests
        from repro.faults.base import run_scenario
        from repro.workloads.traffic import TrafficDriver

        experiment = Jury.experiment(JuryConfig(
            kind=spec.kind, n=spec.n, k=spec.k, switches=spec.switches,
            seed=spec.seed, timeout_ms=spec.timeout_ms,
            policies=("default",)))
        experiment.warmup()
        wal = WriteAheadLog()
        experiment.validator.wal = wal
        warmup_alarms = len(experiment.validator.alarms)

        if spec.traffic is not None:
            driver = TrafficDriver(
                experiment.sim, experiment.topology,
                packet_in_rate_per_s=spec.traffic.rate_per_s,
                duration_ms=spec.traffic.duration_ms,
                arp_fraction=spec.traffic.arp_fraction,
                host_join_rate_per_s=spec.traffic.host_join_rate_per_s,
                seed_label=f"fuzz-traffic/{spec.seed}")
            driver.start()
            experiment.run(spec.traffic.duration_ms
                           + spec.settle_timeouts * spec.timeout_ms)

        validator = experiment.validator
        outcomes: List[FaultOutcome] = []
        first_injection: Optional[float] = None
        alarms_before = 0
        for fault_spec in spec.faults:
            scenario = build_fault_scenario(fault_spec)
            injected_at = experiment.sim.now
            if first_injection is None:
                first_injection = injected_at
                alarms_before = len(validator.alarms) - warmup_alarms
            deadline = (fault_spec.deadline_ms
                        if fault_spec.deadline_ms is not None
                        else scenario.settle_ms(experiment))
            result = run_scenario(experiment, scenario)
            outcomes.append(FaultOutcome(
                name=fault_spec.name, injected_at=injected_at,
                deadline_ms=deadline, detected=result.detected,
                detection_ms=result.detection_ms))

        experiment.run(spec.settle_timeouts * spec.timeout_ms)
        mastership = {dpid: experiment.cluster.master_of(dpid)
                      for dpid in experiment.cluster.proxies}
        return LiveRun(
            spec=spec,
            records=wal_ingests(wal.records()),
            mastership=mastership,
            alarm_stream=canonical_alarm_stream(
                validator.alarms[warmup_alarms:]),
            triggers_decided=validator.triggers_decided,
            fault_outcomes=outcomes,
            first_injection_at=first_injection,
            alarms_before_injection=alarms_before,
            warmup_alarms=warmup_alarms,
            ended_at=experiment.sim.now,
        )

    # ------------------------------------------------------------------
    # Replay engines
    # ------------------------------------------------------------------
    @staticmethod
    def _engine_factory(live: LiveRun, shards: Optional[int] = None,
                        timeout_ms: Optional[float] = None,
                        reference: bool = False, **observers):
        """``make(sim)`` for one replay variant of ``live``'s deployment."""
        from repro.core.pipeline import ValidationPipeline
        from repro.core.timeouts import StaticTimeout
        from repro.core.validator import Validator
        from repro.faults.injector import default_policy_engine
        from repro.fuzz.reference import ReferenceValidator

        spec = live.spec
        lookup = live.mastership.get
        effective_timeout = (spec.timeout_ms if timeout_ms is None
                             else timeout_ms)

        def make(sim):
            if reference:
                return ReferenceValidator(
                    sim, spec.k, effective_timeout,
                    policy_engine=default_policy_engine(),
                    mastership_lookup=lookup)
            kwargs = dict(timeout=StaticTimeout(effective_timeout),
                          policy_engine=default_policy_engine(),
                          mastership_lookup=lookup, **observers)
            if shards is None:
                return Validator(sim, spec.k, **kwargs)
            return ValidationPipeline(sim, spec.k, shards=shards, **kwargs)

        return make

    def _replay(self, live: LiveRun, shards: Optional[int] = None,
                timeout_ms: Optional[float] = None,
                reference: bool = False, **observers):
        from repro.core.checkpoint import replay_stream

        make = self._engine_factory(live, shards, timeout_ms, reference,
                                    **observers)
        return replay_stream(live.records, make, settle_ms=self.settle_ms)

    # ------------------------------------------------------------------
    # The oracle proper
    # ------------------------------------------------------------------
    def run(self, spec: ScenarioSpec) -> OracleReport:
        """Execute ``spec`` and check the full invariant catalog."""
        from repro.core.alarms import canonical_alarm_stream
        from repro.obs.trace import Tracer

        live = self.record(spec)
        report = OracleReport(spec=spec,
                              triggers_decided=live.triggers_decided,
                              records=len(live.records),
                              fault_outcomes=live.fault_outcomes,
                              spec_digest=spec.digest(),
                              alarm_digest=_sha256(live.alarm_stream))
        violations = report.violations

        # --- Live-run invariants -------------------------------------
        if not spec.faults and (live.alarm_stream or live.warmup_alarms):
            violations.append(InvariantViolation(
                "CLEAN_RUN_ALARMED",
                f"fault-free scenario raised alarms ({live.warmup_alarms} "
                f"during warmup; windowed stream sha256 "
                f"{report.alarm_digest[:12]})"))
        if spec.faults and live.alarms_before_injection:
            violations.append(InvariantViolation(
                "PREMATURE_ALARM",
                f"{live.alarms_before_injection} alarm(s) before the first "
                f"injection at t={live.first_injection_at:.1f} ms"))
        for outcome in live.fault_outcomes:
            if not outcome.detected:
                violations.append(InvariantViolation(
                    "FAULT_UNDETECTED",
                    f"{outcome.name} injected at "
                    f"t={outcome.injected_at:.1f} ms raised no matching "
                    f"alarm within {outcome.deadline_ms:.0f} ms"))
            elif (outcome.detection_ms is not None
                    and outcome.detection_ms > outcome.deadline_ms):
                violations.append(InvariantViolation(
                    "DEADLINE_EXCEEDED",
                    f"{outcome.name} detected after "
                    f"{outcome.detection_ms:.1f} ms "
                    f"(deadline {outcome.deadline_ms:.0f} ms)"))

        # --- Replay / engine-equivalence invariants ------------------
        # Ground truth is the reference, replayed first: the engines below
        # all drive one ShardCore, so agreeing with each other would only
        # say their drivers agree.
        reference = self._replay(live, reference=True)
        expected = canonical_alarm_stream(reference.alarms)
        baseline_counters = self._counters(reference)
        sequential = self._replay(live)
        # The replay settles past the last record, so triggers still in
        # flight at the live cutoff decide (on their θτ timers) only in
        # the replay. Those tail decisions are correct replay behaviour,
        # not a divergence: compare live-vs-replay inside the live
        # window only. Engine-vs-reference comparisons below stay on the
        # full streams — every engine settles identically.
        replayed_window = canonical_alarm_stream(
            [alarm for alarm in sequential.alarms
             if alarm.raised_at <= live.ended_at])
        if replayed_window != live.alarm_stream:
            violations.append(InvariantViolation(
                "REPLAY_DIVERGENCE",
                "sequential replay did not reproduce the live alarm "
                f"stream ({_sha256(replayed_window)[:12]} != "
                f"{report.alarm_digest[:12]})"))
        variants = [("sequential validator", None)] + [
            (f"pipeline N={shards}", shards) for shards in self.shard_counts]
        for label, shards in variants:
            timeout_ms = None
            if shards is None:
                engine = sequential
            else:
                timeout_ms = self._perturbed_timeout(spec, shards)
                engine = self._replay(live, shards=shards,
                                      timeout_ms=timeout_ms)
            if timeout_ms is not None:
                label += f" (perturbed timeout {timeout_ms:.1f} ms)"
            stream = canonical_alarm_stream(engine.alarms)
            if stream != expected:
                detail = (f"{label} alarm stream diverged from the "
                          f"reference ({_sha256(stream)[:12]} != "
                          f"{_sha256(expected)[:12]})")
                if shards is not None \
                        and "trace_diff" not in report.artifacts:
                    detail += "; " + self._capture_divergence(
                        live, report, shards, timeout_ms)
                violations.append(InvariantViolation(
                    "ENGINE_DIVERGENCE", detail))
            elif self._counters(engine) != baseline_counters:
                violations.append(InvariantViolation(
                    "COUNTER_MISMATCH",
                    f"{label} counters "
                    f"{self._counters(engine)} != {baseline_counters}"))

        # --- Recovery invariants (repro.core.checkpoint) -------------
        if live.records:
            kill_index = len(live.records) // 2
            for label, shards in (("validator", None), ("pipeline N=2", 2)):
                recovered = self._recover_replay(live, shards, kill_index)
                stream = canonical_alarm_stream(recovered.alarms)
                if stream != expected:
                    violations.append(InvariantViolation(
                        "RECOVERY_DIVERGENCE",
                        f"{label} restore + WAL replay after a kill at "
                        f"record {kill_index}/{len(live.records)} diverged "
                        f"({_sha256(stream)[:12]} != "
                        f"{_sha256(expected)[:12]})"))

        # --- Observability invariants --------------------------------
        from repro.obs.metrics import MetricsRegistry
        seq_tracer = Tracer()
        traced = self._replay(live, tracer=seq_tracer,
                              metrics=MetricsRegistry())
        report.trace_digest = _sha256(seq_tracer.canonical())
        if canonical_alarm_stream(traced.alarms) != expected:
            violations.append(InvariantViolation(
                "OBSERVER_IMPURITY",
                "tracing + metrics changed the sequential alarm stream"))
        for shards in self.traced_shards:
            tracer = Tracer()
            pipeline = self._replay(live, shards=shards, tracer=tracer,
                                    metrics=MetricsRegistry())
            if canonical_alarm_stream(pipeline.alarms) != expected:
                violations.append(InvariantViolation(
                    "OBSERVER_IMPURITY",
                    f"tracing changed the pipeline N={shards} alarm stream"))
            if _sha256(tracer.canonical()) != report.trace_digest:
                from repro.obs.diff import diff_tracers, first_divergence_detail
                diff = diff_tracers(seq_tracer, tracer)
                report.artifacts.setdefault("trace_diff", {
                    "left": "sequential replay (traced)",
                    "right": f"pipeline N={shards} (traced)",
                    **diff.to_dict()})
                violations.append(InvariantViolation(
                    "TRACE_DIVERGENCE",
                    f"canonical trace diverged at N={shards}; "
                    + first_divergence_detail(diff)))
        return report

    def _recover_replay(self, live: LiveRun, shards: Optional[int],
                        kill_index: int,
                        checkpoint_every: int = 8):
        """Replay through a kill → restore → WAL-replay cycle.

        Same engine construction as :meth:`_replay`, driven through
        :func:`repro.core.checkpoint.run_with_recovery`: the first engine
        is abandoned mid-stream after ``kill_index`` records, a twin is
        restored from the newest automatic checkpoint, and the WAL tail
        plus the remaining records finish the stream.
        """
        from repro.core.checkpoint import run_with_recovery

        return run_with_recovery(live.records,
                                 self._engine_factory(live, shards),
                                 kill_index,
                                 checkpoint_every=checkpoint_every,
                                 settle_ms=self.settle_ms)

    # ------------------------------------------------------------------
    # Divergence triage
    # ------------------------------------------------------------------
    def _perturbed_timeout(self, spec: ScenarioSpec,
                           shards: int) -> Optional[float]:
        """The perturbed absolute θτ (ms) for this variant, or ``None``."""
        perturb = self.perturb
        if not perturb:
            return None
        if perturb.get("shards") != shards:
            return None
        delta = float(perturb.get("timeout_delta_ms", 0.0))
        return None if delta == 0.0 else spec.timeout_ms + delta

    def _capture_divergence(self, live: LiveRun, report: OracleReport,
                            shards: int,
                            timeout_ms: Optional[float]) -> str:
        """Re-run the diverging pair traced; attach diff + flight artifacts.

        Returns the one-line first-divergence summary appended to the
        violation detail. Only the *first* engine divergence is captured —
        later variants usually diverge for the same root cause, and each
        capture costs two more replays.
        """
        from repro.obs.diff import diff_tracers, first_divergence_detail
        from repro.obs.metrics import MetricsRegistry
        from repro.obs.recorder import FlightRecorder
        from repro.obs.trace import Tracer

        left = Tracer()
        self._replay(live, tracer=left, metrics=MetricsRegistry())
        right = Tracer()
        recorder = FlightRecorder()
        engine = self._replay(live, shards=shards, tracer=right,
                              metrics=MetricsRegistry(), recorder=recorder,
                              timeout_ms=timeout_ms)
        diff = diff_tracers(left, right)
        recorder.trigger("engine-divergence", engine.sim.now)
        report.artifacts["trace_diff"] = {
            "left": "sequential replay",
            "right": f"pipeline N={shards}",
            **diff.to_dict()}
        report.artifacts["flight"] = recorder.payload(now=engine.sim.now)
        return first_divergence_detail(diff)

    @staticmethod
    def _counters(engine) -> Tuple[int, int, int]:
        return (engine.triggers_decided, engine.responses_received,
                engine.late_responses)
