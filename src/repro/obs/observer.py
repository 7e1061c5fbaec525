"""The observer seam: the one object every engine reports to.

Engines, the replicator and checkpoints hold one :class:`Observer` — or
``None`` when nothing observes, so a hot-path call site pays one branch —
and report lifecycle events to it: ``intercept``, ``replicate``,
``ingest``, ``late``, ``decision``, ``checkpoint``, ``restore`` and
``tick``. The tracer, metrics registry, alarm forensics, replica health
tracker, flight recorder and snapshot sink are its subscribers; which
event feeds which, and
which are head-sampled, is tabled in docs/observability.md ("The observer
seam"). The sampler is applied here, once per event.

Subscribers are looked up at call time (``tracer.emit``,
``metrics.counter``, ``health.record_*``, ``forensics.observe_decision``),
so an instance-level wrapper on one sees every call. Nothing here schedules
events, reads a clock or touches engine state, so the alarm stream is
byte-identical whichever subscribers are attached.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.obs import trace as obs_trace
from repro.obs.sampling import active_sampler
from repro.obs.trace import VERDICT_OK, active_tracer


def _check_rows(checks):
    """``(stage, check, verdict, detail, counted verdict)`` per check that
    ran, from the battery's raw verdicts ``(consensus outcome, sanity
    outcome, staleness alarms, policy violations)`` (None: did not run)."""
    outcome, sane, stale, violations = checks
    rows = []
    for stage, check, result in ((obs_trace.CHECK_CONSENSUS, "consensus",
                                  outcome),
                                 (obs_trace.CHECK_SANITY, "sanity", sane)):
        if result is not None:
            verdict = VERDICT_OK if result.ok else result.reason.value
            rows.append((stage, check, verdict, result.offending or "",
                         verdict))
    if stale is not None:
        rows.append((obs_trace.CHECK_STALENESS, "staleness",
                     f"stale:{len(stale)}" if stale else VERDICT_OK,
                     ",".join(sorted(a.offending_controller or "?"
                                     for a in stale)),
                     "stale" if stale else VERDICT_OK))
    if violations is not None:
        rows.append((obs_trace.CHECK_POLICY, "policy",
                     f"violations:{len(violations)}" if violations
                     else VERDICT_OK,
                     str(violations[0]) if violations else "",
                     "violation" if violations else VERDICT_OK))
    return rows


class Observer:
    """The subscribers behind one event API (see the module docstring)."""

    __slots__ = ("tracer", "metrics", "forensics", "health", "sampler",
                 "recorder", "sink")

    def __init__(self, tracer=None, metrics=None, forensics=None, health=None,
                 sampler=None, recorder=None, sink=None):
        self.tracer = active_tracer(tracer)
        self.metrics = metrics
        self.forensics = forensics
        self.health = health
        self.sampler = active_sampler(sampler)
        self.recorder = recorder
        self.sink = sink

    @classmethod
    def build(cls, **subscribers) -> Optional["Observer"]:
        """The seam for these subscribers (:meth:`__init__`'s keywords), or
        None when none is attached — a sampler alone observes nothing."""
        observer = cls(**subscribers)
        if all(getattr(observer, name) is None
               for name in cls.__slots__ if name != "sampler"):
            return None
        return observer

    def _sampled(self, tau: Tuple) -> bool:
        return self.sampler is None or self.sampler.sampled(tau)

    # ------------------------------------------------------------------
    # Replicator
    # ------------------------------------------------------------------
    def intercept(self, now: float, tau: Tuple, source: str, primary: str,
                  kind: str) -> None:
        """An external trigger was intercepted (``source``: switch/rest)."""
        if not self._sampled(tau):
            return
        if self.tracer is not None:
            self.tracer.emit(now, tau, obs_trace.INTERCEPT, source=source,
                             primary=primary, kind=kind)
        if self.metrics is not None:
            self.metrics.counter("replicator_triggers_total",
                                 source=source).inc()

    def replicate(self, now: float, tau: Tuple, secondaries: int,
                  copies: int) -> None:
        """``copies`` of ``tau`` went to its ``secondaries``."""
        if self.tracer is not None and self._sampled(tau):
            self.tracer.emit(now, tau, obs_trace.REPLICATE,
                             secondaries=secondaries)
        if copies and self.metrics is not None:
            self.metrics.counter("replicator_copies_total").inc(copies)

    # ------------------------------------------------------------------
    # Validation engines
    # ------------------------------------------------------------------
    def ingest(self, now: float, response) -> None:
        """One response reached the engine (before any queue)."""
        if not self._sampled(response.trigger_id):
            return
        if self.tracer is not None:
            self.tracer.emit(now, response.trigger_id, obs_trace.INGEST,
                             kind=response.kind.value,
                             controller=response.controller_id)
        if self.metrics is not None:
            self.metrics.counter("validator_responses_total",
                                 kind=response.kind.value).inc()
        if self.health is not None:
            received = response.trigger_received_at
            self.health.record_response(
                now, response.controller_id,
                lag_ms=None if received is None else max(0.0, now - received))

    def late(self, now: float, tau: Tuple, controller_id: str) -> None:
        """A response for an already-decided trigger was dropped."""
        if not self._sampled(tau):
            return
        if self.tracer is not None:
            self.tracer.emit(now, tau, obs_trace.LATE_DROP,
                             controller=controller_id)
        if self.metrics is not None:
            self.metrics.counter("validator_late_responses_total").inc()

    def decision(self, now: float, result, responses, checks) -> None:
        """A trigger was decided: its ``result``, the ``responses`` it was
        decided on and the check battery's raw verdicts ``checks``. The
        flight recorder hears every decision; the ``decide``/``check:*``
        spans and check counters only sampled ones; the rest sampled *or*
        alarmed ones (the severity override)."""
        tau = result.trigger_id
        alarms = result.alarms
        recorder = self.recorder
        if recorder is not None:
            recorder.record(now, "decision", tau,
                            verdict="alarmed" if alarms else "ok",
                            external=result.external,
                            timed_out=result.timed_out,
                            n=result.n_responses,
                            detection_ms=result.detection_ms)
            for alarm in alarms:
                recorder.record(now, "alarm", tau, verdict=alarm.reason.value,
                                detail=alarm.offending_controller or "")
            if alarms:
                recorder.trigger("alarm", now)
        sampled = self._sampled(tau)
        if not sampled and not alarms:
            return
        tracer = self.tracer
        metrics = self.metrics
        rows = (_check_rows(checks)
                if sampled and (tracer is not None or metrics is not None)
                else ())
        if tracer is not None:
            if sampled:
                tracer.emit(now, tau, obs_trace.DECIDE,
                            verdict="timeout" if result.timed_out
                            else "full-count",
                            external=result.external,
                            n_responses=result.n_responses)
            for stage, _, verdict, detail, _ in rows:
                tracer.emit(now, tau, stage, verdict=verdict, detail=detail)
            for alarm in alarms:
                tracer.emit(now, tau, obs_trace.ALARM,
                            verdict=alarm.reason.value,
                            detail=alarm.offending_controller or "")
            if not alarms:
                tracer.emit(now, tau, obs_trace.ACCEPT, verdict=VERDICT_OK)
        if metrics is not None:
            for _, check, _, _, counted in rows:
                metrics.counter("validator_checks_total", check=check,
                                verdict=counted).inc()
            metrics.counter("validator_decisions_total",
                            outcome="alarmed" if alarms else "ok").inc()
            if result.timed_out:
                metrics.counter("validator_timeout_decisions_total").inc()
            metrics.histogram("validator_detection_ms").observe(
                result.detection_ms)
            metrics.histogram("validator_responses_per_trigger").observe(
                result.n_responses)
            for alarm in alarms:
                metrics.counter("validator_alarms_total",
                                reason=alarm.reason.value).inc()
        if self.forensics is not None:
            self.forensics.observe_decision(tau, responses, checks[0], result,
                                            result.external)
        if self.health is not None:
            self.health.record_decision(now, responses, alarms,
                                        result.timed_out)

    def tick(self, now: float) -> None:
        """An engine step ended: the periodic snapshot sink may fire."""
        if self.sink is not None:
            self.sink.observe(now)

    # ------------------------------------------------------------------
    # Recovery
    # ------------------------------------------------------------------
    def checkpoint(self, now: float, checkpoint) -> None:
        """An engine snapshot was taken (its span is outside the canonical
        trace: a checkpointing run stays trace-identical to a plain one)."""
        key, tag = ("engine", "checkpoint"), checkpoint.sha256[:12]
        body_bytes = len(checkpoint.body)
        if self.tracer is not None:
            self.tracer.emit(
                now, key, obs_trace.ENGINE_CHECKPOINT, detail=tag,
                triggers=checkpoint.meta.get("triggers_decided", 0),
                body_bytes=body_bytes)
        if self.metrics is not None:
            self.metrics.counter("checkpoint_snapshots_total").inc()
            self.metrics.gauge("checkpoint_body_bytes").set(body_bytes)
        if self.recorder is not None:
            self.recorder.record(now, "checkpoint", key, verdict="taken",
                                 detail=tag, body_bytes=body_bytes)

    def restore(self, now: float, checkpoint) -> None:
        """An engine was rehydrated from ``checkpoint``: something died, so
        the flight recorder dumps the events leading up to it."""
        key, tag = ("engine", "restore"), checkpoint.sha256[:12]
        triggers = checkpoint.meta.get("triggers_decided", 0)
        if self.tracer is not None:
            self.tracer.emit(now, key, obs_trace.ENGINE_RESTORE, detail=tag,
                             triggers=triggers)
        if self.metrics is not None:
            self.metrics.counter("checkpoint_restores_total").inc()
        if self.recorder is not None:
            self.recorder.record(now, "restore", key, verdict="restored",
                                 detail=tag, triggers=triggers)
            self.recorder.trigger("restore", now)
