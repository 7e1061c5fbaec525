"""The observer seam: the one object every engine reports to.

Engines, the replicator and checkpoints hold one :class:`Observer` — or
``None`` when nothing observes, so a hot-path call site pays one branch —
and report lifecycle events to it: ``intercept``, ``replicate``,
``ingest``, ``late``, ``decision``, ``checkpoint`` and ``restore``.

Each event is written once, as rows of one columnar event log: the
tracer's (:mod:`repro.obs.trace`), or a private one when no tracer is
attached. An ``ingest`` row carries the response lag; a ``decide`` row
carries ``detection_ms`` and the decision's interned facts (responders,
alarm offenders, whether it alarmed). Rows the trace must not show — an
unsampled decision the flight ring hears, an unsampled alarmed one — are
written hidden. The metrics registry, the replica health tracker and the
flight recorder are views attached to the log here: the log hands them
its rows, decoded, and they fold what they report from them, storing
nothing per event but the flight ring's last events. Alarm forensics
hears alarmed decisions only and explains them when read, the flight
recorder hears its dump points (alarm, restore) as they happen, and
``replicator_copies_total``, which counts unsampled copies too, stays an
instrument. docs/observability.md ("The observer seam") tables which
event writes which rows and which view reads them. The sampler is
applied here, once per event.

The shapes of ``ingest``, ``decide``, ``check:*`` and ``accept`` rows are
asked of the log once per distinct value set and kept, so a later row is
one dict hit and one :meth:`~repro.obs.trace.Tracer.record`; the rare
stages call ``emit``. Hooks are looked up per call, so an instance-level
wrapper sees every call to its hook. Nothing here schedules events, reads
a clock or touches engine state, so the alarm stream is byte-identical
whichever subscribers are attached.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.obs import trace as obs_trace
from repro.obs.sampling import active_sampler
from repro.obs.trace import VERDICT_OK, Tracer


def _check_rows(checks):
    """``(stage, verdict, detail)`` per check that ran, from the battery's
    raw verdicts ``(consensus outcome, sanity outcome, staleness alarms,
    policy violations)`` (None: did not run)."""
    outcome, sane, stale, violations = checks
    rows = []
    for stage, result in ((obs_trace.CHECK_CONSENSUS, outcome),
                          (obs_trace.CHECK_SANITY, sane)):
        if result is not None:
            rows.append((stage,
                         VERDICT_OK if result.ok else result.reason.value,
                         result.offending or ""))
    if stale is not None:
        rows.append((obs_trace.CHECK_STALENESS,
                     f"stale:{len(stale)}" if stale else VERDICT_OK,
                     ",".join(sorted(a.offending_controller or "?"
                                     for a in stale))))
    if violations is not None:
        rows.append((obs_trace.CHECK_POLICY,
                     f"violations:{len(violations)}" if violations
                     else VERDICT_OK,
                     str(violations[0]) if violations else ""))
    return rows


_NO_LAG = obs_trace.NO_VALUE  #: an ingest row's value with no lag
_ACCEPT = (obs_trace.ACCEPT, VERDICT_OK, "", str, str)  #: its _Shapes key


class _Shapes(dict):
    """Log shape ordinals of the hot stages, by ``(stage, verdict, detail,
    *attr values, *types of those that vary)``."""

    #: Attr names per stage, in key order; other stages carry none.
    ATTRS = {obs_trace.INGEST: ("kind", "controller"),
             obs_trace.DECIDE: ("external", "n_responses")}
    __slots__ = ("log",)

    def __init__(self, log) -> None:
        super().__init__()
        self.log = log

    def __missing__(self, key):
        stage, verdict, detail = key[:3]
        attrs = dict(zip(self.ATTRS.get(stage, ()), key[3:]))
        shape = self.log.shape(stage, verdict, detail, attrs)
        if obs_trace.internable(stage, verdict, detail, *attrs.values()):
            self[key] = shape
        return shape


class Observer:
    """The subscribers behind one event API (see the module docstring)."""

    _SUBSCRIBERS = ("tracer", "metrics", "forensics", "health", "recorder")
    __slots__ = _SUBSCRIBERS + ("sampler", "_log", "_shapes", "_copies")

    def __init__(self, tracer=None, metrics=None, forensics=None, health=None,
                 sampler=None, recorder=None):
        self.tracer = tracer
        self.metrics = metrics
        self.forensics = forensics
        self.health = health
        self.sampler = active_sampler(sampler)
        self.recorder = recorder
        self._copies = None  #: the replicator_copies_total handle
        views = [view for view in (metrics, health, recorder)
                 if view is not None]
        log = self.tracer
        if log is None and views:
            # No tracer: the views' log if one has one, else a private one.
            log = next((view._log for view in views
                        if view._log is not None), None)
            log = Tracer() if log is None else log
        for view in views:
            obs_trace.attach(view, log)
        self._log = log
        self._shapes = None if log is None else _Shapes(log)

    @classmethod
    def build(cls, **subscribers) -> Optional["Observer"]:
        """The seam for these subscribers (:meth:`__init__`'s keywords), or
        None when none is attached — a sampler alone observes nothing."""
        observer = cls(**subscribers)
        if all(getattr(observer, name) is None for name in cls._SUBSCRIBERS):
            return None
        return observer

    # ------------------------------------------------------------------
    # Replicator
    # ------------------------------------------------------------------
    def intercept(self, now: float, tau: Tuple, source: str, primary: str,
                  kind: str) -> None:
        """An external trigger was intercepted (``source``: switch/rest)."""
        if self._log is not None and (self.sampler is None
                                      or self.sampler.sampled(tau)):
            self._log.emit(now, tau, obs_trace.INTERCEPT, source=source,
                           primary=primary, kind=kind)

    def replicate(self, now: float, tau: Tuple, secondaries: int,
                  copies: int) -> None:
        """``copies`` of ``tau`` went to its ``secondaries``."""
        if self._log is not None and (self.sampler is None
                                      or self.sampler.sampled(tau)):
            self._log.emit(now, tau, obs_trace.REPLICATE,
                           secondaries=secondaries)
        if copies and self.metrics is not None:
            if self._copies is None:
                self._copies = self.metrics.counter("replicator_copies_total")
            self._copies.inc(copies)

    # ------------------------------------------------------------------
    # Validation engines
    # ------------------------------------------------------------------
    def ingest(self, now: float, response) -> None:
        """One response reached the engine (before any queue)."""
        log = self._log
        if log is None:
            return
        tau = response.trigger_id
        if self.sampler is not None and not self.sampler.sampled(tau):
            return
        controller = response.controller_id
        received = response.trigger_received_at
        log.record(now, tau, self._shapes[
            obs_trace.INGEST, None, "", response.kind._value_, controller,
            type(controller)], _NO_LAG if received is None
            else now - received if now > received else 0.0)

    def late(self, now: float, tau: Tuple, controller_id: str) -> None:
        """A response for an already-decided trigger was dropped."""
        if self._log is not None and (self.sampler is None
                                      or self.sampler.sampled(tau)):
            self._log.emit(now, tau, obs_trace.LATE_DROP,
                           controller=controller_id)

    def decision(self, now: float, result, responses, checks) -> None:
        """A trigger was decided: its ``result``, the ``responses`` it was
        decided on and the check battery's raw verdicts ``checks``. Its
        ``decide`` row is shown and carries facts when it is sampled, is
        hidden with facts when only its alarms make it count, and is hidden
        without facts when only the flight ring hears it; ``check:*`` and
        ``accept`` rows follow sampled decisions only, ``alarm`` rows every
        alarmed one."""
        tau = result.trigger_id
        alarms = result.alarms
        log = self._log
        sampled = self.sampler is None or self.sampler.sampled(tau)
        if log is not None and (sampled or alarms
                                or self.recorder is not None):
            shapes = self._shapes
            external, n = result.external, result.n_responses
            code = shapes[obs_trace.DECIDE,
                          "timeout" if result.timed_out else "full-count",
                          "", external, n, type(external), type(n)]
            if sampled or alarms:
                code += log.facts(responses, alarms)
            log.record(now, tau, code if sampled else log.hidden(code),
                       result.detection_ms)
            if sampled:
                for stage, verdict, detail in _check_rows(checks):
                    log.record(now, tau, shapes[stage, verdict, detail,
                                                type(verdict), type(detail)])
            for alarm in alarms:
                log.emit(now, tau, obs_trace.ALARM,
                         verdict=alarm.reason.value,
                         detail=alarm.offending_controller or "")
            if sampled and not alarms:
                log.record(now, tau, shapes[_ACCEPT])
        if alarms:
            if self.forensics is not None:
                self.forensics.observe_decision(tau, responses, checks[0],
                                                result, result.external)
            if self.recorder is not None:
                self.recorder.trigger("alarm", now)

    # ------------------------------------------------------------------
    # Recovery
    # ------------------------------------------------------------------
    def checkpoint(self, now: float, checkpoint) -> None:
        """An engine snapshot was taken (its span is outside the canonical
        trace: a checkpointing run stays trace-identical to a plain one)."""
        if self._log is not None:
            self._log.emit(
                now, ("engine", "checkpoint"), obs_trace.ENGINE_CHECKPOINT,
                detail=checkpoint.sha256[:12],
                triggers=checkpoint.meta.get("triggers_decided", 0),
                body_bytes=len(checkpoint.body))

    def restore(self, now: float, checkpoint) -> None:
        """An engine was rehydrated from ``checkpoint``: something died, so
        the flight recorder dumps the events leading up to it."""
        if self._log is not None:
            self._log.emit(now, ("engine", "restore"),
                           obs_trace.ENGINE_RESTORE,
                           detail=checkpoint.sha256[:12],
                           triggers=checkpoint.meta.get("triggers_decided",
                                                        0))
        if self.recorder is not None:
            self.recorder.trigger("restore", now)
