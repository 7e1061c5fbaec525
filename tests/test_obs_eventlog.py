"""The observer views against an eager reference.

Since the observer seam writes each event once, as a row of one columnar
event log, the metrics registry, the replica health tracker and the flight
recorder compute what they report from that log when they are read. The
reference here records the same events eagerly, the way the seam fed five
subscribers before: a row-list tracer, a registry and a health tracker fed
per event (both unattached, so eager), and a flight recorder that freezes a
bounded ring per dump. Every read must match it type-exactly — metrics
snapshots and histogram samples and sums, health reports, flight payloads
and dumps, and the trace — at head-sampling rates 1, 8 and 64, with alarms
on unsampled triggers, late drops, timeouts, checkpoints and restores, SLO
breaches, and reads in the middle of the stream.
"""

from __future__ import annotations

import json
from collections import deque
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.obs import trace as obs_trace
from repro.obs.health import ReplicaHealthTracker
from repro.obs.metrics import MetricsRegistry
from repro.obs.observer import Observer
from repro.obs.recorder import FlightRecorder
from repro.obs.sampling import HeadSampler
from repro.obs.trace import Span, Tracer
from tests.test_obs_trace import _RowTracer, _typed

RATES = (1, 8, 64)


def _trigger_numbers(rate: int):
    """Three sampled and three unsampled ``("ext", n)`` numbers at ``rate``."""
    sampler = HeadSampler(rate)
    numbers = range(4000)
    kept = [n for n in numbers if sampler.sampled(("ext", n))][:3]
    skipped = [n for n in numbers if not sampler.sampled(("ext", n))][:3]
    return kept + skipped


TRIGGERS = {rate: _trigger_numbers(rate) for rate in RATES}


# ----------------------------------------------------------------------
# The eager reference
# ----------------------------------------------------------------------

class _RingRecorder:
    """The reference flight recorder: a bounded ring, frozen per dump."""

    def __init__(self, capacity: int, max_dumps: int) -> None:
        self.capacity = capacity
        self._ring = deque(maxlen=capacity)
        self._dumps = deque(maxlen=max_dumps)
        self.events_recorded = self.dumps_triggered = 0

    def record(self, at, kind, key, verdict="", detail="", **attrs):
        self.events_recorded += 1
        self._ring.append((at, kind, key, verdict, detail, attrs))

    def trigger(self, reason, at):
        if self._dumps and self._dumps[-1][:2] == (reason, at):
            return
        self.dumps_triggered += 1
        self._dumps.append((reason, at, tuple(self._ring)))

    def __len__(self) -> int:
        return len(self._ring)

    @staticmethod
    def _event(event):
        at, kind, key, verdict, detail, attrs = event
        return {"t": at, "kind": kind,
                "key": key if isinstance(key, str) else repr(key),
                "verdict": verdict, "detail": detail, "attrs": dict(attrs)}

    @property
    def dumps(self):
        return [{"reason": reason, "at": at,
                 "events": [self._event(event) for event in events]}
                for reason, at, events in self._dumps]

    def payload(self, now, metrics):
        return {"format": "jury-flight", "version": 1, "exported_at": now,
                "capacity": self.capacity,
                "events_recorded": self.events_recorded,
                "dumps_triggered": self.dumps_triggered,
                "ring": [self._event(event) for event in self._ring],
                "dumps": self.dumps,
                "metrics": dict(sorted(metrics.snapshot().items()))}


class _EagerObserver:
    """The seam as five eager subscribers: every event fans out."""

    def __init__(self, rate: int, capacity: int, max_dumps: int) -> None:
        self.tracer, self.metrics = _RowTracer(), MetricsRegistry()
        self.health = ReplicaHealthTracker()
        self.recorder = _RingRecorder(capacity, max_dumps)
        self.sampler = HeadSampler(rate)

    def intercept(self, now, tau, source, primary, kind):
        if self.sampler.sampled(tau):
            self.tracer.emit(now, tau, obs_trace.INTERCEPT, source=source,
                             primary=primary, kind=kind)
            self.metrics.counter("replicator_triggers_total",
                                 source=source).inc()

    def replicate(self, now, tau, secondaries, copies):
        if self.sampler.sampled(tau):
            self.tracer.emit(now, tau, obs_trace.REPLICATE,
                             secondaries=secondaries)
        if copies:
            self.metrics.counter("replicator_copies_total").inc(copies)

    def ingest(self, now, response):
        tau = response.trigger_id
        if not self.sampler.sampled(tau):
            return
        kind = response.kind._value_
        self.tracer.emit(now, tau, obs_trace.INGEST, kind=kind,
                         controller=response.controller_id)
        self.metrics.counter("validator_responses_total", kind=kind).inc()
        received = response.trigger_received_at
        self.health.record_response(
            now, response.controller_id, None if received is None
            else now - received if now > received else 0.0)

    def late(self, now, tau, controller_id):
        if self.sampler.sampled(tau):
            self.tracer.emit(now, tau, obs_trace.LATE_DROP,
                             controller=controller_id)
            self.metrics.counter("validator_late_responses_total").inc()

    def decision(self, now, result, responses, checks):
        tau, alarms = result.trigger_id, result.alarms
        recorder = self.recorder
        recorder.record(now, "decision", tau,
                        verdict="alarmed" if alarms else "ok",
                        external=result.external, timed_out=result.timed_out,
                        n=result.n_responses,
                        detection_ms=result.detection_ms)
        for alarm in alarms:
            recorder.record(now, "alarm", tau, verdict=alarm.reason.value,
                            detail=alarm.offending_controller or "")
        if alarms:
            recorder.trigger("alarm", now)
        sampled = self.sampler.sampled(tau)
        if not sampled and not alarms:
            return
        rows = _reference_check_rows(checks) if sampled else ()
        if sampled:
            self.tracer.emit(now, tau, obs_trace.DECIDE,
                             "timeout" if result.timed_out else "full-count",
                             external=result.external,
                             n_responses=result.n_responses)
        for stage, _, verdict, detail, _ in rows:
            self.tracer.emit(now, tau, stage, verdict, detail)
        for alarm in alarms:
            self.tracer.emit(now, tau, obs_trace.ALARM,
                             verdict=alarm.reason.value,
                             detail=alarm.offending_controller or "")
        if not alarms:
            self.tracer.emit(now, tau, obs_trace.ACCEPT, "ok")
        metrics = self.metrics
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
        self.health.record_decision(now, responses, alarms, result.timed_out)

    def checkpoint(self, now, checkpoint):
        key, tag = ("engine", "checkpoint"), checkpoint.sha256[:12]
        self.tracer.emit(now, key, obs_trace.ENGINE_CHECKPOINT, detail=tag,
                         triggers=checkpoint.meta.get("triggers_decided", 0),
                         body_bytes=len(checkpoint.body))
        self.metrics.counter("checkpoint_snapshots_total").inc()
        self.metrics.gauge("checkpoint_body_bytes").set(len(checkpoint.body))
        self.recorder.record(now, "checkpoint", key, verdict="taken",
                             detail=tag, body_bytes=len(checkpoint.body))

    def restore(self, now, checkpoint):
        key, tag = ("engine", "restore"), checkpoint.sha256[:12]
        triggers = checkpoint.meta.get("triggers_decided", 0)
        self.tracer.emit(now, key, obs_trace.ENGINE_RESTORE, detail=tag,
                         triggers=triggers)
        self.metrics.counter("checkpoint_restores_total").inc()
        self.recorder.record(now, "restore", key, verdict="restored",
                             detail=tag, triggers=triggers)
        self.recorder.trigger("restore", now)


def _reference_check_rows(checks):
    """``(stage, check, verdict, detail, counted verdict)`` per check run."""
    outcome, sane, stale, violations = checks
    rows = []
    for stage, check, result in ((obs_trace.CHECK_CONSENSUS, "consensus",
                                  outcome),
                                 (obs_trace.CHECK_SANITY, "sanity", sane)):
        if result is not None:
            verdict = "ok" if result.ok else result.reason.value
            rows.append((stage, check, verdict, result.offending or "",
                         verdict))
    if stale is not None:
        rows.append((obs_trace.CHECK_STALENESS, "staleness",
                     f"stale:{len(stale)}" if stale else "ok",
                     ",".join(sorted(a.offending_controller or "?"
                                     for a in stale)),
                     "stale" if stale else "ok"))
    if violations is not None:
        rows.append((obs_trace.CHECK_POLICY, "policy",
                     f"violations:{len(violations)}" if violations else "ok",
                     str(violations[0]) if violations else "",
                     "violation" if violations else "ok"))
    return rows


# ----------------------------------------------------------------------
# Generated event streams
# ----------------------------------------------------------------------

_TIMES = st.sampled_from([0.0, 100.0, 260.0, 700.0, 1300.0])
_CONTROLLERS = st.sampled_from(["c1", "c2", "c3"])
_REASONS = st.sampled_from(["consensus_mismatch", "stale_replica"])
#: Detection latencies whose float sum depends on the order of addition.
_DETECTION = st.sampled_from([0.1, 0.2, 0.3, 1e16, 2.5])
_OUTCOME = st.one_of(st.none(), st.tuples(st.booleans(), _REASONS,
                                          st.sampled_from(["", "c2"])))


def _ops(rate: int):
    trigger = st.sampled_from(TRIGGERS[rate])
    return st.one_of(
        st.tuples(st.just("ingest"), _TIMES, trigger, _CONTROLLERS,
                  st.sampled_from(["cache_update", "flow_mod"]),
                  st.sampled_from([None, 0.0, 90.0, 500.0])),
        st.tuples(st.just("late"), _TIMES, trigger, _CONTROLLERS),
        st.tuples(st.just("decide"), _TIMES, trigger,
                  st.lists(_CONTROLLERS, max_size=3),
                  st.lists(st.tuples(_REASONS,
                                     st.sampled_from([None, "", "c1", "c3"])),
                           max_size=2),
                  st.booleans(), st.booleans(), st.integers(0, 5),
                  _DETECTION, _OUTCOME, _OUTCOME,
                  st.one_of(st.none(), st.lists(_CONTROLLERS, max_size=2)),
                  st.one_of(st.none(), st.lists(st.just("deny-all"),
                                                max_size=1))),
        st.tuples(st.just("checkpoint"), _TIMES, st.integers(0, 3),
                  st.integers(1, 9)),
        st.tuples(st.just("restore"), _TIMES, st.integers(0, 3)),
        st.tuples(st.just("intercept"), _TIMES, trigger,
                  st.sampled_from(["switch", "rest"])),
        st.tuples(st.just("replicate"), _TIMES, trigger, st.integers(0, 3)),
        st.tuples(st.just("slo"), _TIMES,
                  st.sampled_from(["late-drop-rate", "latency"])),
        st.tuples(st.just("read"), _TIMES))


def _outcome(spec):
    if spec is None:
        return None
    ok, reason, offending = spec
    return SimpleNamespace(ok=ok, reason=SimpleNamespace(value=reason),
                           offending=offending)


def _apply(op, sinks) -> None:
    """Feed one generated event to every sink (SLO breaches go straight to
    the flight recorders, the way a deployment's report feeds them)."""
    name, now, *args = op
    if name == "ingest":
        number, controller, kind, received = args
        event = ("ingest", now, SimpleNamespace(
            trigger_id=("ext", number), controller_id=controller,
            kind=SimpleNamespace(_value_=kind),
            trigger_received_at=received))
    elif name == "late":
        event = ("late", now, ("ext", args[0]), args[1])
    elif name == "decide":
        (number, responders, alarms, external, timed_out, n, detection,
         consensus, sanity, stale, violations) = args
        result = SimpleNamespace(
            trigger_id=("ext", number), external=external,
            timed_out=timed_out, n_responses=n, detection_ms=detection,
            alarms=[SimpleNamespace(reason=SimpleNamespace(value=reason),
                                    offending_controller=offender)
                    for reason, offender in alarms])
        checks = (_outcome(consensus), _outcome(sanity),
                  None if stale is None else
                  [SimpleNamespace(offending_controller=c) for c in stale],
                  violations)
        event = ("decision", now, result,
                 [SimpleNamespace(controller_id=c) for c in responders],
                 checks)
    elif name in ("checkpoint", "restore"):
        body = b"x" * (args[1] if name == "checkpoint" else 4)
        event = (name, now, SimpleNamespace(
            sha256=f"{args[0]:064x}", body=body,
            meta={"triggers_decided": args[0]}))
    elif name == "intercept":
        event = ("intercept", now, ("ext", args[0]), args[1], "c1",
                 "packet_in")
    elif name == "replicate":
        event = ("replicate", now, ("ext", args[0]), 2, args[1])
    elif name == "slo":
        for sink in sinks:
            sink.recorder.record(now, "slo", ("slo", args[0]),
                                 verdict="breached", detail="value=0.07")
            sink.recorder.trigger("slo-breach", now)
        return
    else:
        return
    for sink in sinks:
        getattr(sink, event[0])(*event[1:])


def _assert_same(observer: Observer, reference: _EagerObserver,
                 now: float) -> None:
    tracer, expected = observer.tracer, reference.tracer
    assert tracer.canonical() == expected.canonical()
    assert _typed(tracer.to_payload()) == _typed(expected.to_payload())
    assert len(tracer) == len(expected.rows)
    assert _typed(list(tracer.spans)) == _typed([Span(*row)
                                           for row in expected.rows])
    assert _typed(tracer.stage_counts()) == _typed(expected.stage_counts())
    assert tracer.trigger_keys() == expected.trigger_keys()
    for key in expected.trigger_keys():
        assert _typed(tracer.spans_for(key)) == _typed(expected.spans_for(key))
    _assert_views_same(observer, reference, now, (now, 0.0, 1500.0))


def _assert_views_same(observer: Observer, reference: _EagerObserver,
                       now: float, health_times) -> None:
    """Metrics, health (evaluated at ``health_times``) and flight."""
    metrics, eager = observer.metrics, reference.metrics
    assert _typed(metrics.snapshot()) == _typed(eager.snapshot())
    for name in ("validator_decisions_total", "validator_responses_total",
                 "validator_late_responses_total"):
        assert metrics.family_total(name) == eager.family_total(name)
    assert (_typed(metrics.value("validator_timeout_decisions_total"))
            == _typed(eager.value("validator_timeout_decisions_total")))
    histograms = [[(name, _typed(h.samples), _typed(h.total))
                   for name, _, h, _ in registry.instruments("histogram")]
                  for registry in (metrics, eager)]
    assert histograms[0] == histograms[1]

    for at in health_times:
        assert _typed({cid: report.to_dict() for cid, report
                       in observer.health.evaluate(at).items()}) == _typed(
            {cid: report.to_dict() for cid, report
             in reference.health.evaluate(at).items()})

    recorder, ring = observer.recorder, reference.recorder
    assert (_typed(recorder.payload(now, metrics=metrics))
            == _typed(ring.payload(now, eager)))
    assert _typed(recorder.dumps) == _typed(ring.dumps)
    assert _typed(recorder.dumps[-1] if recorder.dumps else None) == _typed(
        ring.dumps[-1] if ring.dumps else None)
    assert len(recorder) == len(ring)
    assert recorder.to_json(now, metrics=metrics) == json.dumps(
        ring.payload(now, eager), indent=2, sort_keys=True)


@st.composite
def _streams(draw):
    rate = draw(st.sampled_from(RATES))
    ops = draw(st.lists(_ops(rate), max_size=40))
    return rate, draw(st.sampled_from([3, 256])), ops


def _run(rate, capacity, ops, max_dumps=3):
    observer = Observer(tracer=Tracer(), metrics=MetricsRegistry(),
                        health=ReplicaHealthTracker(),
                        recorder=FlightRecorder(capacity, max_dumps),
                        sampler=HeadSampler(rate))
    reference = _EagerObserver(rate, capacity, max_dumps)
    for op in ops:
        _apply(op, (observer, reference))
        if op[0] == "read":
            _assert_same(observer, reference, op[1])
    _assert_same(observer, reference, 1300.0)


def _decide(number, alarms=(), detection=0.1, now=100.0):
    return ("decide", now, number, ["c1", "c2"], list(alarms), True, False,
            2, detection, (True, "consensus_mismatch", ""), None, [], None)


_ALARM = [("consensus_mismatch", "c2")]


@settings(max_examples=300, deadline=None)
@given(_streams())
@example((  # an alarm dump, then the next decision at once: not in the dump
    8, 256, [_decide(TRIGGERS[8][0], _ALARM), _decide(TRIGGERS[8][1])]))
@example((  # an alarm on an unsampled trigger, then a flight-only decision
    64, 3, [_decide(TRIGGERS[64][3], _ALARM), _decide(TRIGGERS[64][4]),
            ("read", 100.0), _decide(TRIGGERS[64][0])]))
@example((  # a sum that depends on the order of addition
    1, 256, [_decide(TRIGGERS[1][0], detection=0.1),
             _decide(TRIGGERS[1][1], detection=0.2),
             _decide(TRIGGERS[1][2], detection=0.3)]))
@example((  # a restore dump, then a decision at the same instant
    8, 256, [("restore", 100.0, 2), _decide(TRIGGERS[8][4]),
             ("slo", 100.0, "latency"), ("slo", 100.0, "latency")]))
def test_views_match_an_eager_reference(stream):
    rate, capacity, ops = stream
    _run(rate, capacity, ops)


def test_a_view_reads_its_log_from_the_moment_it_is_attached():
    """A view reads every row of its log recorded after it was attached,
    whichever observer wrote it, and none from before; attaching it to a
    second log is refused."""
    tracer = Tracer()
    first = Observer(tracer=tracer, metrics=MetricsRegistry())
    first.late(1.0, ("ext", 1), "c1")
    registry = MetricsRegistry()
    Observer(tracer=tracer, metrics=registry).late(2.0, ("ext", 2), "c1")
    assert first.metrics.value("validator_late_responses_total") == 2
    assert registry.value("validator_late_responses_total") == 1
    with pytest.raises(ValueError, match="another event log"):
        Observer(tracer=Tracer(), metrics=registry)
