"""The observer seam binds metric instruments once, and is absent when off.

:class:`~repro.obs.observer.Observer` asks the metrics registry for each
counter or histogram once, on its first update, and keeps the handle. The
bound below is a call count, not a clock, so it holds on any host. The
registry contract the binding relies on (one handle per family and label
set) is pinned here too, as is the observers-off path: an engine built
with no subscriber holds no observer, so it pays one ``None`` branch per
event and nothing else. Alarm forensics keeps each alarmed decision's
evidence and explains it when read, so an unread run explains nothing.
"""

from __future__ import annotations

import pytest

from repro.core.checkpoint import replay_stream
from repro.core.pipeline import ValidationPipeline
from repro.core.timeouts import StaticTimeout
from repro.core.validator import Validator
from repro.obs import diagnose
from repro.obs.diagnose import AlarmForensics, export_explanations
from repro.obs.health import ReplicaHealthTracker
from repro.obs.metrics import MetricsRegistry
from repro.obs.observer import Observer
from repro.obs.recorder import FlightRecorder
from repro.obs.sampling import HeadSampler
from repro.obs.trace import Tracer
from repro.sim.simulator import Simulator
from tests.test_one_engine import (
    SOAK_K,
    SOAK_TRIGGERS,
    TIMEOUT_MS,
    _faulty_soak_stream,
)

#: One factory per subscriber :meth:`Observer.build` accepts.
SUBSCRIBERS = {
    "tracer": Tracer,
    "metrics": MetricsRegistry,
    "forensics": AlarmForensics,
    "health": ReplicaHealthTracker,
    "recorder": FlightRecorder,
}


# ----------------------------------------------------------------------
# The off path
# ----------------------------------------------------------------------

def test_nothing_attached_builds_no_observer():
    assert Observer.build() is None
    assert Observer.build(sampler=HeadSampler(8)) is None
    sim = Simulator(seed=0)
    assert Validator(sim, SOAK_K).observer is None
    assert ValidationPipeline(sim, SOAK_K, shards=4).observer is None


@pytest.mark.parametrize("name", sorted(SUBSCRIBERS))
def test_any_one_subscriber_builds_an_observer(name):
    observer = Observer.build(sampler=HeadSampler(8),
                              **{name: SUBSCRIBERS[name]()})
    assert observer is not None
    assert getattr(observer, name) is not None


# ----------------------------------------------------------------------
# The registry contract binding relies on
# ----------------------------------------------------------------------

@pytest.mark.parametrize("kind", ["counter", "histogram"])
def test_one_handle_per_family_and_label_set(kind):
    registry = MetricsRegistry()
    make = getattr(registry, kind)
    handle = make("family", a=1, b="x")
    assert make("family", b="x", a="1") is handle
    assert make("family", a=2, b="x") is not handle
    assert make("other", a=1, b="x") is not handle


# ----------------------------------------------------------------------
# Registry calls are bounded by instruments, not by triggers
# ----------------------------------------------------------------------

def _count_calls(registry: MetricsRegistry) -> list:
    """Wrap the instance's ``counter``/``histogram``; returns the call log."""
    calls = []
    for method in ("counter", "histogram"):
        def counted(name, _original=getattr(registry, method), **labels):
            calls.append(name)
            return _original(name, **labels)
        setattr(registry, method, counted)
    return calls


@pytest.mark.parametrize("rate", [1, 8])
@pytest.mark.parametrize("engine_label", ["validator", "serial N=4"])
def test_registry_is_asked_once_per_instrument(engine_label, rate):
    registry = MetricsRegistry()
    calls = _count_calls(registry)

    def make(sim):
        common = dict(timeout=StaticTimeout(TIMEOUT_MS),
                      sampler=HeadSampler(rate), metrics=registry)
        if engine_label == "validator":
            return Validator(sim, SOAK_K, **common)
        return ValidationPipeline(sim, SOAK_K, shards=4, **common)

    engine = replay_stream(_faulty_soak_stream(), make,
                           settle_ms=4 * TIMEOUT_MS)
    assert engine.triggers_decided == SOAK_TRIGGERS
    assert engine.alarms and engine.late_responses
    decided = registry.family_total("validator_decisions_total")
    assert 0 < decided <= SOAK_TRIGGERS
    assert 0 < len(calls) <= len(registry.snapshot()), (
        f"{len(calls)} registry calls for {decided} counted decisions")


# ----------------------------------------------------------------------
# Alarm forensics explains on read
# ----------------------------------------------------------------------

def test_forensics_explains_when_read_and_as_it_would_have_eagerly(
        monkeypatch):
    explained = []
    explain = diagnose.explain_alarm
    monkeypatch.setattr(diagnose, "explain_alarm",
                        lambda *evidence: explained.append(evidence)
                        or explain(*evidence))

    def run(read_on_every_alarm: bool):
        forensics = AlarmForensics()

        def make(sim):
            engine = Validator(sim, SOAK_K, timeout=StaticTimeout(TIMEOUT_MS),
                               forensics=forensics)
            if read_on_every_alarm:
                # on_alarm fires after the seam handed the evidence over.
                engine.on_alarm = forensics.explanation_for
            return engine

        engine = replay_stream(_faulty_soak_stream(), make,
                               settle_ms=4 * TIMEOUT_MS)
        return engine, forensics

    engine, lazy = run(read_on_every_alarm=False)
    assert engine.alarms and explained == [], "nothing read, nothing explained"
    lazy_export = export_explanations(lazy.explanations())
    assert len(explained) == len(engine.alarms) == lazy.alarm_count
    assert all(lazy.explanation_for(alarm) is not None
               for alarm in engine.alarms)
    assert len(explained) == len(engine.alarms), "explained once"

    explained.clear()
    _, eager = run(read_on_every_alarm=True)
    assert len(explained) == len(engine.alarms)
    assert export_explanations(eager.explanations()) == lazy_export
