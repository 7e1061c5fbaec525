"""Tests for the alarm log and the inspection report."""

import io
import json

import pytest

from repro.core.alarm_log import AlarmLog
from repro.faults import UndesirableFlowModFault
from repro.faults.base import run_scenario
from repro.api import Jury
from repro.config import JuryConfig
from repro.harness.inspect import (
    cluster_section,
    controller_summary,
    jury_summary,
    render_report,
    store_convergence,
)


@pytest.fixture
def alarmed_experiment():
    experiment = Jury.experiment(JuryConfig(kind="onos", n=5, k=4, switches=8,
                                  seed=160, timeout_ms=250.0))
    stream = io.StringIO()
    log = AlarmLog(experiment.validator, stream=stream)
    experiment.warmup()
    result = run_scenario(experiment, UndesirableFlowModFault("c2"))
    assert result.detected
    return experiment, log, stream


def test_alarm_log_records(alarmed_experiment):
    experiment, log, stream = alarmed_experiment
    assert log.total >= 1
    record = log.records[-1]
    assert record.reason == "sanity_mismatch"
    assert record.offending_controller == "c2"
    assert record.time_ms > 0


def test_alarm_log_streams_jsonl(alarmed_experiment):
    experiment, log, stream = alarmed_experiment
    lines = [l for l in stream.getvalue().splitlines() if l]
    assert len(lines) == log.total
    parsed = json.loads(lines[-1])
    assert parsed["offending_controller"] == "c2"


def test_alarm_log_breakdowns(alarmed_experiment):
    experiment, log, stream = alarmed_experiment
    assert log.by_controller().get("c2", 0) >= 1
    assert log.by_reason().get("sanity_mismatch", 0) >= 1


def test_alarm_log_tail_and_jsonl(alarmed_experiment):
    experiment, log, stream = alarmed_experiment
    tail = log.tail(5)
    assert tail
    assert "sanity_mismatch" in tail[-1]
    jsonl = log.to_jsonl()
    assert json.loads(jsonl.splitlines()[-1])["reason"] == "sanity_mismatch"


def test_alarm_log_capacity_bounds():
    experiment = Jury.experiment(JuryConfig(kind="onos", n=3, k=2, switches=2, seed=161, timeout_ms=200.0))
    log = AlarmLog(experiment.validator, capacity=2)
    from repro.core.alarms import Alarm, AlarmReason

    for i in range(5):
        log._on_alarm(Alarm(("ext", i), AlarmReason.PRIMARY_OMISSION, "c1"))
    assert log.total == 5
    assert len(log.records) == 2


def test_alarm_log_chains_previous_hook():
    experiment = Jury.experiment(JuryConfig(kind="onos", n=3, k=2, switches=2, seed=162, timeout_ms=200.0))
    seen = []
    experiment.validator.on_alarm = seen.append
    log = AlarmLog(experiment.validator)
    from repro.core.alarms import Alarm, AlarmReason

    alarm = Alarm(("ext", 1), AlarmReason.PRIMARY_OMISSION, "c1")
    experiment.validator.on_alarm(alarm)
    assert seen == [alarm]
    assert log.total == 1


# ----------------------------------------------------------------------
# Inspection
# ----------------------------------------------------------------------

def test_controller_summary_fields(alarmed_experiment):
    experiment, log, stream = alarmed_experiment
    summary = controller_summary(experiment)
    assert len(summary) == 5
    ids = {row["id"] for row in summary}
    assert ids == {"c1", "c2", "c3", "c4", "c5"}
    assert all(row["alive"] for row in summary)
    assert sum(row["mastered_switches"] for row in summary) == 8


def test_store_convergence_after_quiesce(alarmed_experiment):
    experiment, log, stream = alarmed_experiment
    experiment.run(500.0)
    convergence = store_convergence(experiment)
    assert convergence["converged"]


def test_jury_summary(alarmed_experiment):
    experiment, log, stream = alarmed_experiment
    summary = jury_summary(experiment)
    assert summary["deployed"]
    assert summary["k"] == 4
    assert summary["triggers_alarmed"] >= 1


def test_jury_summary_vanilla():
    experiment = Jury.experiment(JuryConfig(kind="onos", n=2, switches=2, seed=163, k=None, timeout_ms=200.0))
    assert jury_summary(experiment) == {"deployed": False}


def test_render_report(alarmed_experiment):
    experiment, log, stream = alarmed_experiment
    report = render_report(cluster_section(experiment))
    assert "Controllers" in report
    assert "JURY: k=4" in report
    assert "Store:" in report
