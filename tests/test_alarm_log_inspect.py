"""Tests for the inspection report."""

import pytest

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
    experiment.warmup()
    result = run_scenario(experiment, UndesirableFlowModFault("c2"))
    assert result.detected
    return experiment


# ----------------------------------------------------------------------
# Inspection
# ----------------------------------------------------------------------

def test_controller_summary_fields(alarmed_experiment):
    experiment = alarmed_experiment
    summary = controller_summary(experiment)
    assert len(summary) == 5
    ids = {row["id"] for row in summary}
    assert ids == {"c1", "c2", "c3", "c4", "c5"}
    assert all(row["alive"] for row in summary)
    assert sum(row["mastered_switches"] for row in summary) == 8


def test_store_convergence_after_quiesce(alarmed_experiment):
    experiment = alarmed_experiment
    experiment.run(500.0)
    convergence = store_convergence(experiment)
    assert convergence["converged"]


def test_jury_summary(alarmed_experiment):
    experiment = alarmed_experiment
    summary = jury_summary(experiment)
    assert summary["deployed"]
    assert summary["k"] == 4
    assert summary["triggers_alarmed"] >= 1


def test_jury_summary_vanilla():
    experiment = Jury.experiment(JuryConfig(kind="onos", n=2, switches=2, seed=163, k=None, timeout_ms=200.0))
    assert jury_summary(experiment) == {"deployed": False}


def test_render_report(alarmed_experiment):
    experiment = alarmed_experiment
    report = render_report(cluster_section(experiment))
    assert "Controllers" in report
    assert "JURY: k=4" in report
    assert "Store:" in report
