"""Tests for the fault driver's suite runner and report aggregation."""

from repro.faults import (
    FaultyProactiveFault,
    UndesirableFlowModFault,
)
from repro.faults.injector import DriverReport, FaultDriver, default_policy_engine
from repro.api import Jury
from repro.config import JuryConfig


def factory(seed):
    return Jury.experiment(JuryConfig(kind="onos", n=5, k=4, switches=8, seed=seed,
                            timeout_ms=250.0,
                            policy_engine=default_policy_engine(),
                            with_northbound=True))


def test_run_suite_reports_per_scenario():
    driver = FaultDriver(factory)
    reports = driver.run_suite(
        [lambda: UndesirableFlowModFault("c2"),
         lambda: FaultyProactiveFault("c3")],
        repetitions=2)
    assert len(reports) == 2
    assert {r.scenario for r in reports} == {
        "undesirable-flow-mod", "faulty-proactive"}
    for report in reports:
        assert report.runs == 2
        assert report.detection_rate == 1.0


def test_suite_uses_distinct_seeds_per_scenario():
    """Different scenarios in one suite run on independently seeded clusters."""
    seeds_seen = []

    def tracking_factory(seed):
        seeds_seen.append(seed)
        return factory(seed)

    driver = FaultDriver(tracking_factory)
    driver.run_suite([lambda: UndesirableFlowModFault("c2"),
                      lambda: FaultyProactiveFault("c3")], repetitions=1)
    assert len(seeds_seen) == 2
    assert len(set(seeds_seen)) == 2


def test_report_properties_empty():
    report = DriverReport(scenario="x", runs=0, detected=0)
    assert report.detection_rate == 0.0
    assert report.max_detection_ms is None


def test_default_policy_engine_contents():
    engine = default_policy_engine()
    names = [policy.name for policy in engine.policies]
    assert "flow-match-hierarchy" in names
    assert "stranded-pending-add" in names
    assert any("no-internal" in name for name in names)
