"""Tests for the fault driver's report aggregation and default policies."""

from repro.faults.injector import DriverReport, default_policy_engine


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
