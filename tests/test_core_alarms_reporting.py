"""Tests for alarm records, validation results, and miscellaneous plumbing."""

from repro.core.alarms import Alarm, AlarmReason, ValidationResult
from repro.errors import (
    CacheLockError,
    ClusterError,
    ControllerError,
    DatastoreError,
    MatchFieldError,
    OpenFlowError,
    PolicyError,
    ReproError,
    SimulationError,
    TopologyError,
    ValidationError,
    WorkloadError,
)


def test_alarm_string_contains_attribution():
    alarm = Alarm(trigger_id=("ext", 3), reason=AlarmReason.PRIMARY_OMISSION,
                  offending_controller="c2", detail="late")
    text = str(alarm)
    assert "c2" in text
    assert "primary_omission" in text
    assert "('ext', 3)" in text


def test_alarm_without_offender():
    alarm = Alarm(trigger_id=("int", "c1", 1),
                  reason=AlarmReason.POLICY_VIOLATION,
                  offending_controller=None)
    assert "<unknown>" in str(alarm)


def test_validation_result_alarmed_property():
    ok = ValidationResult(trigger_id=("ext", 1), ok=True, external=True,
                          decided_at=1.0, n_responses=6)
    assert not ok.alarmed
    bad = ValidationResult(trigger_id=("ext", 2), ok=False, external=True,
                           decided_at=1.0, n_responses=5,
                           alarms=[Alarm(("ext", 2),
                                         AlarmReason.SANITY_MISMATCH, "c1")])
    assert bad.alarmed


def test_error_hierarchy():
    """Every library error is catchable as ReproError at API boundaries."""
    for exc_type in (SimulationError, TopologyError, OpenFlowError,
                     MatchFieldError, DatastoreError, CacheLockError,
                     ControllerError, ClusterError, ValidationError,
                     PolicyError, WorkloadError):
        assert issubclass(exc_type, ReproError)
    assert issubclass(MatchFieldError, OpenFlowError)
    assert issubclass(CacheLockError, DatastoreError)
    assert issubclass(ClusterError, ControllerError)


def test_alarm_reasons_enumerate_detection_mechanisms():
    values = {reason.value for reason in AlarmReason}
    assert values == {"primary_omission", "consensus_mismatch",
                      "sanity_mismatch", "policy_violation",
                      "stale_replica"}
