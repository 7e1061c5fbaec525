"""Unit tests for alarm forensics: diffs, explanations, export, offline."""

import ast
import json

import pytest

from repro.core.alarms import AlarmReason, canonical_alarm_stream
from repro.faults.base import run_scenario
from repro.faults.synthetic import LinkFailureFault
from repro.obs.diagnose import (
    CHECK_BY_REASON,
    FAULT_CLASS_BY_REASON,
    AlarmExplanation,
    FieldDiff,
    diff_entries,
    explanation_id,
    export_explanations,
    find_explanation,
    render_explanations,
)
from repro.harness.inspect import load_report
from repro.obs.trace import match_trigger_key
from repro import Jury, JuryConfig


def _cache(db, key, op, **fields):
    return ("cache", db, key, op, tuple(sorted(fields.items())))


def _flow_mod(dpid, command, match, actions, priority):
    return ("flow_mod", dpid, command, match, actions, priority)


# ----------------------------------------------------------------------
# diff_entries
# ----------------------------------------------------------------------

def test_diff_entries_reports_changed_fields():
    expected = (_cache("FlowsDB", ("flow", 1), "create", state="added"),)
    actual = (_cache("FlowsDB", ("flow", 1), "create", state="pending_add"),)
    diffs = diff_entries(expected, actual)
    assert len(diffs) == 1
    diff = diffs[0]
    assert diff.kind == "changed" and diff.field == "state"
    assert diff.expected == "'added'" and diff.actual == "'pending_add'"


def test_diff_entries_reports_missing_and_unexpected():
    expected = (_flow_mod(1, "add", ("ip", 1), (("output", 2),), 100),)
    actual = (_flow_mod(2, "add", ("ip", 9), (("output", 3),), 50),)
    kinds = sorted(d.kind for d in diff_entries(expected, actual))
    assert kinds == ["missing", "unexpected"]


def test_diff_entries_same_flow_different_actions_is_field_change():
    expected = (_flow_mod(1, "add", ("ip", 1), (("output", 2),), 100),)
    actual = (_flow_mod(1, "add", ("ip", 1), (("drop", 0),), 100),)
    diffs = diff_entries(expected, actual)
    assert [d.field for d in diffs] == ["actions"]


def test_diff_entries_is_deterministic_and_empty_on_equal():
    entries = (_cache("A", 1, "update", x=1), _cache("B", 2, "delete", y=2))
    assert diff_entries(entries, entries) == ()
    reversed_order = tuple(reversed(entries))
    assert diff_entries(entries, reversed_order) == ()


def test_field_diff_render_forms():
    assert FieldDiff(kind="missing", key="k").render().startswith("- k")
    assert FieldDiff(kind="unexpected", key="k").render().startswith("+ k")
    changed = FieldDiff(kind="changed", key="k", field="f",
                        expected="1", actual="2").render()
    assert "expected 1 got 2" in changed


# ----------------------------------------------------------------------
# Live forensics on a real fault
# ----------------------------------------------------------------------

@pytest.fixture(scope="module")
def fault_run():
    experiment = Jury.experiment(JuryConfig(
        kind="onos", n=5, k=4, switches=8, seed=5, timeout_ms=250.0,
        policies=("default",), with_northbound=True, observe=True))
    experiment.warmup()
    result = run_scenario(experiment, LinkFailureFault(1, 2))
    assert result.detected
    return experiment


def test_every_alarm_gets_an_explanation(fault_run):
    experiment = fault_run
    alarms = experiment.jury.alarms
    forensics = experiment.jury.observer.forensics
    assert alarms
    for alarm in alarms:
        explanation = forensics.explanation_for(alarm)
        assert explanation is not None
        assert explanation.trigger_id == repr(alarm.trigger_id)
        assert explanation.reason == alarm.reason.value
        assert explanation.failed_check == CHECK_BY_REASON[alarm.reason]
        assert (explanation.fault_class
                == FAULT_CLASS_BY_REASON[alarm.reason])


def test_consensus_explanations_carry_field_diffs(fault_run):
    experiment = fault_run
    forensics = experiment.jury.observer.forensics
    consensus = [forensics.explanation_for(a) for a in experiment.jury.alarms
                 if a.reason is AlarmReason.CONSENSUS_MISMATCH]
    assert consensus, "link failure must raise consensus alarms"
    assert any(e.cache_diffs or e.network_diffs for e in consensus), \
        "at least one consensus explanation must pin the diverging entries"
    for explanation in consensus:
        assert explanation.offending_controller
        assert explanation.offending_controller \
            in explanation.dissenting_replicas


def test_forensics_never_mutates_alarm_objects(fault_run):
    """Observer purity (X501): forensics must leave alarms untouched.

    Pins the fix for the cross-module analyzer's true positive — forensics
    used to stamp ``alarm.explanation`` on validator-owned alarm objects.
    """
    import dataclasses

    experiment = fault_run
    field_names = {f.name for f in dataclasses.fields(
        type(experiment.jury.alarms[0]))}
    assert "explanation" not in field_names
    for alarm in experiment.jury.alarms:
        assert not hasattr(alarm, "explanation")
    stream = canonical_alarm_stream(experiment.jury.alarms)
    assert b"explanation" not in stream
    assert b"AlarmExplanation" not in stream


def test_export_ids_and_json_round_trip(fault_run):
    experiment = fault_run
    explanations = experiment.jury.observer.forensics.explanations()
    payload = export_explanations(explanations)
    assert payload["format"] == "jury-diagnose"
    assert payload["alarm_count"] == len(explanations)
    assert [e["id"] for e in payload["alarms"]] \
        == [explanation_id(i) for i in range(len(explanations))]
    # JSON-serializable without custom encoders, stable under re-dump.
    first = json.dumps(payload, sort_keys=True)
    assert json.dumps(json.loads(first), sort_keys=True) == first


def test_find_explanation_by_id_shorthand_and_substring(fault_run):
    experiment = fault_run
    explanations = experiment.jury.observer.forensics.explanations()
    assert find_explanation(explanations, "a0001") == (
        "A0001", explanations[0])
    # Trigger queries (exact or ``ext:N`` shorthand) resolve through the
    # trace, which keeps every alarmed trigger; not here.
    trigger = explanations[0].trigger_id
    assert find_explanation(explanations, trigger) is None
    tracer = experiment.jury.observer.tracer
    shorthand = ":".join(map(str, ast.literal_eval(trigger)))
    assert match_trigger_key(tracer, shorthand) == trigger
    assert match_trigger_key(tracer, trigger) == trigger
    assert find_explanation(explanations, "no-such-alarm") is None
    assert find_explanation(explanations, "") is None


def test_render_explanations_is_deterministic(fault_run):
    experiment = fault_run
    explanations = experiment.jury.observer.forensics.explanations()
    text = render_explanations(explanations)
    assert text == render_explanations(explanations)
    assert "A0001" in text and "fault class" in text
    assert render_explanations([]) == "no alarms — nothing to diagnose"


# ----------------------------------------------------------------------
# Offline reconstruction
# ----------------------------------------------------------------------

def test_offline_reconstruction_matches_live_verdicts(fault_run):
    # A saved report's alarms section rebuilds the live explanations
    # exactly: same records, same rendering, same lookups.
    live = fault_run.jury.observer.forensics.explanations()
    saved = json.loads(json.dumps(export_explanations(live)))
    offline = [AlarmExplanation.from_dict(entry) for entry in saved["alarms"]]
    assert offline == live
    assert render_explanations(offline) == render_explanations(live)
    assert find_explanation(offline, "A0001") == ("A0001", offline[0])


def test_offline_rejects_malformed_report(tmp_path):
    garbage = tmp_path / "garbage.json"
    garbage.write_text("not json\n", encoding="utf-8")
    with pytest.raises(ValueError, match="not JSON"):
        load_report(str(garbage))
    trace = tmp_path / "trace.json"
    trace.write_text(json.dumps({"format": "jury-trace"}), encoding="utf-8")
    with pytest.raises(ValueError, match="not a jury-report file"):
        load_report(str(trace))
    with pytest.raises(TypeError):
        AlarmExplanation.from_dict({"raised_at": 1.0})
