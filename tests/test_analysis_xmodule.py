"""X-rules: interprocedural findings anchored at the entry point."""

import ast
import textwrap
from pathlib import Path

from repro.analysis.project_index import (
    build_project_index,
    extract_module_facts,
)
from repro.analysis.registry import ModuleContext, project_rules
from repro.analysis.rules_xmodule import (
    AlarmStreamDeterminismRule,
    ObserverPurityRule,
    SimulatedTimeDisciplineRule,
)


def index_for(*modules):
    facts = []
    for path, source in modules:
        source = textwrap.dedent(source)
        facts.append(extract_module_facts(
            ModuleContext(path, source, ast.parse(source))))
    return build_project_index(facts)


def run(rule, idx):
    return list(rule.run_project(idx))


def test_all_three_x_rules_are_registered():
    ids = {r.rule_id for r in project_rules()}
    assert {"X501", "X502", "X503"} <= ids


# ----------------------------------------------------------------------
# X501 — observer purity, transitively
# ----------------------------------------------------------------------

def test_x501_direct_mutation_in_observer():
    idx = index_for(("src/repro/obs/probe.py", """
        def observe(engine, alarm):
            engine.alarms.append(alarm)
    """))
    findings = run(ObserverPurityRule(), idx)
    assert len(findings) == 1
    f = findings[0]
    assert f.rule_id == "X501"
    assert f.path == "src/repro/obs/probe.py"
    assert f.symbol == "observe"
    assert "directly" in f.message


def test_x501_two_hop_mutation_is_anchored_at_the_entry():
    idx = index_for(
        ("src/repro/obs/probe.py", """
            from repro.obs.helpers import stamp

            def observe(engine, alarm):
                stamp(engine, alarm)
        """),
        ("src/repro/obs/helpers.py", """
            def stamp(engine, alarm):
                engine.decisions.append(alarm)
        """),
    )
    findings = run(ObserverPurityRule(), idx)
    # One finding per offending (entry, reached) pair: the entry `observe`
    # plus `stamp` itself (a public observer function too).
    anchored = [f for f in findings if f.symbol == "observe"]
    assert len(anchored) == 1
    f = anchored[0]
    assert f.path == "src/repro/obs/probe.py"
    assert "via observe -> stamp" in f.message
    assert "helpers.py:3" in f.message  # offending site named in message


def test_x501_ignores_pure_observers_and_non_observer_modules():
    idx = index_for(
        ("src/repro/obs/probe.py", """
            def observe(engine, alarm):
                return (alarm.reason, alarm.detail)
        """),
        ("src/repro/core/engine.py", """
            def mutate(engine, alarm):
                engine.alarms.append(alarm)
        """),
    )
    assert run(ObserverPurityRule(), idx) == []


def test_x501_holds_the_observer_seam_to_purity():
    """Every event of the seam is an X501 entry point, the seam as shipped
    is pure, and a decision event that wrote into the engine's result
    would be caught."""
    path = "src/repro/obs/observer.py"
    source = (Path(__file__).resolve().parents[1] / path).read_text(
        encoding="utf-8")
    rule = ObserverPurityRule()
    idx = index_for((path, source))
    entries = {name.rsplit(".", 1)[-1]
               for name, _, _ in rule.entry_points(idx)}
    assert {"intercept", "replicate", "ingest", "late", "decision",
            "checkpoint", "restore"} <= entries
    assert run(rule, idx) == []

    hook = "        tau = result.trigger_id\n"
    assert hook in source
    impure = source.replace(hook, hook + "        result.alarms.clear()\n")
    findings = run(rule, index_for((path, impure)))
    assert [f.symbol for f in findings] == ["Observer.decision"]


# ----------------------------------------------------------------------
# Suppression anchoring (the satellite contract)
# ----------------------------------------------------------------------

def test_suppression_on_the_entry_def_line_silences_x501():
    idx = index_for(
        ("src/repro/obs/probe.py", """
            from repro.obs.helpers import stamp

            def observe(engine, alarm):  # jury: ignore[X501]
                stamp(engine, alarm)
        """),
        ("src/repro/obs/helpers.py", """
            def _stamp_impl(engine, alarm):
                engine.decisions.append(alarm)

            def stamp(engine, alarm):  # jury: ignore[X501]
                _stamp_impl(engine, alarm)
        """),
    )
    assert run(ObserverPurityRule(), idx) == []


def test_suppression_on_the_callee_line_does_not_silence_the_caller():
    # The contract is the caller's: a suppression inside the shared helper
    # must not hide the interprocedural finding reported at the entry.
    idx = index_for(
        ("src/repro/obs/probe.py", """
            from repro.obs.helpers import stamp

            def observe(engine, alarm):
                stamp(engine, alarm)
        """),
        ("src/repro/obs/helpers.py", """
            def stamp(engine, alarm):  # jury: ignore[X501]
                engine.decisions.append(alarm)  # jury: ignore
        """),
    )
    findings = run(ObserverPurityRule(), idx)
    assert [f.symbol for f in findings] == ["observe"]


# ----------------------------------------------------------------------
# X502 — simulated-time discipline on validator hot paths
# ----------------------------------------------------------------------

def test_x502_wall_clock_reached_from_hot_path():
    idx = index_for(
        ("src/repro/core/validator.py", """
            from repro.util.clock import stamp

            def validate(action):
                return stamp()
        """),
        ("src/repro/util/clock.py", """
            import time

            def stamp():
                return time.time()
        """),
    )
    findings = run(SimulatedTimeDisciplineRule(), idx)
    assert [f.rule_id for f in findings] == ["X502"]
    assert findings[0].symbol == "validate"


def test_x502_flags_global_rng_too():
    idx = index_for(("src/repro/core/consensus.py", """
        import random

        def pick(replicas):
            return replicas[random.randrange(len(replicas))]
    """))
    findings = run(SimulatedTimeDisciplineRule(), idx)
    assert [f.rule_id for f in findings] == ["X502"]


# ----------------------------------------------------------------------
# X503 — alarm-stream determinism (set iteration on pipeline paths)
# ----------------------------------------------------------------------

def test_x503_set_iteration_reachable_from_pipeline():
    idx = index_for(
        ("src/repro/core/pipeline.py", """
            from repro.core.merge import merge_ids

            def drain(batches):
                return merge_ids(batches)
        """),
        ("src/repro/core/merge.py", """
            def merge_ids(batches):
                seen = set()
                for batch in batches:
                    seen |= batch.ids
                out = []
                for item in seen:
                    out.append(item)
                return out
        """),
    )
    findings = run(AlarmStreamDeterminismRule(), idx)
    assert [f.rule_id for f in findings] == ["X503"]
    assert findings[0].symbol == "drain"
    assert "via drain -> merge_ids" in findings[0].message
