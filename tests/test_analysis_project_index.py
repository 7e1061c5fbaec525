"""ProjectIndex: fact extraction, call resolution, reachability, suppressions."""

import ast
import textwrap

from repro.analysis.project_index import (
    GLOBAL_RNG,
    SET_ITERATION,
    STATE_MUTATION,
    WALL_CLOCK,
    build_project_index,
    extract_module_facts,
    module_name_for,
)
from repro.analysis.registry import ModuleContext


def facts_for(path, source):
    source = textwrap.dedent(source)
    return extract_module_facts(ModuleContext(path, source,
                                              ast.parse(source)))


def index_for(*modules):
    return build_project_index(facts_for(p, s) for p, s in modules)


# ----------------------------------------------------------------------
# Module naming and fact extraction
# ----------------------------------------------------------------------

def test_module_name_strips_src_layout():
    assert module_name_for("src/repro/obs/diagnose.py") == \
        "repro.obs.diagnose"
    assert module_name_for("src/repro/core/__init__.py") == "repro.core"
    assert module_name_for("tools/helper.py") == "tools.helper"


def test_effects_are_recorded_with_positions():
    facts = facts_for("src/pkg/mod.py", """
        import time
        import random

        def stamp(engine):
            engine.alarms.append(1)
            for item in {1, 2}:
                pass
            random.random()
            return time.time()
    """)
    fn = facts.functions[0]
    kinds = {e.kind for e in fn.effects}
    assert kinds == {STATE_MUTATION, SET_ITERATION, GLOBAL_RNG, WALL_CLOCK}
    wall = next(e for e in fn.effects if e.kind == WALL_CLOCK)
    assert wall.line == 10  # positions survive extraction


def test_locally_minted_containers_are_not_mutations():
    facts = facts_for("src/pkg/mod.py", """
        def collect(engine):
            alarms = []
            alarms.append(1)
            seen = set(engine.ids)
            seen.add(2)
            return alarms, seen
    """)
    fn = facts.functions[0]
    assert [e for e in fn.effects if e.kind == STATE_MUTATION] == []


def test_borrowed_names_still_count_as_mutations():
    facts = facts_for("src/pkg/mod.py", """
        def stamp(result):
            for alarm in result.alarms:
                alarm.responses.append("x")
    """)
    fn = facts.functions[0]
    assert any(e.kind == STATE_MUTATION for e in fn.effects)


def test_emitted_trigger_kinds():
    idx = index_for(("src/pkg/app.py", """
        class App:
            def tick(self, ctx):
                ctx.internal_trigger("timer")
    """))
    assert idx.emitted_trigger_kinds() == {"internal"}
    # The replicator mints τ without building a context.
    idx = index_for(("src/pkg/proxy.py", """
        def intercept(self):
            return external_trigger_id(self.sim)
    """))
    assert idx.emitted_trigger_kinds() == {"external"}


# ----------------------------------------------------------------------
# Call resolution and reachability
# ----------------------------------------------------------------------

def test_cross_module_call_resolves_through_imports():
    idx = index_for(
        ("src/pkg/a.py", """
            from pkg.b import helper

            def entry():
                return helper()
        """),
        ("src/pkg/b.py", """
            import time

            def helper():
                return time.time()
        """),
    )
    reach = idx.reachable_from("pkg.a.entry")
    assert "pkg.b.helper" in reach


def test_two_hop_reachability_records_call_path():
    idx = index_for(
        ("src/pkg/a.py", """
            from pkg.b import middle

            def entry():
                middle()
        """),
        ("src/pkg/b.py", """
            from pkg.c import leaf

            def middle():
                leaf()
        """),
        ("src/pkg/c.py", """
            import time

            def leaf():
                time.time()
        """),
    )
    reach = idx.reachable_from("pkg.a.entry")
    assert reach["pkg.c.leaf"] == [
        "pkg.a.entry", "pkg.b.middle", "pkg.c.leaf"]


def test_self_method_calls_resolve_within_class():
    idx = index_for(("src/pkg/a.py", """
        class Probe:
            def outer(self):
                self.inner()

            def inner(self):
                import random
                random.random()
    """))
    reach = idx.reachable_from("pkg.a.Probe.outer")
    assert "pkg.a.Probe.inner" in reach


# ----------------------------------------------------------------------
# Suppressions
# ----------------------------------------------------------------------

def test_is_suppressed_honours_rule_id_and_wildcard():
    facts = facts_for("src/pkg/mod.py", """
        def f():  # jury: ignore[X501]
            pass

        def g():  # jury: ignore
            pass

        def h():
            pass
    """)
    idx = build_project_index([facts])
    mod = facts
    lines = {fn.qualname: fn.lineno for fn in mod.functions}
    assert idx.is_suppressed(mod, "X501", lines["f"])
    assert not idx.is_suppressed(mod, "X502", lines["f"])
    assert idx.is_suppressed(mod, "X502", lines["g"])
    assert not idx.is_suppressed(mod, "X501", lines["h"])
