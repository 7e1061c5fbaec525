"""P-rules: the policy static verifier and its CLI gate, ``analyze``."""

import ast
import json
import textwrap
from pathlib import Path

import pytest

from repro.analysis import Analyzer
from repro.analysis.project_index import (
    build_project_index,
    extract_module_facts,
)
from repro.analysis.registry import ModuleContext
from repro.cli import main
from repro.policy import (
    lint_builtin_policies,
    lint_policy_file,
    lint_policy_text,
)

REPO_ROOT = Path(__file__).resolve().parents[1]
FIXTURES = REPO_ROOT / "tests" / "fixtures" / "policies"
MINIPROJ = REPO_ROOT / "tests" / "fixtures" / "miniproj"


def miniproj_index():
    facts = []
    for path in sorted(MINIPROJ.rglob("*.py")):
        source = path.read_text()
        rel = str(path.relative_to(REPO_ROOT))
        facts.append(extract_module_facts(
            ModuleContext(rel, source, ast.parse(source))))
    return build_project_index(facts)


def rules_and_lines(findings):
    return [(f.rule_id, f.line) for f in findings]


# ----------------------------------------------------------------------
# The planted fixtures, with line-accurate anchors
# ----------------------------------------------------------------------

def test_clean_fixture_has_no_findings():
    assert lint_policy_file(str(FIXTURES / "clean.xml")) == []


def test_p601_contradiction_is_anchored_at_the_dead_clause():
    findings = lint_policy_file(str(FIXTURES / "contradiction.xml"))
    assert rules_and_lines(findings) == [("P601", 11)]
    assert "can never take effect" in findings[0].message


def test_p602_shadowed_clause_is_a_warning():
    findings = lint_policy_file(str(FIXTURES / "shadowed.xml"))
    assert rules_and_lines(findings) == [("P602", 8)]


def test_p603_unknown_cache_field_and_attribute():
    findings = lint_policy_file(str(FIXTURES / "unknown_field.xml"))
    assert [f.rule_id for f in findings] == ["P603", "P603", "P603"]
    assert [f.line for f in findings] == [7, 10, 13]
    by_line = {f.line: f.message for f in findings}
    assert "unknown cache 'LinkDB'" in by_line[7]
    assert "dl_vlan" in by_line[10]
    assert "nmae" in by_line[13] and "name" in by_line[13]


def test_p604_needs_an_index_and_fires_against_miniproj():
    path = str(FIXTURES / "unknown_trigger.xml")
    assert lint_policy_file(path) == []  # no index -> provenance unknown
    findings = lint_policy_file(path, index=miniproj_index())
    assert rules_and_lines(findings) == [("P604", 7)]
    assert "external" in findings[0].message
    assert "internal" in findings[0].message


# ----------------------------------------------------------------------
# Text-level behaviours: P001 anchoring, XML-comment suppressions
# ----------------------------------------------------------------------

def test_parse_error_reports_line_and_column():
    findings = lint_policy_text("<Policies>\n  <Policy allow='No'>\n")
    assert findings and findings[0].rule_id == "P001"
    assert findings[0].line >= 2


def test_xml_comment_suppression_silences_the_named_rule():
    shadowed = (FIXTURES / "shadowed.xml").read_text()
    lines = shadowed.splitlines()
    lines[7] = lines[7] + "  <!-- # jury: ignore[P602] -->"
    assert lint_policy_text("\n".join(lines)) == []


def test_suppression_for_another_rule_does_not_silence():
    shadowed = (FIXTURES / "shadowed.xml").read_text()
    lines = shadowed.splitlines()
    lines[7] = lines[7] + "  <!-- # jury: ignore[P601] -->"
    findings = lint_policy_text("\n".join(lines))
    assert [f.rule_id for f in findings] == ["P602"]


def test_contradiction_needs_differing_allow():
    # Same allow on both clauses downgrades to shadowing, not contradiction.
    text = textwrap.dedent("""\
        <Policies>
          <Policy allow="No" name="broad">
            <Cache name="FlowsDB" operation="*"/>
          </Policy>
          <Policy allow="No" name="narrow">
            <Cache name="FlowsDB" operation="delete"/>
          </Policy>
        </Policies>
    """)
    assert [f.rule_id for f in lint_policy_text(text)] == ["P602"]


def test_predicated_clauses_never_subsume():
    text = textwrap.dedent("""\
        <Policies>
          <Policy allow="No" name="broad">
            <Cache name="FlowsDB" operation="*"
                   entry="*dl_src=00:00:00:00:00:01*,*"/>
          </Policy>
          <Policy allow="Yes" name="narrow">
            <Cache name="FlowsDB" operation="delete"/>
          </Policy>
        </Policies>
    """)
    assert lint_policy_text(text) == []


# ----------------------------------------------------------------------
# Builtins and the shipped examples stay clean
# ----------------------------------------------------------------------

def test_builtin_policy_sets_lint_clean():
    # Against the project's own index, so P604 checks every trigger kind a
    # built-in clause names is one the controller code emits.
    index = Analyzer(rules=[]).index_paths([str(REPO_ROOT / "src" / "repro")])
    assert index.emitted_trigger_kinds()
    assert lint_builtin_policies(index=index) == []


def test_shipped_example_policies_lint_clean():
    examples = sorted((REPO_ROOT / "examples" / "policies").glob("*.xml"))
    assert examples, "examples/policies/*.xml should exist"
    for path in examples:
        assert lint_policy_file(str(path)) == [], path.name


# ----------------------------------------------------------------------
# The CLI gate: `analyze` lints every .xml path it is given
# ----------------------------------------------------------------------

@pytest.fixture()
def repo_cwd(monkeypatch):
    monkeypatch.chdir(REPO_ROOT)


def test_cli_exits_nonzero_on_each_planted_fixture(repo_cwd, capsys):
    for name in ("contradiction.xml", "shadowed.xml", "unknown_field.xml"):
        rc = main(["analyze", "--fail-on", "warning",
                   f"tests/fixtures/policies/{name}"])
        capsys.readouterr()
        assert rc == 1, name


def test_cli_p604_uses_the_project_index(repo_cwd, capsys):
    # The index comes from the Python paths analyzed in the same run.
    rc = main(["analyze", "tests/fixtures/miniproj",
               "tests/fixtures/policies/unknown_trigger.xml"])
    out = capsys.readouterr().out
    assert rc == 1
    assert "unknown_trigger.xml:7:" in out and "P604" in out


def test_cli_clean_fixture_and_builtins_exit_zero(repo_cwd, capsys):
    # The built-in sets have no XML: test_builtin_policy_sets_lint_clean
    # lints them against src/repro's index.
    assert main(["analyze", "--fail-on", "warning",
                 "tests/fixtures/policies/clean.xml"]) == 0
    assert "OK" in capsys.readouterr().out


@pytest.mark.parametrize("path", [
    "tests/fixtures/policies/clean.xml",
    "tests/fixtures/policies/unknown_trigger.xml",
    "examples/policies/fig3_no_internal_edges.xml",
])
def test_cli_policy_alone_runs_no_p604(repo_cwd, capsys, path):
    # With no Python analyzed there is no code to ask which trigger kinds
    # it emits, so no clause is reported as unreachable.
    rc = main(["analyze", "--fail-on", "warning", path])
    out = capsys.readouterr().out
    assert "P604" not in out
    assert rc == 0


def test_cli_fail_on_error_lets_warnings_pass(repo_cwd, capsys):
    rc = main(["analyze", "tests/fixtures/policies/shadowed.xml",
               "--fail-on", "error"])
    capsys.readouterr()
    assert rc == 0  # P602 is warning-severity


def test_cli_json_format_carries_line_and_column(repo_cwd, capsys):
    rc = main(["analyze", "tests/fixtures/policies/contradiction.xml",
               "--format", "json"])
    assert rc == 1
    payload = json.loads(capsys.readouterr().out)
    (finding,) = payload["findings"]
    assert finding["rule"] == "P601"
    assert finding["line"] == 11 and finding["column"] == 3
