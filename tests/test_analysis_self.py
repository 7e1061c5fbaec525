"""Self-application: ``src/repro`` must stay clean under its own analyzer.

This is the tier-1 gate the CI workflow enforces with
``jury-repro analyze --fail-on warning src/``: zero findings of any
severity. ``src/repro`` is analyzed once for the whole module.
"""

from pathlib import Path

import pytest

from repro.analysis import Analyzer, Severity

REPO_ROOT = Path(__file__).resolve().parents[1]


def analyze_from_repo_root(path):
    # Finding paths are cwd-relative; anchor them at the repo root.
    with pytest.MonkeyPatch.context() as patch:
        patch.chdir(REPO_ROOT)
        return Analyzer().analyze_paths([path])


@pytest.fixture(scope="module")
def src_report():
    return analyze_from_repo_root("src/repro")


def test_src_repro_is_clean_modulo_checked_in_baseline(src_report):
    # No baseline is checked in any more, so "clean modulo the baseline"
    # means zero findings at any severity.
    assert src_report.files_scanned > 0
    assert src_report.findings == [], "\n".join(
        f.render() for f in src_report.findings)


def test_src_repro_has_no_error_findings(src_report):
    errors = [f for f in src_report.findings if f.severity >= Severity.ERROR]
    assert errors == [], "\n".join(f.render() for f in errors)


def test_all_six_rule_families_are_wired():
    from repro.analysis.registry import rule_catalog
    families = {rule.rule_id[0] for rule in Analyzer().rules}
    assert {"D", "T", "S", "H"} <= families  # per-module phase
    catalog = {cls.rule_id[0] for cls in rule_catalog()}
    assert {"D", "T", "S", "H", "X", "P"} <= catalog


def test_src_repro_is_x_rule_clean(src_report):
    # The interprocedural rules hold for the engine's own tree: observers
    # stay pure, hot paths stay on simulated time, pipeline output stays
    # ordered.
    cross = [f for f in src_report.findings if f.rule_id.startswith("X")]
    assert cross == [], "\n".join(f.render() for f in cross)


def test_tests_directory_parses_clean_of_errors():
    # The test tree is held to error-level hygiene too (no bare excepts,
    # no mutable defaults); warnings are fine there.
    report = analyze_from_repo_root("tests")
    errors = [f for f in report.findings if f.severity >= Severity.ERROR]
    assert errors == [], "\n".join(f.render() for f in errors)
