"""The ``jury-repro analyze`` CLI: formats, exit codes, deterministic runs."""

import json
import os
import textwrap
from pathlib import Path

import pytest

from repro.analysis import discover_files
from repro.cli import main

REPO_ROOT = Path(__file__).resolve().parents[1]

DIRTY = textwrap.dedent("""
    import time

    def handler(seen, channel):
        seen.add(id(channel))
        return time.time()
""")

CLEAN = textwrap.dedent("""
    def handler(sim):
        return sim.now
""")


@pytest.fixture()
def tree(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "dirty.py").write_text(DIRTY)
    (tmp_path / "clean.py").write_text(CLEAN)
    return tmp_path


def test_clean_file_exits_zero(tree, capsys):
    assert main(["analyze", "clean.py"]) == 0
    out = capsys.readouterr().out
    assert "0 finding(s)" in out and "OK" in out


def test_error_findings_fail_the_gate(tree, capsys):
    assert main(["analyze", "--fail-on", "error", "dirty.py"]) == 1
    out = capsys.readouterr().out
    assert "D101" in out and "D103" in out
    assert "dirty.py:5" in out  # file:line anchor


def test_human_report_names_all_four_families(tree, capsys):
    main(["analyze", "clean.py"])
    out = capsys.readouterr().out
    for token in ("D/determinism", "T/taint-safety", "S/sanity pairing",
                  "H/hygiene"):
        assert token in out


def test_json_format(tree, capsys):
    assert main(["analyze", "--format", "json", "dirty.py"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["failed"] is True
    rules = {f["rule"] for f in payload["findings"]}
    assert {"D101", "D103"} <= rules
    families = {r["family"] for r in payload["rules"]}
    assert {"D", "T", "S", "H"} <= families
    d101 = next(f for f in payload["findings"] if f["rule"] == "D101")
    assert d101["path"] == "dirty.py" and d101["line"] == 6


def test_fail_on_warning_tightens_the_gate(tree, capsys):
    (Path("warn.py")).write_text("from typing import List\n")
    assert main(["analyze", "--fail-on", "error", "warn.py"]) == 0
    capsys.readouterr()
    assert main(["analyze", "--fail-on", "warning", "warn.py"]) == 1


def test_missing_path_is_a_usage_error(tree, capsys):
    assert main(["analyze", "no_such_dir"]) == 2


def test_no_paths_is_a_usage_error(tree, capsys):
    assert main(["analyze"]) == 2


def test_list_rules(tree, capsys):
    assert main(["analyze", "--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule_id in ("D101", "D102", "D103", "D104", "D105",
                    "T201", "T202", "S301", "S302",
                    "H401", "H402", "H403", "H404", "H405"):
        assert rule_id in out


def test_discover_files_is_sorted_and_unique(tree):
    (tree / "sub").mkdir()
    (tree / "sub" / "b.py").write_text("\n")
    (tree / "sub" / "a.py").write_text("\n")
    found = discover_files([".", "."])
    assert found == sorted(found)
    assert len(found) == len(set(found))


def test_discover_files_survives_symlink_cycles(tree):
    (tree / "sub").mkdir()
    (tree / "sub" / "mod.py").write_text("\n")
    try:
        os.symlink(tree, tree / "sub" / "loop")
    except OSError:
        pytest.skip("symlinks unavailable")
    found = discover_files(["."])
    names = [os.path.basename(p) for p in found]
    assert names.count("mod.py") == 1


def test_two_runs_emit_byte_identical_json_reports(tree, capsys):
    # The full CLI JSON report (findings, summary, ordering) must be
    # reproducible run-to-run.
    main(["analyze", "--format", "json", "."])
    first = capsys.readouterr().out
    main(["analyze", "--format", "json", "."])
    second = capsys.readouterr().out
    assert first == second


def test_analyze_leaves_the_working_directory_untouched(tree, capsys):
    # Every run is cold: nothing is written next to the analyzed tree.
    def listing():
        return sorted((dirpath, tuple(sorted(dirnames)), tuple(sorted(files)))
                      for dirpath, dirnames, files in os.walk(tree))

    before = listing()
    assert main(["analyze", "--format", "json", "."]) == 1
    assert main(["analyze", "clean.py"]) == 0
    capsys.readouterr()
    assert listing() == before


def test_gate_command_on_shipped_tree(monkeypatch):
    # The exact invocation CI runs, executed from the repo root.
    monkeypatch.chdir(REPO_ROOT)
    assert main(["analyze", "--fail-on", "warning", "src/"]) == 0
