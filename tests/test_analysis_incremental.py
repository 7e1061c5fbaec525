"""Incremental analysis: cache correctness, parallel runs, determinism."""

import json
import os
import textwrap

import pytest

from repro.analysis import AnalysisCache, Analyzer, engine
from repro.analysis.cache import analyzer_fingerprint, content_hash
from repro.analysis.engine import discover_files
from repro.cli import main

SRC_REPRO = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src", "repro")

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


def report_json(report):
    return json.dumps([f.to_dict() for f in report.findings], sort_keys=True)


# ----------------------------------------------------------------------
# Cache correctness
# ----------------------------------------------------------------------

def test_warm_run_serves_hits_and_identical_findings(tree, monkeypatch):
    # The fixture tree, then the analyzer's own source: a warm run serves
    # every file from the cache and never enters the module phase.
    analyzed = []
    real = engine._analyze_module

    def counting(source, display, *args, **kwargs):
        analyzed.append(display)
        return real(source, display, *args, **kwargs)

    monkeypatch.setattr(engine, "_analyze_module", counting)
    for index, root in enumerate((".", SRC_REPRO)):
        path = str(tree / f"cache-{index}.json")
        cache = AnalysisCache(path)
        cold = Analyzer().analyze_paths([root], cache=cache)
        cache.write()
        assert len(analyzed) == cold.files_scanned > 0

        analyzed.clear()
        warm = Analyzer().analyze_paths([root],
                                        cache=AnalysisCache.load(path))
        assert warm.files_scanned == cold.files_scanned
        assert warm.cache_hits == warm.files_scanned
        assert analyzed == []
        assert report_json(warm) == report_json(cold)


def test_edited_file_misses_while_others_hit(tree):
    cache = AnalysisCache(str(tree / "cache.json"))
    Analyzer().analyze_paths(["."], cache=cache)
    cache.write()

    (tree / "clean.py").write_text(CLEAN + "\nX = 1\n")
    warm_cache = AnalysisCache.load(str(tree / "cache.json"))
    report = Analyzer().analyze_paths(["."], cache=warm_cache)
    assert report.cache_hits == 1  # dirty.py unchanged, clean.py re-analyzed


def test_corrupt_cache_file_is_ignored(tree):
    (tree / "cache.json").write_text("{not json")
    cache = AnalysisCache.load(str(tree / "cache.json"))
    report = Analyzer().analyze_paths(["."], cache=cache)
    assert report.cache_hits == 0
    assert {f.rule_id for f in report.findings} >= {"D101"}


def test_analyzer_fingerprint_mismatch_invalidates_whole_cache(tree):
    cache = AnalysisCache(str(tree / "cache.json"))
    Analyzer().analyze_paths(["."], cache=cache)
    cache.write()

    raw = json.loads((tree / "cache.json").read_text())
    assert raw["analyzer"] == analyzer_fingerprint()
    raw["analyzer"] = "0" * 40  # an older analyzer wrote this cache
    (tree / "cache.json").write_text(json.dumps(raw))
    stale = AnalysisCache.load(str(tree / "cache.json"))
    report = Analyzer().analyze_paths(["."], cache=stale)
    assert report.cache_hits == 0


def test_cache_get_is_keyed_by_content_hash(tree):
    cache = AnalysisCache(str(tree / "cache.json"))
    Analyzer().analyze_paths(["."], cache=cache)
    assert cache.get("dirty.py", content_hash(DIRTY)) is not None
    assert cache.get("dirty.py", content_hash(DIRTY + "# edit\n")) is None


# ----------------------------------------------------------------------
# Parallel runs agree with serial runs
# ----------------------------------------------------------------------

def test_parallel_report_matches_serial_report(tree):
    serial = Analyzer().analyze_paths(["."], jobs=1)
    parallel = Analyzer().analyze_paths(["."], jobs=2)
    assert report_json(parallel) == report_json(serial)


# ----------------------------------------------------------------------
# Deterministic discovery (the satellite contract)
# ----------------------------------------------------------------------

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
    # reproducible run-to-run, warm or cold.
    main(["analyze", "--format", "json", "."])
    first = capsys.readouterr().out
    main(["analyze", "--format", "json", "."])  # warm: served from cache
    second = capsys.readouterr().out
    assert first == second

    main(["analyze", "--format", "json", "--no-cache", "--jobs", "2", "."])
    third = capsys.readouterr().out
    assert first == third


# ----------------------------------------------------------------------
# CLI knobs
# ----------------------------------------------------------------------

def test_cli_writes_and_reuses_the_default_cache(tree, capsys):
    main(["analyze", "."])
    capsys.readouterr()
    assert (tree / ".jury-analysis-cache.json").exists()
    main(["analyze", "."])
    assert "2 cached" in capsys.readouterr().out


def test_cli_no_cache_skips_the_cache_file(tree, capsys):
    main(["analyze", "--no-cache", "."])
    capsys.readouterr()
    assert not (tree / ".jury-analysis-cache.json").exists()
