"""``jury-repro fuzz``: smoke, exit-code contract, and cross-process
seed stability.

Exit codes mirror analyze/diagnose: 0 for a clean campaign (or a fully
matching corpus replay), 2 both for usage errors and for surviving
counterexamples — with the shrunk repro printed so the seed can be
replayed by hand.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro import cli
from repro.fuzz import CorpusEntry, ScenarioSpec, default_corpus_dir, save_entry
from repro.fuzz.scenario import FaultSpec


def run_cli(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ----------------------------------------------------------------------
# Campaign mode
# ----------------------------------------------------------------------

def test_fuzz_smoke_clean_campaign(capsys):
    code, out, err = run_cli(["fuzz", "--runs", "2", "--seed", "8",
                              "--verbose"], capsys)
    assert code == 0
    assert "2/2 scenarios from seed 8: 0 counterexample(s)" in out
    assert "seed 8: ok" in out and "seed 9: ok" in out
    assert err == ""


def test_fuzz_json_payload_carries_digests(capsys):
    code, out, _ = run_cli(["fuzz", "--runs", "1", "--seed", "9",
                            "--format", "json"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["command"] == "fuzz" and payload["mode"] == "campaign"
    assert payload["ok"] is True
    (run,) = payload["runs"]
    assert run["seed"] == 9
    assert len(run["spec_digest"]) == 64
    assert len(run["alarm_digest"]) == 64
    assert len(run["trace_digest"]) == 64


def test_fuzz_counterexample_exits_2_and_prints_shrunk_repro(
        monkeypatch, capsys, tmp_path):
    """The headline contract: a surviving counterexample → exit 2, with the
    minimized spec printed (and saved when --save-failing is given)."""
    from repro.fuzz import runner as runner_module

    plant = ScenarioSpec(
        seed=11, n=3, k=0, switches=4, timeout_ms=200.0,
        faults=(FaultSpec(name="response-corruption",
                          params=(("faulty_controller", "c1"),)),))

    class PlantedGen:
        def spec(self, seed):
            return plant.replace(seed=seed)

    monkeypatch.setattr(runner_module, "ScenarioGen", PlantedGen)
    code, out, err = run_cli(
        ["fuzz", "--runs", "1", "--seed", "11", "--shrink-budget", "12",
         "--save-failing", str(tmp_path)], capsys)
    assert code == 2
    assert "counterexample seed 11: FAULT_UNDETECTED" in out
    assert "minimized:" in out and "repro    :" in out
    assert "surviving counterexample at seed 11" in err
    saved = tmp_path / "fuzz-seed-11.json"
    assert saved.is_file()
    entry = json.loads(saved.read_text())
    assert entry["expect"]["violations"] == ["FAULT_UNDETECTED"]
    assert entry["spec"]["k"] == 0


def test_fuzz_no_shrink_reports_original_spec(monkeypatch, capsys):
    from repro.fuzz import runner as runner_module

    plant = ScenarioSpec(
        seed=11, n=3, k=0, switches=4, timeout_ms=200.0,
        faults=(FaultSpec(name="response-corruption",
                          params=(("faulty_controller", "c1"),)),))

    class PlantedGen:
        def spec(self, seed):
            return plant.replace(seed=seed)

    monkeypatch.setattr(runner_module, "ScenarioGen", PlantedGen)
    code, out, _ = run_cli(["fuzz", "--runs", "1", "--seed", "11",
                            "--no-shrink"], capsys)
    assert code == 2
    # Unshrunk: the minimized line shows the original n=3/sw=4 shape.
    assert "minimized: seed=11 onos n=3 k=0 sw=4" in out


def test_fuzz_runs_must_be_positive(capsys):
    code, _, err = run_cli(["fuzz", "--runs", "0"], capsys)
    assert code == 2
    assert "--runs must be >= 1" in err


# ----------------------------------------------------------------------
# Corpus replay mode
# ----------------------------------------------------------------------

def test_fuzz_replay_of_the_repo_corpus_is_clean(capsys):
    code, out, err = run_cli(["fuzz", "--replay"], capsys)
    assert code == 0
    assert "k0-response-corruption-evades" in out
    assert err == ""


def test_fuzz_replay_prints_the_default_corpus_from_the_repo_root(capsys):
    """Replay output is a function of the tree, not of the checkout path:
    the default corpus prints as ``tests/corpus`` (table title and JSON),
    an explicit ``--corpus`` as given."""
    code, out, _ = run_cli(["fuzz", "--replay", "--format", "json"], capsys)
    assert code == 0 and json.loads(out)["corpus"] == "tests/corpus"
    code, out, _ = run_cli(["fuzz", "--replay"], capsys)
    assert code == 0 and "corpus replay — tests/corpus\n" in out
    given = str(default_corpus_dir())
    code, out, _ = run_cli(["fuzz", "--replay", "--corpus", given,
                            "--format", "json"], capsys)
    assert code == 0 and json.loads(out)["corpus"] == given


def test_fuzz_replay_empty_corpus_is_a_usage_error(tmp_path, capsys):
    code, _, err = run_cli(["fuzz", "--replay", "--corpus", str(tmp_path)],
                           capsys)
    assert code == 2
    assert "no corpus entries" in err


def test_fuzz_replay_mismatch_exits_2(tmp_path, capsys):
    # An entry that *expects* a violation signature a healthy spec won't
    # produce: replay must flag the mismatch and exit 2.
    stale = CorpusEntry(
        name="stale-expectation",
        spec=ScenarioSpec(seed=9, n=4, k=2, switches=4, timeout_ms=150.0),
        expect=("ENGINE_DIVERGENCE",),
        notes="synthetic: expectation no longer reproduces")
    save_entry(stale, tmp_path)
    code, out, err = run_cli(["fuzz", "--replay", "--corpus",
                              str(tmp_path)], capsys)
    assert code == 2
    assert "MISMATCH" in out
    assert "update or retire" in err


# ----------------------------------------------------------------------
# Cross-process seed stability (the determinism satellite)
# ----------------------------------------------------------------------

def _fuzz_json_in_fresh_process(seed: int) -> dict:
    env = dict(os.environ)
    root = Path(__file__).resolve().parent.parent
    env["PYTHONPATH"] = str(root / "src")
    env.setdefault("PYTHONHASHSEED", "random")  # stability must not need it
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "fuzz", "--runs", "1",
         "--seed", str(seed), "--format", "json"],
        capture_output=True, text=True, env=env, cwd=root, timeout=600)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


@pytest.mark.parametrize("seed", [9])
def test_same_seed_is_byte_stable_across_processes(seed):
    """Two fresh interpreters, same seed → identical generated scenario,
    identical canonical alarm stream, identical canonical trace encoding.
    Guards against wall-clock reads, set-iteration order, and unseeded
    RNG sneaking into the scenario or validation paths."""
    first = _fuzz_json_in_fresh_process(seed)["runs"][0]
    second = _fuzz_json_in_fresh_process(seed)["runs"][0]
    assert first["spec_digest"] == second["spec_digest"]
    assert first["alarm_digest"] == second["alarm_digest"]
    assert first["trace_digest"] == second["trace_digest"]
