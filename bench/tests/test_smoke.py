"""A 2-second size of every workload through the real command line."""

import json
import os
import shutil
import subprocess
import sys

import pytest

from bench.paths import BENCH_DIR, ROOT
from bench.run import load_contract
from bench.workloads import WORKLOADS

NAMES = list(WORKLOADS)


def _run(name, trace, seed=15, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "-m", "bench", "run", "--workload", name,
         "--seed", str(seed), "--seconds", "2", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def _reported(stdout):
    """Metric names the human-readable report lists for this workload."""
    return {line.split()[0] for line in stdout.splitlines()
            if line.startswith("  ") and not line.startswith("  note")}


def test_contract_names_the_workloads_and_the_command():
    contract = load_contract()
    assert [w["name"] for w in contract["workloads"]] == NAMES
    assert contract["paths"] == ["bench"]
    assert contract["command"] == ["python3", "-m", "bench", "run"]
    assert {m["name"] for m in contract["end_to_end"]} == {
        "setup_s", "triggers_per_s", "trigger_ms_p50", "peak_rss_mb"}


@pytest.mark.parametrize("name", NAMES)
def test_untraced_smoke(name):
    done = _run(name, trace=0)
    assert done.returncode == 0, done.stdout + done.stderr
    payload = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(payload) == {"correct", "attempted", "failed", "metrics"}
    assert payload["correct"] is True and payload["failed"] == 0
    assert payload["attempted"] >= 1
    contract = load_contract()
    assert set(payload["metrics"]) == {
        m["name"] for m in contract["end_to_end"]}
    for entry in contract["end_to_end"]:
        metric = payload["metrics"][entry["name"]]
        assert metric["unit"] == entry["unit"] and metric["value"] > 0
    assert "alarm_stream_sha256" in done.stdout


def test_traced_smoke_covers_every_per_layer_metric():
    contract = load_contract()
    listed = [m["name"] for m in contract["per_layer"]]
    produced = set()
    for name in NAMES:
        done = _run(name, trace=1)
        assert done.returncode == 0, done.stdout + done.stderr
        payload = json.loads(done.stdout.strip().splitlines()[-1])
        assert payload["correct"] is True
        assert list(payload["metrics"]) == listed
        produced |= _reported(done.stdout)
        trace_file = os.path.join(BENCH_DIR, "out", f"trace-{name}.json")
        with open(trace_file, encoding="utf-8") as handle:
            trace = json.load(handle)
        assert trace["workload"] == name
        assert trace["spans_written"] == len(trace["spans"]) > 0
        assert sum(trace["layer_share_pct"].values()) == pytest.approx(100.0)
    assert set(listed) <= produced, sorted(set(listed) - produced)


def test_same_seed_same_digest_other_seed_other_digest():
    def digest(seed):
        done = _run("stream-seq", trace=0, seed=seed)
        assert done.returncode == 0
        return [line for line in done.stdout.splitlines()
                if "alarm_stream_sha256" in line][0]

    assert digest(15) == digest(15)
    assert digest(15) != digest(16)


def test_fails_without_the_program(tmp_path):
    """Only BENCHMARK.json and bench/: non-zero exit, no result line."""
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", "trace-*"))
    done = _run("stream-seq", trace=0, cwd=tmp_path)
    assert done.returncode != 0
    assert not done.stdout.strip()
