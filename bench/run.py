"""Command line: run workloads, print every metric by name, judge the run.

``python -m bench run --workload W --seed S --seconds N --trace 0|1`` runs
one workload in this process and ends with one JSON line::

    {"correct": true, "attempted": 27650, "failed": 0, "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones of
``BENCHMARK.json``, with ``--trace 1`` the per-layer ledger (a per-layer
metric of a layer the workload does not exercise reads 0). Without
``--workload`` every workload runs, each in a fresh subprocess. The exit
code is non-zero when the oracle finds a failed trigger.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from typing import Dict, List, Optional, Sequence

from bench.paths import ROOT, add_src

DEFAULT_SEED = 15
#: Never used while a change is written; claims must also hold on it.
HELD_OUT_SEED = 16


def load_contract() -> Dict[str, object]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def result_payload(result, contract: Dict[str, object]) -> Dict[str, object]:
    """The driver-facing result object for one run."""
    listed = contract["per_layer" if result.traced else "end_to_end"]
    metrics = {
        entry["name"]: {"value": float(result.metrics.get(entry["name"], 0.0)),
                        "unit": entry["unit"]}
        for entry in listed}
    return {"correct": result.verdict.correct,
            "attempted": result.verdict.attempted,
            "failed": result.verdict.failed,
            "metrics": metrics}


def render(result, contract: Dict[str, object]) -> str:
    """Human-readable report: every metric with its unit and bound."""
    listed = contract["per_layer" if result.traced else "end_to_end"]
    mode = "traced per-layer ledger" if result.traced else "end to end"
    lines = [f"== {result.workload}  seed={result.seed}  ({mode})"]
    for entry in listed:
        name = entry["name"]
        if name not in result.metrics:
            continue  # a layer this workload does not exercise
        bound = entry.get("bound")
        limit = ""
        if bound is not None:
            sign = "-" if entry["better"] == "higher" else "+"
            limit = f"  (regression bound {sign}{bound * 100:.0f}%)"
        lines.append(f"  {name:<34} {result.metrics[name]:>14.4f} "
                     f"{entry['unit']}{limit}")
    verdict = result.verdict
    lines.append(
        f"  failed_share {verdict.failed_share:.6f}  "
        f"(attempted {verdict.attempted}, undecided {verdict.undecided}, "
        f"missed alarms {verdict.missed_alarms}, spurious alarms "
        f"{verdict.spurious_alarms}; any increase is a regression)")
    lines.append(f"  alarm_stream_sha256 {verdict.alarm_stream_sha256}")
    for key, value in sorted(result.notes.items()):
        lines.append(f"  note {key} = {value}")
    return "\n".join(lines)


def run_one(name: str, seed: int, seconds: float, traced: bool,
            started_at: float) -> int:
    add_src()
    from bench import measure
    from bench.workloads import run_workload

    measure.pin_to_one_cpu()
    contract = load_contract()
    result = run_workload(name, seed, seconds, traced, started_at)
    print(render(result, contract))
    print(json.dumps(result_payload(result, contract)), flush=True)
    return 0 if result.verdict.correct else 1


def child_command(name: str, seed: int, seconds: float,
                  traced: bool) -> List[str]:
    return [sys.executable, "-m", "bench", "run", "--workload", name,
            "--seed", str(seed), "--seconds", str(seconds),
            "--trace", "1" if traced else "0"]


def run_child(name: str, seed: int, seconds: float, traced: bool
              ) -> "subprocess.CompletedProcess[str]":
    """One workload in a fresh interpreter, output captured."""
    return subprocess.run(child_command(name, seed, seconds, traced),
                          cwd=ROOT, capture_output=True, text=True,
                          check=False)


def parse_result_line(stdout: str) -> Dict[str, object]:
    return json.loads(stdout.strip().splitlines()[-1])


def run_all(seed: int, seconds: float, traced: bool) -> int:
    add_src()
    from bench.workloads import WORKLOADS

    status = 0
    for name in WORKLOADS:
        done = subprocess.run(child_command(name, seed, seconds, traced),
                              cwd=ROOT, check=False)
        status = status or done.returncode
    return status


def main(argv: Sequence[str], started_at: Optional[float] = None) -> int:
    if started_at is None:
        started_at = time.perf_counter()
    if argv and argv[0] == "aa":
        from bench.aa import main as aa_main
        return aa_main(argv[1:])
    parser = argparse.ArgumentParser(prog="python -m bench")
    commands = parser.add_subparsers(dest="command", required=True)
    run = commands.add_parser("run", help="run one or all workloads")
    run.add_argument("--workload", default=None)
    run.add_argument("--seed", type=int, default=DEFAULT_SEED,
                     help=f"default {DEFAULT_SEED}; {HELD_OUT_SEED} is the "
                          f"held-out seed a claim must also hold on")
    run.add_argument("--seconds", type=float, default=None)
    run.add_argument("--trace", nargs="?", type=int, const=1, default=0,
                     choices=(0, 1))
    commands.add_parser("oracle", help="run the oracle's self-test")
    commands.add_parser("aa", help="two back-to-back sets of the same "
                        "code (python -m bench aa --help)")
    args = parser.parse_args(argv)

    if args.command == "oracle":
        add_src()
        from bench.oracle import self_test
        self_test()
        print("oracle self-test ok")
        return 0
    seconds = args.seconds
    if seconds is None:
        seconds = float(load_contract()["run_seconds"])
    if seconds <= 0:
        parser.error("--seconds must be positive")
    if args.workload is None:
        return run_all(args.seed, seconds, bool(args.trace))
    add_src()
    from bench.workloads import WORKLOADS
    if args.workload not in set(WORKLOADS):
        parser.error(f"unknown workload {args.workload!r} (one of: "
                     + ", ".join(WORKLOADS) + ")")
    return run_one(args.workload, args.seed, seconds, bool(args.trace),
                   started_at)
