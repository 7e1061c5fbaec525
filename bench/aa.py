"""A/A check: two back-to-back sets of runs of the same checkout.

``python -m bench aa [--runs N] [--seed S] [--output FILE]`` runs every
workload ``N`` times per set, each run with its own seed (``S``, ``S+1``,
...), twice over, alternating the workload order from run to run. For each
end-to-end metric of each workload it prints both sets' medians and
quartiles, the spread (interquartile distance ÷ median, as
``statistics.quantiles(values, n=4)`` gives the quartiles) and the gap
between the two medians in the metric's *worse* direction, against the
metric's bound in ``BENCHMARK.json``. It exits non-zero when a gap or a
spread (``setup_s`` excepted for the spread) exceeds its bound, when a run
fails its oracle, or when one seed gave two different alarm-stream digests
or failure counts.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Sequence

from bench.paths import ROOT, add_src
from bench.run import load_contract, parse_result_line, run_child


def _git(*args: str) -> str:
    try:
        done = subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                              text=True, check=False)
    except OSError:
        return ""
    return done.stdout.strip() if done.returncode == 0 else ""


def _git_sha() -> str:
    """HEAD, marked ``+changes`` when the work tree differs from it."""
    sha = _git("rev-parse", "HEAD") or "unknown"
    return sha + ("+changes" if _git("status", "--porcelain") else "")


def host_metadata() -> Dict[str, object]:
    from bench.measure import host_calibration_ms
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without affinity masks
        cpus = os.cpu_count() or 1
    return {"cpu_count": cpus,
            "python": platform.python_version(),
            "platform": platform.platform(),
            "git_sha": _git_sha(),
            "host.calib_ms": host_calibration_ms()}


def quartiles(values: Sequence[float]):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median."""
    q1, _, q3 = quartiles(values)
    median = statistics.median(values)
    return (q3 - q1) / median if median else 0.0


def worse_by(first: float, second: float, better: str) -> float:
    """How much worse ``second`` is than ``first``, as a share of ``first``
    (negative when it is better)."""
    if not first:
        return 0.0
    change = (second - first) / first
    return -change if better == "higher" else change


def run_sets(runs: int, seed: int, seconds: float, workloads: List[str],
             log=sys.stderr) -> List[Dict[str, Dict[str, List[dict]]]]:
    """Two sets × ``runs`` runs × every workload; raw per-run records."""
    sha = re.compile(r"alarm_stream_sha256 ([0-9a-f]{64})")
    sets = []
    for set_index in range(2):
        records: Dict[str, List[dict]] = {name: [] for name in workloads}
        for run_index in range(runs):
            flip = (set_index + run_index) % 2 == 1
            for name in (reversed(workloads) if flip else workloads):
                started = time.perf_counter()
                done = run_child(name, seed + run_index, seconds, False)
                wall = time.perf_counter() - started
                if done.returncode != 0:
                    sys.stderr.write(done.stdout + done.stderr)
                    raise SystemExit(
                        f"bench aa: {name} seed {seed + run_index} failed "
                        f"(exit {done.returncode})")
                payload = parse_result_line(done.stdout)
                match = sha.search(done.stdout)
                records[name].append({
                    "seed": seed + run_index,
                    "wall_s": round(wall, 3),
                    "failed": payload["failed"],
                    "attempted": payload["attempted"],
                    "alarm_stream_sha256": match.group(1) if match else "",
                    "metrics": {key: entry["value"] for key, entry
                                in payload["metrics"].items()}})
                log.write(f"set {set_index + 1} run {run_index + 1}/{runs} "
                          f"{name}: {wall:.1f}s\n")
                log.flush()
        sets.append(records)
    return sets


def analyse(sets, contract) -> Dict[str, object]:
    """Per workload × metric: medians, quartiles, spreads, gap, verdict."""
    rows = []
    ok = True
    for name in sets[0]:
        first_runs, second_runs = sets[0][name], sets[1][name]
        same_digest = all(
            a["alarm_stream_sha256"] == b["alarm_stream_sha256"]
            and a["failed"] == b["failed"]
            and a["attempted"] == b["attempted"]
            for a, b in zip(first_runs, second_runs))
        ok = ok and same_digest
        for entry in contract["end_to_end"]:
            metric, bound = entry["name"], entry["bound"]
            first = [run["metrics"][metric] for run in first_runs]
            second = [run["metrics"][metric] for run in second_runs]
            gap = worse_by(statistics.median(first),
                           statistics.median(second), entry["better"])
            spreads = [spread(first), spread(second)]
            within = gap <= bound and (
                metric == "setup_s" or max(spreads) <= bound)
            ok = ok and within
            rows.append({
                "workload": name, "metric": metric, "unit": entry["unit"],
                "bound": bound,
                "set1": dict(zip(("q1", "median", "q3"), quartiles(first))),
                "set2": dict(zip(("q1", "median", "q3"), quartiles(second))),
                "spread": spreads, "gap": gap, "within_bound": within,
                "digests_and_failures_identical": same_digest})
    return {"ok": ok, "rows": rows}


def render(analysis: Dict[str, object]) -> str:
    lines = [f"{'workload':<20} {'metric':<15} {'median 1':>12} "
             f"{'median 2':>12} {'spread 1':>9} {'spread 2':>9} "
             f"{'gap':>8} {'bound':>6}"]
    for row in analysis["rows"]:
        flag = "" if row["within_bound"] else "  <-- OUT OF BOUND"
        lines.append(
            f"{row['workload']:<20} {row['metric']:<15} "
            f"{row['set1']['median']:>12.4f} {row['set2']['median']:>12.4f} "
            f"{row['spread'][0] * 100:>8.2f}% {row['spread'][1] * 100:>8.2f}% "
            f"{row['gap'] * 100:>+7.2f}% {row['bound'] * 100:>5.0f}%{flag}")
    lines.append("A/A " + ("ok: every gap and spread is within its bound, "
                           "digests and failure counts repeat"
                           if analysis["ok"] else "FAILED"))
    return "\n".join(lines)


def main(argv: Sequence[str]) -> int:
    parser = argparse.ArgumentParser(prog="python -m bench aa")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--workload", action="append", default=None)
    parser.add_argument("--output", default=None)
    args = parser.parse_args(list(argv))
    if args.runs < 2:
        parser.error("--runs must be at least 2 (quartiles need two values)")
    add_src()
    from bench.workloads import WORKLOADS

    contract = load_contract()
    seconds = (args.seconds if args.seconds is not None
               else float(contract["run_seconds"]))
    workloads = args.workload or list(WORKLOADS)
    host = host_metadata()
    sets = run_sets(args.runs, args.seed, seconds, workloads)
    analysis = analyse(sets, contract)
    print(render(analysis))
    if args.output:
        os.makedirs(os.path.dirname(os.path.abspath(args.output)) or ".",
                    exist_ok=True)
        with open(args.output, "w", encoding="utf-8") as handle:
            json.dump({"host": host, "runs_per_set": args.runs,
                       "first_seed": args.seed, "seconds": seconds,
                       "analysis": analysis, "sets": sets},
                      handle, indent=1, sort_keys=True)
            handle.write("\n")
    return 0 if analysis["ok"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
