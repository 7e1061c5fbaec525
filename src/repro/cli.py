"""Command-line interface: ``python -m repro <command>``.

Gives operators the paper's experiments without writing code:

* ``faults`` — inject a named fault (or the whole catalog) and report
  detection/attribution.
* ``throughput`` — the Fig 4f/4g cluster-throughput sweep.
* ``report`` — the operator artifact: one run with every observer on
  (``--fault NAME`` injects a catalog fault), saved as one
  ``jury-report`` JSON file (``--output``) and rendered for humans — the
  validation summary (triggers decided, alarms, false-alarm rate, the
  window's PACKET_IN/FLOW_MOD rates and the Fig 4a/4c detection-time
  distribution), cluster state, per-alarm forensics (failed Algorithm-1 check,
  dissenting replicas, field-level diffs, T1/T2/T3 fault class), replica
  health and SLOs, the flight ring, the metrics registry, and the traced
  triggers. A QUERY (``ext:42`` or ``A0001``) shows one trigger's
  lifecycle with every explanation for it; ``--input`` renders a saved
  report the same way; ``--format prom`` prints the Prometheus text
  exposition (see ``docs/observability.md``).
* ``trace-diff`` — align the traces of two report files by (time,
  trigger, stage) and pinpoint the first divergence (exit 0 identical,
  1 diverged).
* ``fuzz`` — seeded scenario fuzzing: generate scenarios, check the
  differential-oracle invariants, shrink counterexamples, and replay the
  regression corpus (see ``docs/fuzzing.md``).
* ``soak`` — crash-recovery soak: a worker process runs a long seeded
  workload with a file-backed WAL and periodic checkpoints, SIGKILLs
  itself mid-run, and the parent restores + replays and byte-compares
  against an uninterrupted run under an RSS ceiling
  (see ``docs/recovery.md``).
* ``list-faults`` — show the fault catalog.
* ``analyze`` — static determinism/taint-safety analysis of controller and
  app code, and the P-rule lint of every policy XML file it is given (the
  CI gate; see ``docs/static_analysis.md``).

Every subcommand builds its experiment through one
:class:`~repro.config.JuryConfig` and returns a
:class:`~repro.harness.reporting.CommandResult`; ``--format json`` prints
the structured payload instead of the human tables, and the exit-code
contract is uniform: 0 ok, 1 findings-or-failure, 2 usage/config error.
Every deployment validates through the sequential
:class:`~repro.core.validator.Validator`. Simulation commands accept
``--config file.json`` to load the whole config from JSON through the
validated :meth:`~repro.config.JuryConfig.from_dict` path.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List, Optional

from repro.api import Jury
from repro.config import JuryConfig
from repro.errors import ValidationError
from repro.faults import CATALOG
from repro.faults.base import run_scenario
from repro.harness.reporting import CommandResult, format_table, render_result
from repro.workloads.traffic import TrafficDriver


def _load_config_file(path: str) -> JuryConfig:
    """``--config file.json`` → a validated :class:`JuryConfig`.

    Routed through :meth:`JuryConfig.from_dict`, the one construction path
    for every serialized config source; unknown keys fail with a
    did-you-mean hint and surface as usage errors (exit 2).
    """
    try:
        with open(path, encoding="utf-8") as handle:
            payload = json.load(handle)
    except OSError as exc:
        raise ValidationError(f"--config {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ValidationError(
            f"--config {path}: invalid JSON ({exc})") from None
    return JuryConfig.from_dict(payload)


def _config_from_args(args, fault: Optional[str] = None,
                      observe: bool = False) -> JuryConfig:
    """One place where argparse namespaces become a :class:`JuryConfig`.

    ``--config`` replaces the experiment flags. A catalog ``fault`` sets
    the kind (the class's ``kind``, ``list-faults``' controller column)
    over either source, and a command that reads the observers
    (``report``) turns them on over either source.
    """
    if args.config is not None:
        config = _load_config_file(args.config)
    else:
        config = JuryConfig(
            kind=args.controller, n=args.nodes, k=args.replicas,
            switches=args.switches, seed=args.seed,
            timeout_ms=args.timeout,  # None → the paper default for the kind
            policies=("default",), with_northbound=True)
    changes = {"observe": True} if observe else {}
    if fault is not None:
        changes["kind"] = CATALOG[fault].kind
    return config.replace(**changes)


def _build(args, fault: Optional[str] = None, observe: bool = False):
    experiment = Jury.experiment(
        _config_from_args(args, fault=fault, observe=observe))
    experiment.warmup()
    return experiment


def _drive_traffic(experiment, args, settle_ms: float = 600.0) -> None:
    driver = TrafficDriver(experiment.sim, experiment.topology,
                           packet_in_rate_per_s=args.rate,
                           duration_ms=args.duration)
    driver.start()
    experiment.begin_window()
    experiment.run(args.duration + settle_ms)


def cmd_faults(args) -> CommandResult:
    names: List[str] = args.names or sorted(CATALOG)
    unknown = [n for n in names if n not in CATALOG]
    if unknown:
        return CommandResult.usage_error(
            "faults", f"unknown fault(s): {', '.join(unknown)}")
    entries = []
    for name in names:
        result = run_scenario(_build(args, fault=name), CATALOG[name]())
        alarm = result.matching_alarms[0] if result.matching_alarms else None
        entries.append({
            "fault": name,
            "detected": result.detected,
            "mechanism": alarm.reason.value if alarm else None,
            "detection_ms": result.detection_ms,
            "blamed": alarm.offending_controller if alarm else None,
        })
    failures = sum(not entry["detected"] for entry in entries)
    rows = [[entry["fault"], "YES" if entry["detected"] else "NO",
             entry["mechanism"] or "-",
             f"{entry['detection_ms']:.0f} ms" if entry["detection_ms"]
             else "-", entry["blamed"] or "-"] for entry in entries]
    human = format_table("Fault detection",
                         ["fault", "detected", "mechanism", "latency",
                          "blamed"], rows)
    return CommandResult(
        command="faults", exit_code=1 if failures else 0, human=human,
        data={"command": "faults", "results": entries,
              "undetected": failures})


def cmd_throughput(args) -> CommandResult:
    # A vanilla (k=None) cluster of each swept size n; kind, switches, seed
    # and profile overrides come from the flags or the --config file.
    base = _config_from_args(args).replace(k=None)
    rows = []
    points = []
    for n in args.cluster_sizes:
        experiment = Jury.experiment(base.replace(n=n))
        experiment.warmup()
        _drive_traffic(experiment, args, settle_ms=0.0)
        point = experiment.throughput()
        points.append({"n": n,
                       "packet_in_rate_per_s": point.packet_in_rate_per_s,
                       "flow_mod_rate_per_s": point.flow_mod_rate_per_s,
                       "packet_out_rate_per_s": point.packet_out_rate_per_s})
        rows.append([f"n={n}", f"{point.packet_in_rate_per_s:.0f}",
                     f"{point.flow_mod_rate_per_s:.0f}",
                     f"{point.packet_out_rate_per_s:.0f}"])
    human = format_table(
        f"{base.kind} cluster throughput @ requested "
        f"{args.rate:.0f} PACKET_IN/s",
        ["cluster", "PACKET_IN/s", "FLOW_MOD/s", "PACKET_OUT/s"], rows)
    return CommandResult.ok("throughput", human=human,
                            data={"command": "throughput", "points": points})


def cmd_report(args) -> CommandResult:
    from repro.harness.inspect import (
        build_report,
        dump_report,
        load_report,
        report_text,
    )

    experiment = None
    if args.input is not None:
        if args.fault is not None:
            return CommandResult.usage_error(
                "report", "report: --input renders a saved report and "
                          "cannot be combined with --fault")
        if args.format == "prom":
            return CommandResult.usage_error(
                "report", "report: --format prom needs a live run, "
                          "not --input")
        try:
            payload = load_report(args.input)
        except (OSError, ValueError) as exc:
            return CommandResult.usage_error("report", f"report: {exc}")
    else:
        if args.fault is not None and args.fault not in CATALOG:
            return CommandResult.usage_error(
                "report", f"report: unknown fault {args.fault!r} "
                          f"(see list-faults)")
        experiment = _build(args, fault=args.fault, observe=True)
        if args.fault is not None:
            run_scenario(experiment, CATALOG[args.fault]())
        else:
            _drive_traffic(experiment, args)
        payload = build_report(experiment)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(dump_report(payload) + "\n")
    if args.format == "prom":
        # Prometheus text is its own exposition format, not a table: render
        # it verbatim through the "human" channel.
        text = experiment.jury.prometheus_text()
        return CommandResult.ok("report", human=text.rstrip("\n"),
                                data=payload)
    try:
        human = report_text(payload, args.query)
    except (LookupError, TypeError, ValueError) as exc:
        return CommandResult.usage_error("report", f"report: {exc}")
    return CommandResult.ok("report", human=human, data=payload)


def cmd_trace_diff(args) -> CommandResult:
    from repro.harness.inspect import load_report
    from repro.obs.diff import diff_payloads, first_divergence_detail

    try:
        left, right = load_report(args.left), load_report(args.right)
        for path, report in ((args.left, left), (args.right, right)):
            if "trace" not in report:
                raise ValueError(f"{path}: report has no trace section")
        diff = diff_payloads(left["trace"], right["trace"])
    except (OSError, ValueError) as exc:
        return CommandResult.usage_error("trace-diff", f"trace-diff: {exc}")

    data = {"command": "trace-diff", "left": args.left, "right": args.right,
            **diff.to_dict(limit=args.limit)}
    human = diff.render(limit=args.limit)
    if diff.identical:
        return CommandResult.ok("trace-diff", human=human, data=data)
    return CommandResult(command="trace-diff", exit_code=1, human=human,
                         data=data,
                         errors=[f"trace-diff: {first_divergence_detail(diff)}"])


def cmd_analyze(args) -> CommandResult:
    # Imported lazily: the analyzer is stdlib-only and must stay usable in
    # minimal environments, but the other commands shouldn't pay for it.
    from repro.analysis import (
        Severity,
        analyze_paths,
        render_human,
        render_json,
        render_rule_list,
    )

    if args.list_rules:
        return CommandResult.ok("analyze", human=render_rule_list(),
                                data={"command": "analyze",
                                      "rules": render_rule_list()})
    if not args.paths:
        return CommandResult.usage_error(
            "analyze", "analyze: at least one PATH is required")
    fail_on = Severity.parse(args.fail_on)
    try:
        report = analyze_paths(args.paths)
    except FileNotFoundError as exc:
        return CommandResult.usage_error("analyze", f"analyze: {exc}")
    if not report.files_scanned:  # a policy gate must not pass vacuously
        return CommandResult.usage_error(
            "analyze", "analyze: no Python file under the paths and no "
                       ".xml policy file named explicitly")

    failed = bool(report.count_at_least(fail_on))
    return CommandResult(
        command="analyze", exit_code=1 if failed else 0,
        human=render_human(report, fail_on),
        data=json.loads(render_json(report, fail_on)))


def _fuzz_corpus_result(args) -> CommandResult:
    """``fuzz --replay``: re-run every saved corpus entry."""
    from repro.fuzz import default_corpus_dir, load_corpus, replay_entry

    directory = args.corpus if args.corpus else default_corpus_dir()
    try:
        entries = load_corpus(directory)
    except ValidationError as exc:
        return CommandResult.usage_error("fuzz", f"fuzz: {exc}")
    if not entries:
        return CommandResult.usage_error(
            "fuzz", f"fuzz: no corpus entries under {directory}")
    rows, outcomes, mismatches = [], [], 0
    for entry in entries:
        outcome = replay_entry(entry)
        if not outcome.matched:
            mismatches += 1
        rows.append([entry.name,
                     ",".join(entry.expect) or "-",
                     ",".join(outcome.report.codes()) or "-",
                     "ok" if outcome.matched else "MISMATCH"])
        outcomes.append({"name": entry.name,
                         "expect": list(entry.expect),
                         "actual": list(outcome.report.codes()),
                         "matched": outcome.matched,
                         "detail": outcome.detail,
                         "artifacts": sorted(outcome.report.artifacts)})
    human = format_table(f"corpus replay — {directory}",
                         ["entry", "expect", "actual", "status"], rows)
    errors = [f"fuzz: {o['name']}: {o['detail']}"
              for o in outcomes if not o["matched"]]
    return CommandResult(
        command="fuzz", exit_code=2 if mismatches else 0, human=human,
        data={"command": "fuzz", "mode": "replay",
              "corpus": str(directory), "entries": outcomes,
              "mismatches": mismatches},
        errors=errors)


def cmd_fuzz(args) -> CommandResult:
    import time

    from repro.fuzz import CorpusEntry, run_campaign, save_entry

    if args.replay:
        return _fuzz_corpus_result(args)
    if args.runs <= 0:
        return CommandResult.usage_error("fuzz", "fuzz: --runs must be >= 1")

    progress_lines: List[str] = []

    def on_progress(report):
        status = "ok" if report.ok else ",".join(report.codes())
        progress_lines.append(
            f"seed {report.spec.seed}: {status}  "
            f"[{report.spec.describe()}]")

    result = run_campaign(
        base_seed=args.seed, runs=args.runs,
        shrink=args.shrink, shrink_budget=args.shrink_budget,
        time_budget_s=args.time_budget,
        clock=time.monotonic if args.time_budget is not None else None,
        on_progress=on_progress)

    lines = progress_lines if args.verbose else []
    summary = (f"{result.completed_runs}/{result.requested_runs} scenarios "
               f"from seed {args.seed}: "
               f"{len(result.counterexamples)} counterexample(s)")
    if result.budget_exhausted:
        summary += f"  (time budget {args.time_budget:.0f}s exhausted)"
    lines.append(summary)
    errors = []
    for counterexample in result.counterexamples:
        minimal = counterexample.minimal_spec
        lines.append(f"counterexample seed {counterexample.seed}: "
                     f"{','.join(counterexample.report.codes())}")
        lines.append(f"  original : {counterexample.spec.describe()}")
        lines.append(f"  minimized: {minimal.describe()}")
        lines.append(f"  repro    : {minimal.canonical_json()}")
        errors.append(
            f"fuzz: surviving counterexample at seed {counterexample.seed} "
            f"(shrunk: {minimal.describe()})")
        if args.save_failing:
            entry = CorpusEntry(
                name=f"fuzz-seed-{counterexample.seed}",
                spec=minimal,
                expect=counterexample.report.codes(),
                notes=f"found by fuzz --seed {args.seed} "
                      f"--runs {args.runs}; shrunk from seed "
                      f"{counterexample.seed}")
            path = save_entry(entry, args.save_failing)
            lines.append(f"  saved    : {path}")
            for name, suffix in (("trace_diff", "diff"), ("flight", "flight")):
                artifact = counterexample.report.artifacts.get(name)
                if artifact is None:
                    continue
                artifact_path = path.with_suffix(f".{suffix}.json")
                artifact_path.write_text(
                    json.dumps(artifact, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")
                lines.append(f"  artifact : {artifact_path}")
    return CommandResult(
        command="fuzz",
        exit_code=2 if result.counterexamples else 0,
        human="\n".join(lines),
        data={"command": "fuzz", "mode": "campaign", **result.to_dict()},
        errors=errors)


def cmd_soak(args) -> CommandResult:
    import tempfile

    from repro.errors import CheckpointError
    from repro.harness.soak import CHECKPOINT_FILE, run_soak

    kill_at = args.kill_at
    if kill_at is None:
        kill_at = args.duration / 2.0
    elif kill_at <= 0:
        kill_at = None  # explicit 0 (or negative) disables the kill

    workdir = args.workdir or tempfile.mkdtemp(prefix="jury-soak-")
    os.makedirs(workdir, exist_ok=True)
    try:
        payload = run_soak(
            duration_s=args.duration,
            kill_at_s=kill_at,
            checkpoint_every=args.checkpoint_every,
            rate_per_s=args.rate,
            k=args.replicas,
            timeout_ms=args.timeout,
            seed=args.seed,
            max_rss_mb=args.max_rss_mb,
            workdir=workdir)
    except CheckpointError as exc:
        return CommandResult.usage_error("soak", f"soak: {exc}")

    if args.checkpoint_output:
        source = os.path.join(workdir, CHECKPOINT_FILE)
        with open(source, "rb") as src, \
                open(args.checkpoint_output, "wb") as dst:
            dst.write(src.read())
        payload["checkpoint_output"] = args.checkpoint_output

    checkpoint = payload["checkpoint"]
    lines = [
        f"soak: {payload['triggers']} triggers over {args.duration:g}s "
        f"simulated at {args.rate:g}/s",
        "  kill     : "
        + (f"SIGKILL at t={kill_at:g}s (worker exit "
           f"{payload['worker_exitcode']})" if kill_at else "disabled"),
        f"  snapshot : {checkpoint['sha256'][:12]}… "
        f"{checkpoint['body_bytes']} bytes at "
        f"t={checkpoint['sim_now_ms']:.0f}ms "
        f"({checkpoint['triggers_decided']} decided)",
        f"  recovery : WAL tail {payload['wal_tail_replayed']} replayed, "
        f"{payload['resumed_records']} resumed, "
        f"streams identical: {payload['alarm_streams_identical']}",
        f"  memory   : worker peak RSS "
        f"{payload['worker_peak_rss_kb'] / 1024.0:.1f} MiB "
        f"(ceiling {args.max_rss_mb:g} MiB)",
    ]
    for failure in payload["failures"]:
        lines.append(f"  FAIL     : {failure}")
    lines.append("soak: OK" if payload["ok"] else "soak: FAILED")
    return CommandResult(
        command="soak",
        exit_code=0 if payload["ok"] else 1,
        human="\n".join(lines),
        data=payload,
        errors=[] if payload["ok"] else
        [f"soak: {failure}" for failure in payload["failures"]])


def cmd_list_faults(args) -> CommandResult:
    rows = [[name, cls.fault_class.value, cls.kind]
            for name, cls in sorted(CATALOG.items())]
    human = format_table("Fault catalog", ["name", "class", "controller"],
                         rows)
    data = {"command": "list-faults",
            "faults": [{"name": r[0], "class": r[1], "controller": r[2]}
                       for r in rows]}
    return CommandResult.ok("list-faults", human=human, data=data)


def _add_format(parser: argparse.ArgumentParser, extra=()) -> None:
    parser.add_argument("--format", choices=("human", "json") + tuple(extra),
                        default="human", help="report format")


def _add_common(parser: argparse.ArgumentParser, format_extra=()) -> None:
    parser.add_argument("--controller", choices=("onos", "odl"),
                        default="onos")
    parser.add_argument("--nodes", "-n", type=int, default=7)
    parser.add_argument("--replicas", "-k", type=int, default=6)
    parser.add_argument("--switches", type=int, default=12)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--timeout", type=float, default=None,
                        help="validation timeout in ms")
    parser.add_argument("--rate", type=float, default=1500.0,
                        help="target PACKET_IN rate per second")
    parser.add_argument("--duration", type=float, default=1000.0,
                        help="traffic window in simulated ms")
    parser.add_argument("--config", default=None, metavar="CONFIG.json",
                        help="build the JuryConfig from this JSON file "
                             "instead of the flags above")
    _add_format(parser, extra=format_extra)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="JURY (DSN 2016) reproduction command-line interface")
    commands = parser.add_subparsers(dest="command", required=True)

    faults = commands.add_parser("faults", help="inject faults from the catalog")
    _add_common(faults)
    faults.add_argument("names", nargs="*",
                        help="fault names (default: the whole catalog)")
    faults.set_defaults(fn=cmd_faults)

    throughput = commands.add_parser(
        "throughput", help="cluster FLOW_MOD throughput sweep (Fig 4f/4g)")
    _add_common(throughput)
    throughput.add_argument("--cluster-sizes", type=int, nargs="+",
                            default=[1, 3, 7])
    throughput.set_defaults(fn=cmd_throughput)

    report = commands.add_parser(
        "report",
        help="one run, one artifact: validation summary and detection "
             "times, cluster, alarms explained, replica health and SLOs, "
             "flight ring, metrics and trace")
    _add_common(report, format_extra=("prom",))
    report.add_argument("query", nargs="?", default=None, metavar="QUERY",
                        help="a trigger (ext:42, ('ext', 42), a substring) "
                             "or alarm id (A0001): show its lifecycle and "
                             "every explanation for it")
    report.add_argument("--fault", default=None, metavar="NAME",
                        help="inject this catalog fault instead of "
                             "driving plain traffic (on the fault's kind)")
    report.add_argument("--input", default=None, metavar="REPORT.json",
                        help="render a saved report instead of running")
    report.add_argument("--output", default=None, metavar="REPORT.json",
                        help="also write the report as sorted-key JSON")
    report.set_defaults(fn=cmd_report)

    trace_diff = commands.add_parser(
        "trace-diff",
        help="align the traces of two report files by (time, trigger, "
             "stage) and pinpoint the first divergence (exit 0 identical, "
             "1 diverged)")
    trace_diff.add_argument("left", metavar="A.json",
                            help="left report file (the reference)")
    trace_diff.add_argument("right", metavar="B.json",
                            help="right report file (the candidate)")
    trace_diff.add_argument("--limit", type=int, default=10,
                            help="differing slots shown/embedded")
    _add_format(trace_diff)
    trace_diff.set_defaults(fn=cmd_trace_diff)

    fuzz = commands.add_parser(
        "fuzz",
        help="seeded scenario fuzzing with differential oracles "
             "(exit 0 clean, 2 on a surviving counterexample)")
    fuzz.add_argument("--seed", type=int, default=0,
                      help="base seed; run i uses seed+i")
    fuzz.add_argument("--runs", type=int, default=20,
                      help="scenarios to generate and check")
    fuzz.add_argument("--time-budget", type=float, default=None,
                      metavar="SECONDS",
                      help="stop starting new scenarios after this much "
                           "wall-clock time")
    shrink_group = fuzz.add_mutually_exclusive_group()
    shrink_group.add_argument("--shrink", dest="shrink",
                              action="store_true", default=True,
                              help="minimize counterexamples (default)")
    shrink_group.add_argument("--no-shrink", dest="shrink",
                              action="store_false",
                              help="report counterexamples unshrunk")
    fuzz.add_argument("--shrink-budget", type=int, default=40,
                      metavar="EVALS",
                      help="max oracle evaluations per shrink")
    fuzz.add_argument("--corpus", default=None, metavar="DIR",
                      help="corpus directory for --replay "
                           "(default: tests/corpus)")
    fuzz.add_argument("--replay", action="store_true",
                      help="replay the regression corpus instead of "
                           "generating new scenarios")
    fuzz.add_argument("--save-failing", default=None, metavar="DIR",
                      help="save shrunk counterexamples as corpus entries "
                           "into DIR")
    fuzz.add_argument("--verbose", action="store_true",
                      help="print one line per scenario")
    _add_format(fuzz)
    fuzz.set_defaults(fn=cmd_fuzz)

    soak = commands.add_parser(
        "soak",
        help="crash-recovery soak: long seeded workload in a worker "
             "process, hard SIGKILL mid-run, restore from the on-disk "
             "checkpoint + WAL, byte-compare against an uninterrupted "
             "run, and enforce a peak-RSS ceiling (docs/recovery.md)")
    soak.add_argument("--duration", type=float, default=60.0,
                      metavar="SECONDS",
                      help="simulated seconds of traffic (wall time is "
                           "however fast the host replays it)")
    soak.add_argument("--kill-at", type=float, default=None,
                      metavar="SECONDS",
                      help="simulated second at which the worker SIGKILLs "
                           "itself (default: duration/2; 0 disables the "
                           "kill — the worker must then exit cleanly)")
    soak.add_argument("--checkpoint-every", type=int, default=200,
                      metavar="TRIGGERS",
                      help="auto-checkpoint after this many decided "
                           "triggers")
    soak.add_argument("--max-rss-mb", type=float, default=512.0,
                      help="fail if the worker's peak RSS exceeds this")
    soak.add_argument("--rate", type=float, default=200.0,
                      help="triggers per simulated second")
    soak.add_argument("--replicas", "-k", type=int, default=3)
    soak.add_argument("--timeout", type=float, default=250.0,
                      help="validation timeout in ms")
    soak.add_argument("--seed", type=int, default=0)
    soak.add_argument("--workdir", default=None, metavar="DIR",
                      help="directory for the WAL and checkpoint artifacts "
                           "(default: a fresh temp dir)")
    soak.add_argument("--checkpoint-output", default=None,
                      metavar="CHECKPOINT.json",
                      help="also copy the final checkpoint artifact here "
                           "(the CI-uploaded sample)")
    _add_format(soak)
    soak.set_defaults(fn=cmd_soak)

    list_faults = commands.add_parser("list-faults", help="show the catalog")
    _add_format(list_faults)
    list_faults.set_defaults(fn=cmd_list_faults)

    analyze = commands.add_parser(
        "analyze",
        help="static analysis: per-file D/T/S/H rules, cross-module X rules "
             "over the project call graph, and P rules over policy XML")
    analyze.add_argument("paths", nargs="*", metavar="PATH",
                         help="files or directories to analyze; explicit "
                              ".xml files are linted as policy documents "
                              "(P604 only when Python code is analyzed too)")
    _add_format(analyze)
    analyze.add_argument(
        "--fail-on", choices=("warning", "error"), default="error",
        help="exit non-zero when findings at/above this severity exist")
    analyze.add_argument("--list-rules", action="store_true",
                         help="print the rule catalog and exit")
    analyze.set_defaults(fn=cmd_analyze)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        result = args.fn(args)
    except ValidationError as exc:
        # Config mistakes (bad --config file, removed-API calls) are usage errors: exit 2, like argparse's own.
        result = CommandResult.usage_error(
            getattr(args, "command", None) or "repro", str(exc))
    fmt = getattr(args, "format", "human")
    # "prom" output is pre-rendered exposition text in result.human.
    return render_result(result, "human" if fmt == "prom" else fmt)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__.py
    sys.exit(main())
