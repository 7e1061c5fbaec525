"""Command-line interface: ``python -m repro <command>``.

Gives operators the paper's experiments without writing code:

* ``validate`` — run a JURY-enhanced cluster under traffic and report
  validation statistics (the quickstart as a command).
* ``faults`` — inject a named fault (or the whole catalog) and report
  detection/attribution.
* ``throughput`` — the Fig 4f/4g cluster-throughput sweep.
* ``detection`` — the Fig 4a/4c detection-time distribution.
* ``trace`` — reconstruct one trigger's lifecycle (intercept → replicate →
  ingest → Algorithm-1 checks → alarm/accept) from a live run or a trace
  JSON file (see ``docs/observability.md``).
* ``trace-diff`` — align two canonical trace files by (time, trigger,
  stage) and pinpoint the first divergence (exit 0 identical, 1 diverged).
* ``metrics`` — run under traffic and dump the metrics registry
  (``--format prom`` for the Prometheus text exposition).
* ``diagnose`` — per-alarm forensics: the failed Algorithm-1 check,
  dissenting replicas, field-level cache/network diffs, and the inferred
  T1/T2/T3 fault class, live or offline from recorded
  alarm-log/trace files.
* ``health`` — rolling-window replica health scores (with hysteresis on
  the suspected-faulty flag) and SLO rule status.
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
  app code (the CI gate; see ``docs/static_analysis.md``).

Every subcommand builds its experiment through one
:class:`~repro.config.JuryConfig` and returns a
:class:`~repro.harness.reporting.CommandResult`; ``--format json`` prints
the structured payload instead of the human tables, and the exit-code
contract is uniform: 0 ok, 1 findings-or-failure, 2 usage/config error.
Simulation commands accept ``--pipeline N`` to validate through the
sharded :class:`~repro.core.pipeline.ValidationPipeline` instead of the
sequential validator, ``--backend serial|threads|processes`` to pick its
execution backend (see ``docs/backends.md``), and ``--config file.json``
to load the whole config from JSON through the validated
:meth:`~repro.config.JuryConfig.from_dict` path.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Callable, Dict, List, Optional

from repro.api import Jury
from repro.config import JuryConfig
from repro.faults import (
    CrashFault,
    StoreDesyncFault,
    FaultyProactiveFault,
    FlowDeletionFailureFault,
    FlowInstantiationFailureFault,
    LinkDetectionInconsistencyFault,
    LinkFailureFault,
    OdlFlowModDropFault,
    OdlIncorrectFlowModFault,
    OnosDatabaseLockFault,
    OnosMasterElectionFault,
    PendingAddFault,
    ResponseCorruptionFault,
    ResponseOmissionFault,
    TimingFault,
    UndesirableFlowModFault,
)
from repro.faults.base import run_scenario
from repro.harness.figures import ascii_cdf
from repro.harness.reporting import CommandResult, format_table, render_result
from repro.workloads.traffic import TrafficDriver

FAULTS: Dict[str, Callable] = {
    "onos-database-locking": lambda: OnosDatabaseLockFault("c1"),
    "onos-master-election": lambda: OnosMasterElectionFault(1, 2),
    "onos-link-detection": lambda: LinkDetectionInconsistencyFault(2, 3),
    "onos-pending-add": lambda: PendingAddFault(4),
    "odl-flow-mod-drop": lambda: OdlFlowModDropFault("c1"),
    "odl-incorrect-flow-mod": lambda: OdlIncorrectFlowModFault("c1"),
    "odl-flow-deletion-failure": lambda: FlowDeletionFailureFault("c1"),
    "odl-flow-instantiation-failure": lambda: FlowInstantiationFailureFault("c1"),
    "link-failure": lambda: LinkFailureFault(1, 2),
    "undesirable-flow-mod": lambda: UndesirableFlowModFault("c2"),
    "faulty-proactive": lambda: FaultyProactiveFault("c3"),
    "crash": lambda: CrashFault("c1"),
    "response-omission": lambda: ResponseOmissionFault("c2"),
    "timing": lambda: TimingFault("c3"),
    "response-corruption": lambda: ResponseCorruptionFault("c1"),
    "store-desync": lambda: StoreDesyncFault("c2"),
}

ODL_FAULTS = {"odl-flow-mod-drop", "odl-incorrect-flow-mod",
              "odl-flow-deletion-failure", "odl-flow-instantiation-failure"}


def _load_config_file(path: str) -> JuryConfig:
    """``--config file.json`` → a validated :class:`JuryConfig`.

    Routed through :meth:`JuryConfig.from_dict`, the one construction path
    for every serialized config source; unknown keys fail with a
    did-you-mean hint and surface as usage errors (exit 2).
    """
    from repro.errors import ValidationError
    try:
        with open(path, encoding="utf-8") as handle:
            payload = json.load(handle)
    except OSError as exc:
        raise ValidationError(f"--config {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ValidationError(
            f"--config {path}: invalid JSON ({exc})") from None
    return JuryConfig.from_dict(payload)


def _config_from_args(args, kind: Optional[str] = None,
                      k: Optional[int] = None,
                      trace: bool = False,
                      metrics: bool = False,
                      diagnose: bool = False,
                      health: bool = False,
                      flight: bool = False) -> JuryConfig:
    """One place where argparse namespaces become a :class:`JuryConfig`."""
    if getattr(args, "config", None) is not None:
        # The file defines the experiment; only the subcommand's own
        # observability needs are OR-merged on top of it.
        base = _load_config_file(args.config)
        overlay = {name: True
                   for name, wanted in (("trace", trace),
                                        ("metrics", metrics),
                                        ("diagnose", diagnose),
                                        ("health", health),
                                        ("flight", flight))
                   if wanted and not getattr(base, name)}
        return base.replace(**overlay) if overlay else base
    kind = kind or args.controller
    return JuryConfig(
        kind=kind,
        n=args.nodes,
        k=args.replicas if k is None else k,
        switches=args.switches,
        seed=args.seed,
        timeout_ms=args.timeout,  # None → the paper default for the kind
        policies=("default",),
        with_northbound=True,
        pipeline=getattr(args, "pipeline", None),
        backend=getattr(args, "backend", None) or "serial",
        trace=trace,
        metrics=metrics,
        diagnose=diagnose,
        health=health,
        flight=flight,
    )


def _build(args, kind: Optional[str] = None, k: Optional[int] = None,
           trace: bool = False, metrics: bool = False,
           diagnose: bool = False, health: bool = False,
           flight: bool = False):
    experiment = Jury.experiment(
        _config_from_args(args, kind=kind, k=k, trace=trace, metrics=metrics,
                          diagnose=diagnose, health=health, flight=flight))
    experiment.warmup()
    return experiment


def _drive_traffic(experiment, args, settle_ms: float = 600.0) -> None:
    driver = TrafficDriver(experiment.sim, experiment.topology,
                           packet_in_rate_per_s=args.rate,
                           duration_ms=args.duration)
    driver.start()
    experiment.begin_window()
    experiment.run(args.duration + settle_ms)


def cmd_validate(args) -> CommandResult:
    experiment = _build(args)
    _drive_traffic(experiment, args)
    validator = experiment.validator
    stats = experiment.detection_stats()
    throughput = experiment.throughput()
    data = {
        "command": "validate",
        "config": experiment.jury.config.describe(),
        "packet_in_rate_per_s": throughput.packet_in_rate_per_s,
        "flow_mod_rate_per_s": throughput.flow_mod_rate_per_s,
        "triggers_validated": validator.triggers_decided,
        "alarms": validator.triggers_alarmed,
        "false_positive_rate": validator.false_positive_rate(),
        "detection_ms": {"median": stats.median, "p95": stats.p95,
                         "count": stats.count},
    }
    human = format_table(
        f"JURY validation — {args.controller} n={args.nodes} k={args.replicas}",
        ["metric", "value"],
        [
            ["PACKET_IN rate", f"{throughput.packet_in_rate_per_s:.0f}/s"],
            ["FLOW_MOD rate", f"{throughput.flow_mod_rate_per_s:.0f}/s"],
            ["triggers validated", validator.triggers_decided],
            ["alarms", validator.triggers_alarmed],
            ["false-positive rate",
             f"{100 * validator.false_positive_rate():.3f}%"],
            ["median detection", f"{stats.median:.1f} ms"],
            ["p95 detection", f"{stats.p95:.1f} ms"],
        ])
    return CommandResult.ok("validate", human=human, data=data)


def cmd_faults(args) -> CommandResult:
    names: List[str] = args.names or sorted(FAULTS)
    unknown = [n for n in names if n not in FAULTS]
    if unknown:
        return CommandResult.usage_error(
            "faults", f"unknown fault(s): {', '.join(unknown)}")
    rows = []
    entries = []
    failures = 0
    for name in names:
        kind = "odl" if name in ODL_FAULTS else "onos"
        experiment = _build(args, kind=kind)
        result = run_scenario(experiment, FAULTS[name]())
        if not result.detected:
            failures += 1
        alarm = result.matching_alarms[0] if result.matching_alarms else None
        entries.append({
            "fault": name,
            "detected": result.detected,
            "mechanism": alarm.reason.value if alarm else None,
            "detection_ms": result.detection_ms,
            "blamed": alarm.offending_controller if alarm else None,
        })
        rows.append([
            name,
            "YES" if result.detected else "NO",
            alarm.reason.value if alarm else "-",
            f"{result.detection_ms:.0f} ms" if result.detection_ms else "-",
            alarm.offending_controller if alarm else "-",
        ])
    human = format_table("Fault detection",
                         ["fault", "detected", "mechanism", "latency",
                          "blamed"], rows)
    return CommandResult(
        command="faults", exit_code=1 if failures else 0, human=human,
        data={"command": "faults", "results": entries,
              "undetected": failures})


def cmd_throughput(args) -> CommandResult:
    rows = []
    points = []
    for n in args.cluster_sizes:
        experiment = Jury.experiment(JuryConfig(
            kind=args.controller, n=n, k=None, switches=args.switches,
            seed=args.seed))
        experiment.warmup()
        driver = TrafficDriver(experiment.sim, experiment.topology,
                               packet_in_rate_per_s=args.rate,
                               duration_ms=args.duration)
        driver.start()
        experiment.begin_window()
        experiment.run(args.duration)
        point = experiment.throughput()
        points.append({"n": n,
                       "packet_in_rate_per_s": point.packet_in_rate_per_s,
                       "flow_mod_rate_per_s": point.flow_mod_rate_per_s,
                       "packet_out_rate_per_s": point.packet_out_rate_per_s})
        rows.append([f"n={n}", f"{point.packet_in_rate_per_s:.0f}",
                     f"{point.flow_mod_rate_per_s:.0f}",
                     f"{point.packet_out_rate_per_s:.0f}"])
    human = format_table(
        f"{args.controller} cluster throughput @ requested "
        f"{args.rate:.0f} PACKET_IN/s",
        ["cluster", "PACKET_IN/s", "FLOW_MOD/s", "PACKET_OUT/s"], rows)
    return CommandResult.ok("throughput", human=human,
                            data={"command": "throughput", "points": points})


def cmd_detection(args) -> CommandResult:
    experiment = _build(args)
    driver = TrafficDriver(experiment.sim, experiment.topology,
                           packet_in_rate_per_s=args.rate,
                           duration_ms=args.duration)
    driver.start()
    experiment.run(args.duration + 600.0)
    stats = experiment.detection_stats()
    human = (f"{stats.count} detections  median={stats.median:.1f} ms  "
             f"p95={stats.p95:.1f} ms  p99={stats.p99:.1f} ms\n\n"
             + ascii_cdf({f"k={args.replicas}": stats.samples}))
    data = {
        "command": "detection",
        "count": stats.count,
        "median_ms": stats.median,
        "p95_ms": stats.p95,
        "p99_ms": stats.p99,
        "samples_ms": stats.samples,
    }
    return CommandResult.ok("detection", human=human, data=data)


def _live_tracer(args):
    """Run a traced experiment and return its tracer (the live path)."""
    experiment = _build(args, trace=True)
    _drive_traffic(experiment, args)
    return experiment.jury.tracer


def cmd_trace(args) -> CommandResult:
    from repro.obs.trace import dump_trace, load_trace, match_trigger_key

    if args.input is not None:
        try:
            tracer = load_trace(args.input)
        except (OSError, ValueError) as exc:
            return CommandResult.usage_error("trace", f"trace: {exc}")
    else:
        tracer = _live_tracer(args)
        if args.output:
            dump_trace(tracer, args.output)

    keys = tracer.trigger_keys()
    if args.trigger is None:
        # No query: list what the trace holds.
        shown = keys[:args.limit]
        rows = [[key, tracer.timeline(key).verdict,
                 len(tracer.spans_for(key))] for key in shown]
        human = format_table(
            f"traced triggers ({len(keys)} total, showing {len(shown)})",
            ["trigger", "verdict", "spans"], rows)
        data = {"command": "trace", "trigger_count": len(keys),
                "span_count": len(tracer),
                "stage_counts": tracer.stage_counts(),
                "triggers": [{"trigger": key,
                              "verdict": tracer.timeline(key).verdict}
                             for key in shown]}
        return CommandResult.ok("trace", human=human, data=data)

    key = match_trigger_key(tracer, args.trigger)
    if key is None:
        preview = ", ".join(keys[:5]) or "<trace is empty>"
        return CommandResult.usage_error(
            "trace", f"trace: no traced trigger matches {args.trigger!r} "
                     f"(first keys: {preview})")
    timeline = tracer.timeline(key)
    human = "\n".join([
        format_table(f"trigger {key} — lifecycle",
                     ["t", "stage", "verdict", "detail"], timeline.rows()),
        f"verdict: {timeline.verdict}",
    ])
    data = {
        "command": "trace",
        "trigger": key,
        "verdict": timeline.verdict,
        "started_at": timeline.started_at,
        "decided_at": timeline.decided_at,
        "spans": [{"t": s.at, "stage": s.stage, "verdict": s.verdict,
                   "detail": s.detail, "attrs": dict(s.attrs)}
                  for s in timeline.spans],
    }
    return CommandResult.ok("trace", human=human, data=data)


def cmd_trace_diff(args) -> CommandResult:
    from repro.obs.diff import diff_trace_files, first_divergence_detail

    try:
        diff = diff_trace_files(args.left, args.right)
    except (OSError, ValueError) as exc:
        return CommandResult.usage_error("trace-diff", f"trace-diff: {exc}")

    data = {"command": "trace-diff", "left": args.left, "right": args.right,
            **diff.to_dict(limit=args.limit)}
    if diff.identical:
        human = (f"traces are identical: {diff.common} aligned span(s), "
                 f"no divergence")
        return CommandResult.ok("trace-diff", human=human, data=data)
    human = "\n".join([
        f"traces diverge: {len(diff.entries)} differing slot(s) over "
        f"{diff.common} aligned span(s) "
        f"({diff.left_spans} left / {diff.right_spans} right)",
        first_divergence_detail(diff),
        diff.render(limit=args.limit),
    ])
    return CommandResult(command="trace-diff", exit_code=1, human=human,
                         data=data,
                         errors=[f"trace-diff: {first_divergence_detail(diff)}"])


def cmd_metrics(args) -> CommandResult:
    experiment = _build(args, metrics=True)
    _drive_traffic(experiment, args)
    snapshot = experiment.jury.metrics_snapshot()
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            json.dump(snapshot, handle, indent=2, sort_keys=True)
            handle.write("\n")
    if args.format == "prom":
        # Prometheus text is its own exposition format, not a table: render
        # it verbatim through the "human" channel.
        text = experiment.jury.prometheus_text()
        return CommandResult.ok("metrics", human=text.rstrip("\n"),
                                data={"command": "metrics",
                                      "metrics": snapshot})
    registry = experiment.jury.metrics
    human = format_table(
        f"JURY metrics — {args.controller} n={args.nodes} k={args.replicas}",
        ["metric", "type", "value"], registry.rows())
    return CommandResult.ok("metrics", human=human,
                            data={"command": "metrics", "metrics": snapshot})


def _diagnosis_payload_from_files(args):
    """Offline diagnosis: reconstruct explanations from recorded files."""
    from repro.obs.diagnose import explanations_from_files

    try:
        return explanations_from_files(args.alarm_log, trace_path=args.trace)
    except (OSError, ValueError) as exc:
        return CommandResult.usage_error("diagnose", f"diagnose: {exc}")


def cmd_diagnose(args) -> CommandResult:
    from repro.obs.diagnose import (
        dump_diagnosis,
        export_explanations,
        find_explanation,
        render_explanations,
    )

    if args.trace is not None and args.alarm_log is None:
        return CommandResult.usage_error(
            "diagnose", "diagnose: --trace needs --alarm-log (the trace "
                        "alone does not carry alarm records)")
    if args.flight_output is not None and args.alarm_log is not None:
        return CommandResult.usage_error(
            "diagnose", "diagnose: --flight-output records a live run and "
                        "cannot be combined with --alarm-log")

    flight_attachment = None
    if args.flight is not None:
        from repro.obs.recorder import load_flight
        try:
            flight_attachment = load_flight(args.flight)
        except (OSError, ValueError) as exc:
            return CommandResult.usage_error("diagnose",
                                             f"diagnose: {exc}")

    if args.alarm_log is not None:
        explanations = _diagnosis_payload_from_files(args)
        if isinstance(explanations, CommandResult):
            return explanations
    else:
        fault = None
        if args.fault is not None:
            if args.fault not in FAULTS:
                return CommandResult.usage_error(
                    "diagnose", f"diagnose: unknown fault {args.fault!r} "
                                f"(see list-faults)")
            fault = FAULTS[args.fault]()
        kind = "odl" if args.fault in ODL_FAULTS else None
        experiment = _build(args, kind=kind, diagnose=True,
                            flight=args.flight_output is not None)
        alarm_log = None
        if args.record_alarm_log:
            from repro.core.alarm_log import AlarmLog
            alarm_log = AlarmLog(experiment.validator)
        if fault is not None:
            run_scenario(experiment, fault)
        else:
            _drive_traffic(experiment, args)
        if alarm_log is not None:
            from repro.core.alarm_log import dump_alarm_log
            dump_alarm_log(alarm_log, args.record_alarm_log)
        if args.flight_output is not None:
            from repro.obs.recorder import dump_flight
            jury = experiment.jury
            dump_flight(jury.recorder, args.flight_output,
                        now=experiment.sim.now, metrics=jury.metrics)
        explanations = experiment.jury.forensics.explanations()

    payload = export_explanations(explanations)
    if flight_attachment is not None:
        payload["flight"] = flight_attachment
    if args.output:
        dump_diagnosis(payload, args.output)

    if args.alarm is not None:
        match = find_explanation(explanations, args.alarm)
        if match is None:
            known = ", ".join(
                entry["id"] for entry in payload["alarms"][:5]) or "<none>"
            return CommandResult.usage_error(
                "diagnose", f"diagnose: no alarm matches {args.alarm!r} "
                            f"(first ids: {known})")
        explanation_id, explanation = match
        human = explanation.render(explanation_id)
        data = {"command": "diagnose", "alarm": explanation_id,
                "explanation": explanation.to_dict()}
        return CommandResult.ok("diagnose", human=human, data=data)

    human = render_explanations(explanations)
    if flight_attachment is not None:
        from repro.obs.recorder import render_flight
        human = "\n".join([human, render_flight(flight_attachment)])
    data = {"command": "diagnose", **payload}
    return CommandResult.ok("diagnose", human=human, data=data)


def cmd_health(args) -> CommandResult:
    experiment = _build(args, metrics=True, health=True)
    _drive_traffic(experiment, args)
    jury = experiment.jury

    if args.output:
        from repro.obs.export import health_jsonl
        reports = jury.health.evaluate(experiment.sim.now)
        statuses = None
        if jury.slo is not None and jury.metrics is not None:
            from repro.obs.metrics import collect_deployment
            collect_deployment(jury.metrics, jury)
            statuses = jury.slo.evaluate(jury.metrics, experiment.sim.now)
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(health_jsonl(reports, slo_statuses=statuses,
                                      now=experiment.sim.now))

    if args.format == "prom":
        text = jury.prometheus_text()
        snapshot = jury.health_snapshot()
        return CommandResult.ok("health", human=text.rstrip("\n"),
                                data={"command": "health", **snapshot})

    snapshot = jury.health_snapshot()
    replica_rows = [
        [r["controller_id"], f"{r['score']:.3f}",
         f"{r['disagreement_rate']:.3f}", f"{r['timeout_miss_rate']:.3f}",
         f"{r['lag_p95_ms']:.1f}", "YES" if r["suspected"] else "no"]
        for r in snapshot["replicas"].values()]
    tables = [format_table(
        f"replica health — {args.controller} n={args.nodes} "
        f"k={args.replicas} @ t={snapshot['time_ms']:.0f} ms",
        ["replica", "score", "disagree", "timeout-miss", "lag p95 (ms)",
         "suspected"], replica_rows)]
    if snapshot.get("slo"):
        slo_rows = [[s["name"], f"{s['value']:.4f}", f"{s['threshold']:.4f}",
                     "ok" if s["ok"] else "BREACH"]
                    for s in snapshot["slo"]]
        tables.append(format_table("SLO rules",
                                   ["rule", "value", "threshold", "status"],
                                   slo_rows))
    human = "\n".join(tables)
    return CommandResult.ok("health", human=human,
                            data={"command": "health", **snapshot})


def cmd_analyze(args) -> CommandResult:
    # Imported lazily: the analyzer is stdlib-only and must stay usable in
    # minimal environments, but the other commands shouldn't pay for it.
    from repro.analysis import (
        AnalysisCache,
        Baseline,
        Severity,
        analyze_paths,
        render_human,
        render_json,
        render_rule_list,
    )
    from repro.analysis.baseline import DEFAULT_BASELINE_PATH

    if args.list_rules:
        return CommandResult.ok("analyze", human=render_rule_list(),
                                data={"command": "analyze",
                                      "rules": render_rule_list()})
    if not args.paths:
        return CommandResult.usage_error(
            "analyze", "analyze: at least one PATH is required")
    fail_on = Severity.parse(args.fail_on)

    baseline_path = args.baseline
    if baseline_path is None and args.write_baseline:
        baseline_path = DEFAULT_BASELINE_PATH
    baseline = None
    if baseline_path is not None and not args.write_baseline:
        try:
            baseline = Baseline.load(baseline_path)
        except FileNotFoundError:
            return CommandResult.usage_error(
                "analyze", f"analyze: baseline file not found: {baseline_path}")
        except ValueError as exc:
            return CommandResult.usage_error("analyze", f"analyze: {exc}")

    cache = None if args.no_cache else AnalysisCache.load(args.cache)
    try:
        report = analyze_paths(args.paths, baseline=baseline,
                               jobs=args.jobs, cache=cache)
    except FileNotFoundError as exc:
        return CommandResult.usage_error("analyze", f"analyze: {exc}")

    if args.write_baseline:
        Baseline.from_findings(report.findings).write(baseline_path)
        return CommandResult.ok(
            "analyze",
            human=f"wrote {len(report.findings)} finding(s) to {baseline_path}",
            data={"command": "analyze", "wrote": len(report.findings),
                  "baseline": str(baseline_path)})

    failed = bool(report.count_at_least(fail_on))
    return CommandResult(
        command="analyze", exit_code=1 if failed else 0,
        human=render_human(report, fail_on),
        data=json.loads(render_json(report, fail_on)))


def cmd_analyze_policy(args) -> CommandResult:
    """Statically verify policy XML (P-rules) before deployment."""
    from repro.analysis import AnalysisReport, Severity, render_human, render_json
    from repro.policy.lint import lint_builtin_policies, lint_policy_file

    if not args.paths and not args.builtin:
        return CommandResult.usage_error(
            "analyze-policy",
            "analyze-policy: give at least one policy file (or --builtin)")
    fail_on = Severity.parse(args.fail_on)

    index = None
    project = args.project
    if project is None and os.path.isdir("src/repro"):
        project = "src/repro"
    if project and project != "none":
        from repro.analysis import (
            build_project_index,
            discover_files,
            extract_module_facts,
        )
        from repro.analysis.registry import ModuleContext
        import ast as ast_mod
        facts = []
        try:
            files = discover_files([project])
        except FileNotFoundError as exc:
            return CommandResult.usage_error(
                "analyze-policy", f"analyze-policy: {exc}")
        for path in files:
            try:
                source = path.read_text(encoding="utf-8")
                tree = ast_mod.parse(source, filename=str(path))
            except (OSError, UnicodeDecodeError, SyntaxError):
                continue  # unparseable project files just shrink the index
            facts.append(extract_module_facts(
                ModuleContext(path=str(path), source=source, tree=tree)))
        index = build_project_index(facts)

    paths = []
    for raw in args.paths:
        if os.path.isdir(raw):
            paths.extend(sorted(
                os.path.join(raw, name) for name in os.listdir(raw)
                if name.endswith(".xml")))
        else:
            paths.append(raw)
    report = AnalysisReport()
    for path in paths:
        report.files_scanned += 1
        report.findings.extend(lint_policy_file(path, index=index))
    if args.builtin:
        report.findings.extend(lint_builtin_policies(index=index))
    report.findings.sort(key=lambda f: f.sort_key())

    failed = bool(report.count_at_least(fail_on))
    return CommandResult(
        command="analyze-policy", exit_code=1 if failed else 0,
        human=render_human(report, fail_on),
        data=json.loads(render_json(report, fail_on)))


def _fuzz_corpus_result(args) -> CommandResult:
    """``fuzz --replay``: re-run every saved corpus entry."""
    from repro.errors import ValidationError
    from repro.fuzz import (
        DifferentialOracle,
        default_corpus_dir,
        load_corpus,
        replay_entry,
    )

    directory = args.corpus if args.corpus else default_corpus_dir()
    try:
        entries = load_corpus(directory)
    except ValidationError as exc:
        return CommandResult.usage_error("fuzz", f"fuzz: {exc}")
    if not entries:
        return CommandResult.usage_error(
            "fuzz", f"fuzz: no corpus entries under {directory}")
    backends = ("serial",)
    if args.backend:
        backends = tuple(dict.fromkeys(("serial",) + tuple(args.backend)))
    oracle = DifferentialOracle(backends=backends)
    rows, outcomes, mismatches = [], [], 0
    for entry in entries:
        outcome = replay_entry(entry, oracle=oracle)
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

    oracle = None
    if args.backend:
        from repro.fuzz import DifferentialOracle
        # Serial stays in the matrix as the reference; the requested
        # backend joins the ENGINE_DIVERGENCE axis.
        backends = tuple(dict.fromkeys(("serial",) + tuple(args.backend)))
        oracle = DifferentialOracle(backends=backends)

    result = run_campaign(
        base_seed=args.seed, runs=args.runs, oracle=oracle,
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

    if args.backend is not None and args.pipeline is None:
        return CommandResult.usage_error(
            "soak", "soak: --backend requires --pipeline N")
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
            shards=args.pipeline,
            backend=args.backend,
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
        f"simulated at {args.rate:g}/s "
        f"({'pipeline N=%d %s' % (args.pipeline, args.backend or 'serial') if args.pipeline else 'sequential validator'})",
        f"  kill     : "
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
    rows = [[name, FAULTS[name]().fault_class.value,
             "odl" if name in ODL_FAULTS else "onos"]
            for name in sorted(FAULTS)]
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
    parser.add_argument("--pipeline", type=int, default=None, metavar="N",
                        help="validate through the sharded pipeline with "
                             "N shards (default: sequential validator)")
    parser.add_argument("--backend",
                        choices=("serial", "threads", "processes"),
                        default=None,
                        help="execution backend for the sharded pipeline "
                             "(requires --pipeline; default: serial)")
    parser.add_argument("--config", default=None, metavar="CONFIG.json",
                        help="build the JuryConfig from this JSON file "
                             "instead of the flags above")
    _add_format(parser, extra=format_extra)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="JURY (DSN 2016) reproduction command-line interface")
    commands = parser.add_subparsers(dest="command", required=True)

    validate = commands.add_parser(
        "validate", help="validate live traffic on a JURY-enhanced cluster")
    _add_common(validate)
    validate.set_defaults(fn=cmd_validate)

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

    detection = commands.add_parser(
        "detection", help="detection-time distribution (Fig 4a/4c)")
    _add_common(detection)
    detection.set_defaults(fn=cmd_detection)

    trace = commands.add_parser(
        "trace", help="reconstruct one trigger's validation lifecycle")
    _add_common(trace)
    trace.add_argument("trigger", nargs="?", default=None,
                       help="trigger id: repr form ('ext', 42), ext:42 "
                            "shorthand, or a substring (omit to list)")
    trace.add_argument("--input", default=None, metavar="TRACE.json",
                       help="read a recorded trace instead of running")
    trace.add_argument("--output", default=None, metavar="TRACE.json",
                       help="also dump the full trace (live runs only)")
    trace.add_argument("--limit", type=int, default=20,
                       help="triggers shown when listing (no query)")
    trace.set_defaults(fn=cmd_trace)

    trace_diff = commands.add_parser(
        "trace-diff",
        help="align two canonical traces by (time, trigger, stage) and "
             "pinpoint the first divergence (exit 0 identical, 1 diverged)")
    trace_diff.add_argument("left", metavar="A.json",
                            help="left trace file (the reference)")
    trace_diff.add_argument("right", metavar="B.json",
                            help="right trace file (the candidate)")
    trace_diff.add_argument("--limit", type=int, default=10,
                            help="differing slots shown/embedded")
    _add_format(trace_diff)
    trace_diff.set_defaults(fn=cmd_trace_diff)

    metrics = commands.add_parser(
        "metrics", help="run under traffic and dump the metrics registry")
    _add_common(metrics, format_extra=("prom",))
    metrics.add_argument("--output", default=None, metavar="METRICS.json",
                         help="also write the snapshot as JSON")
    metrics.set_defaults(fn=cmd_metrics)

    diagnose = commands.add_parser(
        "diagnose",
        help="explain alarms: failed check, dissenting replicas, "
             "field-level diffs, T1/T2/T3 fault class")
    _add_common(diagnose)
    diagnose.add_argument("alarm", nargs="?", default=None,
                          help="alarm to explain: id (A0001), trigger "
                               "shorthand (ext:42), or a substring "
                               "(omit for all alarms)")
    diagnose.add_argument("--fault", default=None, metavar="NAME",
                          help="inject this catalog fault instead of "
                               "driving plain traffic")
    diagnose.add_argument("--alarm-log", default=None, metavar="ALARMS.jsonl",
                          help="reconstruct offline from a recorded alarm "
                               "log instead of running")
    diagnose.add_argument("--trace", default=None, metavar="TRACE.json",
                          help="recorded trace enriching the offline "
                               "reconstruction (with --alarm-log)")
    diagnose.add_argument("--output", default=None, metavar="DIAG.json",
                          help="also write the diagnosis payload as JSON")
    diagnose.add_argument("--record-alarm-log", default=None,
                          metavar="ALARMS.jsonl",
                          help="record the run's alarm log for later "
                               "offline diagnosis (live runs only)")
    diagnose.add_argument("--flight", default=None, metavar="FLIGHT.json",
                          help="attach a recorded flight-recorder dump to "
                               "the diagnosis (offline, any mode)")
    diagnose.add_argument("--flight-output", default=None,
                          metavar="FLIGHT.json",
                          help="run with the flight recorder on and write "
                               "its ring + dumps (live runs only)")
    diagnose.set_defaults(fn=cmd_diagnose)

    health = commands.add_parser(
        "health",
        help="replica health scores (rolling-window, with hysteresis) "
             "and SLO rule status")
    _add_common(health, format_extra=("prom",))
    health.add_argument("--output", default=None, metavar="HEALTH.jsonl",
                        help="also write health/SLO records as JSONL")
    health.set_defaults(fn=cmd_health)

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
    fuzz.add_argument("--backend", action="append", default=None,
                      choices=("serial", "threads", "processes"),
                      metavar="BACKEND",
                      help="add an execution backend to the differential "
                           "matrix (repeatable; serial always included)")
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
    soak.add_argument("--pipeline", type=int, default=None, metavar="N",
                      help="soak the sharded pipeline with N shards "
                           "(default: sequential validator)")
    soak.add_argument("--backend",
                      choices=("serial", "threads", "processes"),
                      default=None,
                      help="execution backend for the worker's pipeline "
                           "(requires --pipeline)")
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
        help="static analysis: per-file D/T/S/H rules plus cross-module "
             "X rules over the project call graph")
    analyze.add_argument("paths", nargs="*", metavar="PATH",
                         help="files or directories to analyze (explicit "
                              ".xml files are linted as policy documents)")
    analyze.add_argument("--format", choices=("human", "json"),
                         default="human", help="report format")
    analyze.add_argument(
        "--baseline", nargs="?", const="analysis-baseline.json",
        default=None, metavar="PATH",
        help="suppress findings recorded in this baseline file "
             "(default path when the flag is given bare: "
             "analysis-baseline.json)")
    analyze.add_argument(
        "--write-baseline", action="store_true",
        help="write current findings to the baseline file and exit 0")
    analyze.add_argument(
        "--fail-on", choices=("warning", "error"), default="error",
        help="exit non-zero when findings at/above this severity exist")
    analyze.add_argument("--list-rules", action="store_true",
                         help="print the rule catalog and exit")
    analyze.add_argument("--jobs", type=int, default=1, metavar="N",
                         help="analyze files with N worker processes")
    analyze.add_argument("--cache", default=".jury-analysis-cache.json",
                         metavar="PATH",
                         help="incremental result cache file")
    analyze.add_argument("--no-cache", action="store_true",
                         help="disable the incremental result cache")
    analyze.set_defaults(fn=cmd_analyze)

    analyze_policy = commands.add_parser(
        "analyze-policy",
        help="statically verify policy XML before deployment "
             "(P-rules: contradictions, shadowing, schema, provenance)")
    analyze_policy.add_argument(
        "paths", nargs="*", metavar="POLICY.xml",
        help="policy files (or directories of .xml files) to verify")
    analyze_policy.add_argument(
        "--builtin", action="store_true",
        help="also lint the built-in policy sets shipped with the repro")
    analyze_policy.add_argument(
        "--project", default=None, metavar="DIR",
        help="project tree for the call-graph provenance checks "
             "(default: src/repro when present; 'none' disables P604)")
    analyze_policy.add_argument("--format", choices=("human", "json"),
                                default="human", help="report format")
    analyze_policy.add_argument(
        "--fail-on", choices=("warning", "error"), default="warning",
        help="exit non-zero at/above this severity (default: warning — "
             "shadowed clauses should block deployment too)")
    analyze_policy.set_defaults(fn=cmd_analyze_policy)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    from repro.errors import ValidationError

    args = build_parser().parse_args(argv)
    try:
        result = args.fn(args)
    except ValidationError as exc:
        # Config mistakes (bad --config file, backend without --pipeline,
        # removed-API calls) are usage errors: exit 2, like argparse's own.
        result = CommandResult.usage_error(
            getattr(args, "command", None) or "repro", str(exc))
    fmt = getattr(args, "format", "human")
    # "prom" output is pre-rendered exposition text in result.human.
    return render_result(result, "human" if fmt == "prom" else fmt)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__.py
    sys.exit(main())
