"""Cluster and JURY inspection, and the operator report built on it.

Summarizes the live state of an experiment — per-controller pipeline
statistics, store convergence, JURY module activity, validator health — as
structured dictionaries and rendered tables. Used by the CLI and handy in
notebooks/REPLs when poking at a simulation.

:func:`build_report` gathers everything one run can tell an operator into a
single JSON payload (``{"format": "jury-report", "version": 1}``): the
config, this module's cluster summary, the last checkpoint, and the
deployment's observability sections (:meth:`JuryDeployment.report
<repro.core.deployment.JuryDeployment.report>`). :func:`report_text`
renders a payload for humans; it reads nothing but the payload, so a saved
report (:func:`load_report`) renders exactly like the live run that wrote
it.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional

from repro.harness.experiment import Experiment
from repro.harness.reporting import format_table
from repro.obs.diagnose import (
    AlarmExplanation,
    explanation_id,
    find_explanation,
    render_explanations,
)
from repro.obs.metrics import snapshot_rows
from repro.obs.recorder import render_flight
from repro.obs.trace import Tracer, match_trigger_key

REPORT_FORMAT = "jury-report"
REPORT_VERSION = 1

#: Traced triggers listed when a report is rendered without a query.
TRIGGERS_LISTED = 20


def controller_summary(experiment: Experiment) -> List[Dict]:
    """One record per controller replica."""
    cluster = experiment.cluster
    rows = []
    for controller in cluster.controllers.values():
        mastered = sum(1 for master in cluster.mastership.values()
                       if master == controller.id)
        rows.append({
            "id": controller.id,
            "alive": controller.alive,
            "mastered_switches": mastered,
            "packet_ins": controller.packet_ins_received,
            "packet_ins_dropped": controller.packet_ins_dropped,
            "flow_mods_sent": controller.flow_mods_sent,
            "egress_drops": controller.flow_mods_dropped_egress,
            "pipeline_backlog": controller.pipeline.backlog,
            "utilization": round(controller.utilization(), 3),
            "store_writes": controller.store.writes,
        })
    return rows


def store_convergence(experiment: Experiment) -> Dict:
    """Are the replicas' views equal right now?"""
    digests = {cid: controller.store.state_digest()
               for cid, controller in experiment.cluster.controllers.items()}
    distinct = len(set(digests.values()))
    return {
        "replicas": len(digests),
        "distinct_views": distinct,
        "converged": distinct == 1,
    }


def jury_summary(experiment: Experiment) -> Dict:
    """Validator and module health: the validation verdict (§VII).

    Adds the measurement window's PACKET_IN/FLOW_MOD rates when the run
    opened one, and the detection-time distribution of full-consensus
    external triggers (Fig 4a/4c) when the validator kept its results.
    """
    if experiment.jury is None:
        return {"deployed": False}
    validator = experiment.validator
    summary = {
        "deployed": True,
        "k": experiment.jury.k,
        "responses_received": validator.responses_received,
        "triggers_decided": validator.triggers_decided,
        "triggers_alarmed": validator.triggers_alarmed,
        "pending": validator.pending_count,
        "false_positive_rate": round(validator.false_positive_rate(), 5),
        "shadow_triggers": experiment.jury.total_shadow_triggers(),
        "timeout_ms": round(validator.timeout.current(), 1),
    }
    if experiment.window_open:
        window = experiment.throughput()
        summary["packet_in_rate_per_s"] = window.packet_in_rate_per_s
        summary["flow_mod_rate_per_s"] = window.flow_mod_rate_per_s
    if validator.keep_results:
        stats = experiment.detection_stats()
        summary["detection_ms"] = {"count": stats.count,
                                   "median": stats.median,
                                   "p95": stats.p95, "p99": stats.p99}
    return summary


def cluster_section(experiment: Experiment) -> Dict:
    """The report's ``cluster`` section."""
    return {"controllers": controller_summary(experiment),
            "store": store_convergence(experiment),
            "jury": jury_summary(experiment)}


def render_report(cluster: Dict) -> str:
    """A report's ``cluster`` section as human-readable text."""
    sections = []
    rows = [[r["id"], "up" if r["alive"] else "DOWN", r["mastered_switches"],
             r["packet_ins"], r["flow_mods_sent"], r["pipeline_backlog"],
             f"{r['utilization']:.2f}"]
            for r in cluster["controllers"]]
    sections.append(format_table(
        "Controllers",
        ["id", "state", "switches", "packet_ins", "flow_mods",
         "backlog", "util"], rows))
    convergence = cluster["store"]
    sections.append(
        f"Store: {convergence['replicas']} replicas, "
        f"{convergence['distinct_views']} distinct view(s) "
        f"({'converged' if convergence['converged'] else 'diverged'})")
    jury = cluster["jury"]
    if jury["deployed"]:
        sections.append(
            f"JURY: k={jury['k']}, {jury['triggers_decided']} decided, "
            f"{jury['triggers_alarmed']} alarmed, {jury['pending']} pending, "
            f"FP={100 * jury['false_positive_rate']:.3f}%, "
            f"timeout={jury['timeout_ms']} ms")
        if "packet_in_rate_per_s" in jury:
            sections[-1] += (
                f"\nwindow: {jury['packet_in_rate_per_s']:.1f} PACKET_IN/s, "
                f"{jury['flow_mod_rate_per_s']:.1f} FLOW_MOD/s")
        if "detection_ms" in jury:
            detection = jury["detection_ms"]
            sections[-1] += (
                f"\ndetection: {detection['count']} full-consensus triggers, "
                + ", ".join(f"{q} {detection[q]:.2f} ms"
                            for q in ("median", "p95", "p99")))
    else:
        sections.append("JURY: not deployed")
    return "\n\n".join(sections)


# ----------------------------------------------------------------------
# The operator report: one payload per run
# ----------------------------------------------------------------------

def build_report(experiment: Experiment) -> Dict[str, object]:
    """Everything one run tells an operator, as one JSON-native payload."""
    jury = experiment.jury
    checkpoint = jury.last_checkpoint
    payload = {
        "format": REPORT_FORMAT,
        "version": REPORT_VERSION,
        "config": jury.config.describe(),
        "cluster": cluster_section(experiment),
        "checkpoint": None if checkpoint is None else {
            "sha256": checkpoint.sha256, "meta": checkpoint.meta},
        **jury.report(),
    }
    # Exactly what a saved report loads back as (tuples become lists), so
    # the live rendering and the --input rendering see the same values.
    return json.loads(dump_report(payload))


def dump_report(payload: Dict[str, object]) -> str:
    """A report as sorted-key JSON (the ``--output`` file body)."""
    return json.dumps(payload, indent=2, sort_keys=True)


def load_report(path: str) -> Dict[str, object]:
    """Read a report file; ``ValueError`` when it is not one."""
    with open(path, "r", encoding="utf-8") as handle:
        try:
            payload = json.load(handle)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: not JSON ({exc})") from None
    if not isinstance(payload, dict) or payload.get("format") != REPORT_FORMAT:
        raise ValueError(f"{path}: not a {REPORT_FORMAT} file")
    if payload.get("version") != REPORT_VERSION:
        raise ValueError(f"{path}: unsupported {REPORT_FORMAT} version "
                         f"{payload.get('version')!r}")
    return payload


def report_text(payload: Dict[str, object],
                query: Optional[str] = None) -> str:
    """Render a report; ``LookupError`` when ``query`` matches nothing.

    Without a query: the cluster, traced triggers, alarm explanations,
    flight ring, replica health and SLOs, and the metrics registry. With a
    trigger (``ext:42``, ``('ext', 42)``, a substring) or alarm id
    (``A0001``): that trigger's lifecycle and every explanation for it.
    """
    tracer = (Tracer.from_payload(payload["trace"])
              if "trace" in payload else Tracer())
    explanations = ([AlarmExplanation.from_dict(entry)
                     for entry in payload["alarms"]["alarms"]]
                    if "alarms" in payload else [])
    if query is not None:
        return _trigger_text(tracer, explanations, query)
    config = payload["config"]
    title = f"{config['kind']} n={config['n']} k={config['k']}"
    blocks = [f"JURY report — {title} seed={config['seed']}"]
    checkpoint = payload.get("checkpoint")
    if checkpoint is not None:
        meta = checkpoint["meta"]
        blocks.append(f"checkpoint: {checkpoint['sha256'][:12]}… at "
                      f"t={meta['sim_now']:.0f} ms "
                      f"({meta['triggers_decided']} decided)")
    blocks.append(render_report(payload["cluster"]))
    if "trace" in payload:
        blocks.append(_trace_listing(tracer))
    if "alarms" in payload:
        blocks.append(render_explanations(explanations))
    if "flight" in payload:
        blocks.append(render_flight(payload["flight"]))
    if "health" in payload:
        blocks.append(_health_text(payload["health"], title))
    if "metrics" in payload:
        blocks.append(format_table(f"JURY metrics — {title}",
                                   ["metric", "type", "value"],
                                   snapshot_rows(payload["metrics"])))
    return "\n\n".join(blocks)


def _trace_listing(tracer) -> str:
    keys = tracer.trigger_keys()
    shown = keys[:TRIGGERS_LISTED]
    rows = [[key, tracer.timeline(key).verdict, len(tracer.spans_for(key))]
            for key in shown]
    retired = tracer.retirement()
    kept = (f"{len(keys)} total" if retired is None else
            f"{len(keys)} kept, {retired['triggers']} older retired with "
            f"{retired['spans']} spans")
    return format_table(f"traced triggers ({kept}, showing {len(shown)})",
                        ["trigger", "verdict", "spans"], rows)


def _trigger_text(tracer, explanations, query: str) -> str:
    """One trigger's lifecycle plus every explanation raised for it."""
    key = match_trigger_key(tracer, query)
    if key is None:
        match = find_explanation(explanations, query)
        key = match[1].trigger_id if match is not None else None
    retired = tracer.retirement()
    if key is None and retired is not None:
        first, last = retired["window"] or ("-", "-")
        raise LookupError(
            f"no retained trigger or alarm matches {query!r}: the trace "
            f"retired {retired['triggers']} older triggers "
            f"({retired['spans']} spans) and keeps every alarmed one and "
            f"the newest, {first} to {last}")
    if key is None:
        preview = ", ".join(tracer.trigger_keys()[:5]) or "<trace is empty>"
        raise LookupError(f"no traced trigger or alarm matches {query!r} "
                          f"(first keys: {preview})")
    blocks = []
    timeline = tracer.timeline(key)
    if not timeline.empty:
        blocks.append("\n".join([
            format_table(f"trigger {key} — lifecycle",
                         ["t", "stage", "verdict", "detail"],
                         timeline.rows()),
            f"verdict: {timeline.verdict}"]))
    blocks.extend(explanation.render(explanation_id(index))
                  for index, explanation in enumerate(explanations)
                  if explanation.trigger_id == key)
    return "\n\n".join(blocks)


def _health_text(health: Dict, title: str) -> str:
    replica_rows = [
        [r["controller_id"], f"{r['score']:.3f}",
         f"{r['disagreement_rate']:.3f}", f"{r['timeout_miss_rate']:.3f}",
         f"{r['lag_p95_ms']:.1f}", "YES" if r["suspected"] else "no"]
        for r in health["replicas"].values()]
    tables = [format_table(
        f"replica health — {title} @ t={health['time_ms']:.0f} ms",
        ["replica", "score", "disagree", "timeout-miss", "lag p95 (ms)",
         "suspected"], replica_rows)]
    if health.get("slo"):
        slo_rows = [[s["name"], f"{s['value']:.4f}", f"{s['threshold']:.4f}",
                     "ok" if s["ok"] else "BREACH"]
                    for s in health["slo"]]
        tables.append(format_table("SLO rules",
                                   ["rule", "value", "threshold", "status"],
                                   slo_rows))
    return "\n".join(tables)
