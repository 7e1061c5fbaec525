"""Human and JSON reporters for analysis runs.

The human format leads with per-family counts — D (determinism), T
(taint-safety), S (sanity pairing), H (hygiene), X (cross-module), P
(policy/parse) — so a clean run still shows which invariants were checked;
JSON carries the full rule catalog alongside the findings for machine
consumers (CI annotations, dashboards).
"""

from __future__ import annotations

import json
from typing import Dict, List

from repro.analysis.findings import AnalysisReport, Severity
from repro.analysis.registry import rule_catalog

_FAMILY_TITLES = {
    "D": "determinism",
    "T": "taint-safety",
    "S": "sanity pairing",
    "H": "hygiene",
    "X": "cross-module",
    "P": "policy/parse",
}


def _families_in_catalog() -> List[str]:
    seen: Dict[str, None] = {}
    for rule in rule_catalog():
        seen.setdefault(rule.rule_id[:1], None)
    return list(seen)


def render_human(report: AnalysisReport, fail_on: Severity) -> str:
    """Multi-line human-readable report."""
    lines: List[str] = []
    counts = report.by_family()
    summary = "  ".join(
        f"{family}/{_FAMILY_TITLES.get(family, '?')}: "
        f"{counts.get(family, 0)}"
        for family in sorted(set(_families_in_catalog()) | set(counts)))
    lines.append(f"jury-repro analyze — {report.files_scanned} file(s) "
                 f"scanned, {len(report.findings)} finding(s)")
    lines.append(f"  {summary}")
    for finding in report.findings:
        lines.append(finding.render())
    failing = report.count_at_least(fail_on)
    if failing:
        lines.append(f"FAILED: {failing} finding(s) at or above "
                     f"{fail_on.name.lower()}")
    else:
        lines.append("OK")
    return "\n".join(lines)


def render_json(report: AnalysisReport, fail_on: Severity) -> str:
    """Machine-readable report, one JSON document."""
    payload = {
        "tool": "jury-repro analyze",
        "files_scanned": report.files_scanned,
        "fail_on": fail_on.name.lower(),
        "failed": report.count_at_least(fail_on) > 0,
        "counts_by_family": report.by_family(),
        "rules": [
            {
                "id": rule.rule_id,
                "family": rule.rule_id[:1],
                "severity": rule.severity.name.lower(),
                "summary": rule.summary,
                "rationale": rule.rationale,
            }
            for rule in rule_catalog()
        ],
        "findings": [f.to_dict() for f in report.findings],
    }
    return json.dumps(payload, indent=2)


def render_rule_list() -> str:
    """The catalog, one rule per line (``--list-rules``)."""
    lines = []
    for rule in rule_catalog():
        lines.append(f"{rule.rule_id}  {rule.severity.name.lower():8s} "
                     f"{rule.summary}")
    return "\n".join(lines)
