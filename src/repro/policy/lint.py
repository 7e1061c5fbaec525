"""Policy linting: run the P-rules over policy XML or built-in policies.

The deployment path for a policy file is ``jury-repro analyze <code paths>
<file>.xml``; this module is the library behind it. It parses leniently
(collecting *all* problems with positions, instead of dying on the first),
wraps the clauses into the :class:`~repro.analysis.rules_policy
.PolicyDocument` the P-rules consume, and returns plain
:class:`~repro.analysis.findings.Finding` records — the same currency as
the code analyzer, so reporters, baselines, and CI gates need no new
machinery.

Suppressions work like in Python sources: a ``jury: ignore[P602]`` marker
inside an XML comment on the reported line silences that finding::

    <Policy allow="No"> <!-- # jury: ignore[P602] -->
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Set, Tuple

from repro.analysis.findings import Finding, Severity
from repro.analysis.registry import _SUPPRESS_RE, ALL_RULES, policy_rules
from repro.policy.language import Policy
from repro.policy.parser import parse_policy_document

#: Rule id for document-level parse failures (shared with the code analyzer).
PARSE_ERROR_RULE = "P001"


class _PolicyView:
    """Adapter giving a built-in :class:`Policy` the clause surface.

    Built-in policies are constructed in Python, so they have no XML
    positions; the view anchors them at line = 1-based position in the set,
    which keeps findings stable and distinguishable.
    """

    def __init__(self, policy: Policy, index: int):
        self._policy = policy
        self.index = index
        self.line = policy.source_line or index + 1
        self.column = policy.source_column or 1
        self.allow = policy.allow
        self.allow_raw = "yes" if policy.allow else "no"
        self.controller = policy.controller
        self.trigger = policy.trigger
        self.cache = policy.cache
        self.operation = policy.operation
        self.entry = policy.entry
        self.destination = policy.destination
        self.entry_predicate = policy.entry_predicate
        self.label = policy.name or f"policy #{index + 1}"

    def position_of(self, tag: str) -> Tuple[int, int]:
        return self.line, self.column


def _scan_suppressions(text: str) -> Dict[int, Set[str]]:
    """``jury: ignore`` markers (inside XML comments) by line number."""
    table: Dict[int, Set[str]] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        match = _SUPPRESS_RE.search(line)
        if not match:
            continue
        if match.group(1) is None:
            table[lineno] = {ALL_RULES}
        else:
            table[lineno] = {r.strip().upper()
                             for r in match.group(1).split(",") if r.strip()}
    return table


def lint_policy_text(text: str, path: str = "<policy>",
                     index=None) -> List[Finding]:
    """Lint one policy document; returns sorted findings, never raises.

    Malformed XML and unknown elements surface as ``P001`` parse findings;
    everything else comes from the registered P-rules. ``index`` is an
    optional :class:`~repro.analysis.project_index.ProjectIndex` enabling
    the provenance checks (P604).
    """
    from repro.analysis.rules_policy import PolicyDocument

    clauses, issues = parse_policy_document(text)
    suppressions = _scan_suppressions(text)
    findings: List[Finding] = []
    for issue in issues:
        if issue.kind != "error":
            continue  # schema-kind issues belong to P603
        rules = suppressions.get(issue.line)
        if rules is not None and (ALL_RULES in rules
                                  or PARSE_ERROR_RULE in rules):
            continue
        findings.append(Finding(
            rule_id=PARSE_ERROR_RULE, severity=Severity.ERROR, path=path,
            line=issue.line, column=issue.column, message=issue.message))
    doc = PolicyDocument(path=path, clauses=clauses, schema_issues=issues,
                         suppressions=suppressions, index=index)
    for rule in policy_rules():
        findings.extend(rule.run_policy(doc))
    return sorted(findings, key=Finding.sort_key)


def lint_policy_file(path: str, index=None) -> List[Finding]:
    """Read and lint one policy XML file (unreadable file → P001)."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        return [Finding(rule_id=PARSE_ERROR_RULE, severity=Severity.ERROR,
                        path=path, line=1, column=1,
                        message=f"cannot read policy file: {exc}")]
    return lint_policy_text(text, path=path, index=index)


def lint_policies(policies: Sequence[Policy], path: str = "<builtin>",
                  index=None) -> List[Finding]:
    """Lint already-constructed :class:`Policy` objects as one document."""
    from repro.analysis.rules_policy import PolicyDocument

    views = [_PolicyView(policy, i) for i, policy in enumerate(policies)]
    doc = PolicyDocument(path=path, clauses=views, index=index)
    findings: List[Finding] = []
    for rule in policy_rules():
        findings.extend(rule.run_policy(doc))
    return sorted(findings, key=Finding.sort_key)


def lint_builtin_policies(index=None) -> List[Finding]:
    """Lint every registered policy set (:data:`repro.config.POLICY_SETS`)
    as one document: the grouping a deployment's engine runs."""
    from repro.config import POLICY_SETS

    findings: List[Finding] = []
    for name, factory in sorted(POLICY_SETS.items()):
        findings.extend(lint_policies(factory().policies,
                                      path=f"<builtin:{name}>", index=index))
    return sorted(findings, key=Finding.sort_key)
