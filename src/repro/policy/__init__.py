"""JURY's policy framework (§V, Table 2).

Administrators centralize fine-grained checks on controller actions in a
constraint language of four directives — Controller, Trigger, Cache, and
Destination. The validator evaluates policies after consensus, against
exactly one (the primary's) matching response per trigger.

Policies follow first-match semantics: the first policy matching a cache
write decides (``allow="Yes"`` whitelists, ``allow="No"`` raises an alarm);
non-matching writes are implicitly allowed.

Before deployment, verify a policy file statically with ``jury-repro
analyze --fail-on warning src/ POLICY.xml`` (library:
:mod:`repro.policy.lint`) — it catches contradictions, shadowed clauses,
schema mismatches, and trigger kinds no analyzed controller code emits,
each anchored to the offending XML line.
"""

from repro.policy.builtin import (
    match_hierarchy_policy,
    no_internal_cache_changes,
    stranded_flow_policy,
)
from repro.policy.engine import PolicyEngine
from repro.policy.language import Policy, PolicyViolation, PolicyWrite
from repro.policy.lint import (
    lint_builtin_policies,
    lint_policies,
    lint_policy_file,
    lint_policy_text,
)
from repro.policy.parser import parse_policies, parse_policy_document

__all__ = [
    "Policy",
    "PolicyEngine",
    "PolicyViolation",
    "PolicyWrite",
    "lint_builtin_policies",
    "lint_policies",
    "lint_policy_file",
    "lint_policy_text",
    "match_hierarchy_policy",
    "no_internal_cache_changes",
    "parse_policies",
    "parse_policy_document",
    "stranded_flow_policy",
]
