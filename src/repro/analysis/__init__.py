"""Static determinism & taint-safety analysis for the JURY reproduction.

JURY validates controller actions dynamically by comparing replica
executions; this package is the static complement — an AST-level pass that
catches divergence sources and interception bypasses before they ever reach
the validator. Six paper-grounded rule families:

* **D-rules** — nondeterminism sources (wall clock, global RNG, ``id()``
  keys, unordered set iteration, threads) that would make honest replicas
  disagree (false CONSENSUS_MISMATCH, §IV-C).
* **T-rules** — taint-safety: handler code must externalize only through
  the interception layer so replicated execution stays side-effect-free
  (§IV).
* **S-rules** — static analog of the T2 network/cache sanity check:
  FLOW_MOD emissions and flow-cache writes must pair up per handler.
* **H-rules** — hygiene with validator-path teeth (mutable defaults, bare
  or swallowed excepts, unused imports).
* **X-rules** — interprocedural rules over the project call graph
  (:mod:`~repro.analysis.project_index`): observer purity (X501),
  hot-path simulated-time discipline (X502), and pipeline alarm-stream
  determinism (X503) hold *transitively*, not just per file.
* **P-rules** — static verification of policy documents (Table 2):
  contradictions (P601), shadowed clauses (P602), schema mismatches
  (P603), and trigger kinds no controller code emits (P604).

Entry points: :func:`analyze_paths` (library) and ``jury-repro analyze``
(CLI), which lints every ``.xml`` path it is given as a policy document
(P604 only when Python code is analyzed in the same run). Suppressions
are inline only: ``# jury: ignore[D101]`` (comma-separated ids, or bare
``# jury: ignore`` for all rules on that line). Interprocedural findings
are anchored at the entry point that owns the violated contract, so that
is where a suppression belongs. Every run is cold and serial; nothing is
written to disk.
"""

from repro.analysis.engine import Analyzer, analyze_paths, discover_files
from repro.analysis.findings import AnalysisReport, Finding, Severity
from repro.analysis.project_index import (
    ModuleFacts,
    ProjectIndex,
    build_project_index,
    extract_module_facts,
)
from repro.analysis.registry import (
    ModuleContext,
    Rule,
    all_rules,
    policy_rules,
    project_rules,
    register,
    rule_catalog,
)
from repro.analysis.reporters import render_human, render_json, render_rule_list

__all__ = [
    "AnalysisReport",
    "Analyzer",
    "Finding",
    "ModuleContext",
    "ModuleFacts",
    "ProjectIndex",
    "Rule",
    "Severity",
    "all_rules",
    "analyze_paths",
    "build_project_index",
    "discover_files",
    "extract_module_facts",
    "policy_rules",
    "project_rules",
    "register",
    "render_human",
    "render_json",
    "render_rule_list",
    "rule_catalog",
]
