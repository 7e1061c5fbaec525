"""The analysis engine: discovery and rule dispatch.

``analyze_paths`` is the one-call API used by the CLI, the CI gate, and the
self-application test: give it files/directories, get back an
:class:`AnalysisReport` with per-``file:line`` findings.

Every run is cold and serial. The **module phase** is one loop over the
discovered files: read, parse, run the per-file rule families (D/T/S/H),
and extract the :class:`~repro.analysis.project_index.ModuleFacts` the
cross-module rules need. The **project phase** assembles the facts into a
:class:`~repro.analysis.project_index.ProjectIndex` and runs the
interprocedural X-rules over the whole graph. Policy XML files passed
explicitly are linted with the P-rules against the same index (P604 only
when Python code is analyzed too).
"""

from __future__ import annotations

import ast
import os
from pathlib import Path
from typing import Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from repro.analysis.findings import AnalysisReport, Finding, Severity
from repro.analysis.project_index import (
    ModuleFacts,
    ProjectIndex,
    build_project_index,
    extract_module_facts,
)
from repro.analysis.registry import ModuleContext, Rule, all_rules, project_rules

#: Rule id reserved for files the engine itself cannot analyze.
PARSE_ERROR_RULE = "P001"


def _walk_py_files(root: Path) -> Iterator[Path]:
    """Yield ``.py`` files under ``root`` in a deterministic order.

    Follows directory symlinks but keeps a realpath trail so a cycle
    (``pkg/loop -> pkg``) terminates instead of recursing forever; files
    reached through several link paths dedupe via ``resolve()`` upstream.
    """
    seen: Set[str] = set()
    for dirpath, dirnames, filenames in os.walk(root, followlinks=True):
        real = os.path.realpath(dirpath)
        if real in seen:
            dirnames[:] = []
            continue
        seen.add(real)
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".py"):
                yield Path(dirpath, name)


def discover_files(paths: Sequence[str]) -> List[Path]:
    """Expand files/directories into a sorted list of unique ``.py`` files.

    The result is independent of argument order, directory-entry order, and
    symlink aliasing, so two runs over the same tree see the same files in
    the same sequence — a prerequisite for byte-identical reports.
    """
    files: List[Path] = []
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            files.extend(p.resolve() for p in _walk_py_files(path))
        elif path.suffix == ".py" and path.exists():
            files.append(path.resolve())
        elif not path.exists():
            raise FileNotFoundError(f"no such file or directory: {raw}")
    return sorted(set(files))


def _display_path(path: Path) -> str:
    """Path relative to the invocation cwd when possible (stable anchors)."""
    try:
        return os.path.relpath(path)
    except ValueError:  # different drive on Windows
        return str(path)


def _analyze_module(source: str, display: str, rules: Sequence[Rule],
                    ) -> Tuple[List[Finding], Optional[ModuleFacts]]:
    """Module phase for one file: per-file findings + extracted facts."""
    try:
        tree = ast.parse(source, filename=display)
    except SyntaxError as exc:
        finding = Finding(
            rule_id=PARSE_ERROR_RULE, severity=Severity.ERROR, path=display,
            line=exc.lineno or 1, column=(exc.offset or 0) + 1,
            message=f"file does not parse: {exc.msg}")
        return [finding], None
    module = ModuleContext(path=display, source=source, tree=tree)
    findings: List[Finding] = []
    for rule in rules:
        findings.extend(rule.run(module))
    findings.sort(key=Finding.sort_key)
    return findings, extract_module_facts(module)


class Analyzer:
    """Runs the per-module and cross-module rule sets over a tree."""

    def __init__(self, rules: Optional[Iterable[Rule]] = None,
                 cross_rules: Optional[Iterable[Rule]] = None):
        #: A custom per-module rule set runs no X-rules unless asked to:
        #: tests inject tiny rule sets and must get exactly those rules.
        self.rules: List[Rule] = (list(rules) if rules is not None
                                  else all_rules())
        if cross_rules is not None:
            self.cross_rules: List[Rule] = list(cross_rules)
        else:
            self.cross_rules = [] if rules is not None else project_rules()

    # ------------------------------------------------------------------
    def analyze_source(self, source: str, path: str = "<memory>") -> List[Finding]:
        """Analyze one in-memory module (test fixtures, editors)."""
        findings, _ = _analyze_module(source, path, self.rules)
        return findings

    # ------------------------------------------------------------------
    def analyze_paths(self, paths: Sequence[str]) -> AnalysisReport:
        """Analyze files/directories: module phase, then project phase."""
        report = AnalysisReport()
        xml_paths = [raw for raw in paths
                     if str(raw).endswith(".xml") and Path(raw).is_file()]
        facts = self._module_phase(
            [raw for raw in paths if raw not in xml_paths], report)
        index = None
        if self.cross_rules or xml_paths:
            index = build_project_index(facts)
        for rule in self.cross_rules:
            report.findings.extend(rule.run_project(index))
        if xml_paths:
            from repro.policy.lint import lint_policy_file
            for raw in sorted(xml_paths):
                report.files_scanned += 1
                # P604 asks analyzed code which trigger kinds it emits: none
                # analyzed, nothing to ask.
                report.findings.extend(lint_policy_file(
                    str(raw), index=index if facts else None))
        report.findings.sort(key=Finding.sort_key)
        return report

    def index_paths(self, paths: Sequence[str]) -> ProjectIndex:
        """The project index over files/directories, without the X-rules."""
        return build_project_index(self._module_phase(paths, AnalysisReport()))

    def _module_phase(self, paths: Sequence[str],
                      report: AnalysisReport) -> List[ModuleFacts]:
        """Read → parse → per-file rules → facts, one file at a time."""
        facts: List[ModuleFacts] = []
        for path in discover_files(paths):
            display = _display_path(path)
            try:
                source = path.read_text(encoding="utf-8")
            except (OSError, UnicodeDecodeError) as exc:
                report.findings.append(Finding(
                    rule_id=PARSE_ERROR_RULE, severity=Severity.ERROR,
                    path=display, line=1, column=1,
                    message=f"file is unreadable: {exc}"))
                continue
            report.files_scanned += 1
            found, mod_facts = _analyze_module(source, display, self.rules)
            report.findings.extend(found)
            if mod_facts is not None:
                facts.append(mod_facts)
        return facts


def analyze_paths(paths: Sequence[str],
                  rules: Optional[Iterable[Rule]] = None) -> AnalysisReport:
    """Module-level convenience wrapper around :class:`Analyzer`."""
    return Analyzer(rules=rules).analyze_paths(paths)
