"""The event log's row format lives in ``repro.obs.trace`` alone.

The observer seam writes rows through the log's public methods, and the
views (metrics, health, the flight recorder) fold the decoded rows the log
hands them (:class:`repro.obs.trace.Rows`). So no other module of
``repro.obs`` may read a private attribute off the log, its rows or the
trace module, use the code bit layout (``FACTS_SHIFT``, ``_SHAPE_MASK``),
or use the kind byte tables. This walks the syntax tree of each of them.
"""

from __future__ import annotations

import ast
from pathlib import Path

import repro.obs

OBS = Path(repro.obs.__file__).parent
#: The code bit layout, which no module but the trace may use.
LAYOUT = {"FACTS_SHIFT", "_SHAPE_MASK"}
#: Public names of kind byte tables, and the helper that selects by them.
TABLES = {"SHOWN", "ALARMS", "RESPONSES", "DECISIONS", "FLIGHT", "positions"}
#: What the log, its rows or the trace module are called where read.
LOGS = {"log", "_log", "tracer", "_tracer", "rows", "obs_trace"}


def _name(node: ast.AST):
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _format_names(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__") or (
        name in LAYOUT or name in TABLES)


def findings(source: str, filename: str = "<source>"):
    """``(line, what)`` per use of the row format in ``source``."""
    for node in ast.walk(ast.parse(source, filename=filename)):
        if isinstance(node, ast.Attribute) and _name(node.value) in LOGS:
            if _format_names(node.attr):
                yield node.lineno, f"{_name(node.value)}.{node.attr}"
        elif isinstance(node, ast.ImportFrom) and (
                node.module or "").split(".")[-1] == "trace":
            for alias in node.names:
                if _format_names(alias.name):
                    yield node.lineno, f"import {alias.name}"
        elif isinstance(node, ast.Name) and node.id in LAYOUT:
            yield node.lineno, node.id


def test_the_checker_sees_each_kind_of_use():
    source = "\n".join((
        "from repro.obs.trace import FACTS_SHIFT, Tracer",
        "from repro.obs import trace as obs_trace",
        "a = log._code[0] | self._log._end()",
        "b = obs_trace.DECISIONS, obs_trace._SHAPE_MASK, rows._kinds",
        "c = code >> FACTS_SHIFT",
        "d = log.fold(view), obs_trace.DECIDE, self._log, tracer.__class__",
    ))
    lines = sorted(line for line, _ in findings(source))
    assert lines == [1, 3, 3, 4, 4, 4, 5]


def test_no_module_but_the_trace_knows_the_row_format():
    modules = sorted(path for path in OBS.glob("*.py")
                     if path.name != "trace.py")
    assert {path.name for path in modules} >= {
        "observer.py", "metrics.py", "health.py", "recorder.py"}
    found = [f"{path.name}:{line}: {what}" for path in modules
             for line, what in findings(path.read_text(encoding="utf-8"),
                                        str(path))]
    assert not found, "\n".join(found)
