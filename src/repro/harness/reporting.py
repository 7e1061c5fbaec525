"""Plain-text table/series formatting and the CLI's unified result model.

Benchmarks print the same rows and series the paper's tables and figures
report; these helpers keep that output consistent and diff-friendly for
EXPERIMENTS.md.

Every ``jury-repro`` subcommand returns a :class:`CommandResult` — the
human rendering, the JSON payload, and the exit code in one structure —
and ``main`` pushes it through the single :func:`render_result` reporter.
That is what makes ``--format json`` uniform across subcommands: the JSON
output *is* ``result.data``, no per-command printing.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence


@dataclass
class CommandResult:
    """The structured outcome of one CLI subcommand.

    ``human`` is the pre-rendered text report; ``data`` is the JSON-able
    payload (printed verbatim under ``--format json``); ``errors`` go to
    stderr in either format. ``ok`` is a convenience constructor for the
    zero-exit case.
    """

    command: str
    exit_code: int = 0
    human: str = ""
    data: Dict[str, object] = field(default_factory=dict)
    errors: List[str] = field(default_factory=list)

    @classmethod
    def ok(cls, command: str, human: str = "",
           data: Optional[Dict[str, object]] = None) -> "CommandResult":
        """A successful result."""
        return cls(command=command, human=human, data=data or {})

    @classmethod
    def usage_error(cls, command: str, message: str) -> "CommandResult":
        """An argument/usage failure (exit code 2, message on stderr)."""
        return cls(command=command, exit_code=2, errors=[message])

    @property
    def failed(self) -> bool:
        return self.exit_code != 0


def render_result(result: CommandResult, fmt: str = "human",
                  out=None, err=None) -> int:
    """Render one :class:`CommandResult` and return its exit code."""
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    if fmt == "json":
        print(json.dumps(result.data, indent=2, sort_keys=True,
                         default=str), file=out)
    elif result.human:
        print(result.human, file=out)
    for message in result.errors:
        print(message, file=err)
    return result.exit_code


def format_table(title: str, headers: Sequence[str],
                 rows: Iterable[Sequence]) -> str:
    """Fixed-width table with a title rule."""
    rendered_rows: List[List[str]] = [[_cell(v) for v in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in rendered_rows:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    lines = [title, "-" * len(title)]
    lines.append("  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)))
    for row in rendered_rows:
        lines.append("  ".join(cell.ljust(widths[i])
                               for i, cell in enumerate(row)))
    return "\n".join(lines)


def _cell(value) -> str:
    if isinstance(value, float):
        return f"{value:.2f}"
    return str(value)
