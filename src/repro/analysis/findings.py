"""Findings and severities for the static-analysis subsystem.

A :class:`Finding` is one rule violation anchored to ``file:line``. Its
*fingerprint* deliberately excludes the line number, so a consumer of the
JSON report (CI annotations, dashboards) can follow one finding across
unrelated edits above it: the identity is (rule, file, enclosing symbol,
message, ordinal).
"""

from __future__ import annotations

import enum
import hashlib
from dataclasses import dataclass, field
from typing import Tuple


class Severity(enum.IntEnum):
    """Severity ladder; ``--fail-on`` compares against this ordering."""

    INFO = 10
    WARNING = 20
    ERROR = 30

    @classmethod
    def parse(cls, text: str) -> "Severity":
        try:
            return cls[text.strip().upper()]
        except KeyError:
            raise ValueError(
                f"unknown severity {text!r}; expected one of "
                f"{', '.join(s.name.lower() for s in cls)}") from None


@dataclass(frozen=True)
class Finding:
    """One rule violation at a precise source location."""

    rule_id: str
    severity: Severity
    path: str  #: path as reported (relative to the invocation cwd if possible)
    line: int
    column: int
    message: str
    symbol: str = ""  #: enclosing ``Class.method`` / function, if any
    #: Disambiguates repeated identical findings inside one symbol.
    ordinal: int = 0

    @property
    def family(self) -> str:
        """The rule family letter (D, T, S, H, P)."""
        return self.rule_id[:1]

    def fingerprint(self) -> str:
        """Stable identity across runs (line-shift tolerant)."""
        raw = "\x1f".join((self.rule_id, self.path, self.symbol,
                           self.message, str(self.ordinal)))
        return hashlib.sha1(raw.encode("utf-8")).hexdigest()[:16]

    def sort_key(self) -> Tuple:
        return (self.path, self.line, self.column, self.rule_id)

    def render(self) -> str:
        """One human-readable report line."""
        where = f" [{self.symbol}]" if self.symbol else ""
        return (f"{self.path}:{self.line}:{self.column}: "
                f"{self.severity.name.lower()} {self.rule_id}: "
                f"{self.message}{where}")

    def to_dict(self) -> dict:
        return {
            "rule": self.rule_id,
            "family": self.family,
            "severity": self.severity.name.lower(),
            "path": self.path,
            "line": self.line,
            "column": self.column,
            "symbol": self.symbol,
            "ordinal": self.ordinal,
            "message": self.message,
            "fingerprint": self.fingerprint(),
        }


@dataclass
class AnalysisReport:
    """Everything one analyzer run produced."""

    findings: list = field(default_factory=list)
    files_scanned: int = 0

    def count_at_least(self, severity: Severity) -> int:
        return sum(1 for f in self.findings if f.severity >= severity)

    def by_family(self) -> dict:
        counts: dict = {}
        for finding in self.findings:
            counts[finding.family] = counts.get(finding.family, 0) + 1
        return counts
