"""Canonical trace diffing: align two traces, pinpoint first divergence.

Divergence triage — "pipeline N=4 produced a different trace than the
sequential replay" — lives or dies on knowing *where* two executions
first part ways, not just that their digests differ. This module aligns
two canonical traces by the same total order the canonical encoding uses
(``(time, trigger id, stage rank)``, :func:`repro.obs.trace.span_sort_key`)
and reports:

* the **first divergence**: the earliest aligned position where the two
  traces disagree — either a span present on one side only
  (``left-only`` / ``right-only``) or the same ``(time, trigger, stage)``
  slot with a different verdict/detail/attrs (``changed``);
* summary counts (spans per side, spans common, spans divergent).

Alignment walks the two sorted canonical span lists with a merge join on
``(time, trigger repr, stage rank)`` — engine recovery spans
(``engine:*``) are excluded exactly as :meth:`Tracer.canonical` excludes
them, so the diff of two traces is empty iff their canonical encodings
are byte-identical.

Exposed as ``jury-repro trace-diff A B`` (exit 0 and an empty diff on
identical traces; exit 1 with the first-divergence point otherwise) and
used by the fuzz oracle to annotate ``ENGINE_DIVERGENCE`` /
``TRACE_DIVERGENCE`` counterexamples with their first-divergence point.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.obs.trace import STAGE_RANK, Span, Tracer, span_sort_key


@dataclass(frozen=True)
class DiffEntry:
    """One aligned position where the two traces disagree."""

    #: ``changed`` (same slot, different content), ``left-only``, or
    #: ``right-only``.
    kind: str
    at: float
    trigger: str
    stage: str
    left: Optional[str] = None   #: canonical line on the left, if present
    right: Optional[str] = None  #: canonical line on the right, if present

    def to_dict(self) -> Dict[str, object]:
        return {"kind": self.kind, "t": self.at, "trigger": self.trigger,
                "stage": self.stage, "left": self.left, "right": self.right}

    def render(self) -> str:
        lines = [f"{self.kind} at t={self.at:.3f} trigger={self.trigger} "
                 f"stage={self.stage}"]
        if self.left is not None:
            lines.append(f"  < {self.left}")
        if self.right is not None:
            lines.append(f"  > {self.right}")
        return "\n".join(lines)


@dataclass
class TraceDiff:
    """The full comparison verdict for a pair of traces."""

    left_spans: int = 0
    right_spans: int = 0
    common: int = 0
    entries: List[DiffEntry] = field(default_factory=list)

    @property
    def identical(self) -> bool:
        return not self.entries

    @property
    def first_divergence(self) -> Optional[DiffEntry]:
        return self.entries[0] if self.entries else None

    def to_dict(self, limit: int = 50) -> Dict[str, object]:
        first = self.first_divergence
        return {
            "identical": self.identical,
            "left_spans": self.left_spans,
            "right_spans": self.right_spans,
            "common": self.common,
            "divergent": len(self.entries),
            "first_divergence": first.to_dict() if first else None,
            "entries": [e.to_dict() for e in self.entries[:limit]],
            "truncated": len(self.entries) > limit,
        }

    def render(self, limit: int = 10) -> str:
        if self.identical:
            return (f"traces identical: {self.left_spans} canonical spans, "
                    f"no divergence")
        lines = [f"traces diverge: {len(self.entries)} divergent position(s) "
                 f"(left {self.left_spans} spans, right {self.right_spans}, "
                 f"common {self.common})",
                 "first divergence:",
                 self.entries[0].render()]
        if len(self.entries) > 1:
            lines.append(f"next {min(limit, len(self.entries)) - 1} of "
                         f"{len(self.entries) - 1} further divergences:")
            for entry in self.entries[1:limit]:
                lines.append(entry.render())
        return "\n".join(lines)


def _align_key(span: Span) -> Tuple[float, str, int]:
    return (span.at, repr(span.trigger_id),
            STAGE_RANK.get(span.stage, len(STAGE_RANK)))


def _canonical_spans(tracer: Tracer) -> List[Span]:
    return sorted((s for s in tracer.spans
                   if not s.stage.startswith("engine:")),
                  key=span_sort_key)


def _entry(kind: str, span: Span, left: Optional[str],
           right: Optional[str]) -> DiffEntry:
    return DiffEntry(kind=kind, at=span.at, trigger=repr(span.trigger_id),
                     stage=span.stage, left=left, right=right)


def diff_tracers(left: Tracer, right: Tracer) -> TraceDiff:
    """Merge-join two traces on the canonical order; collect divergences.

    Same-key runs (several ingests of one trigger at one instant) are
    compared positionally within the run — emission order is part of the
    canonical contract, so a reordering inside a run is a divergence.
    """
    a = _canonical_spans(left)
    b = _canonical_spans(right)
    diff = TraceDiff(left_spans=len(a), right_spans=len(b))
    i = j = 0
    while i < len(a) and j < len(b):
        ka, kb = _align_key(a[i]), _align_key(b[j])
        if ka < kb:
            diff.entries.append(_entry("left-only", a[i],
                                       a[i].canonical_line(), None))
            i += 1
        elif kb < ka:
            diff.entries.append(_entry("right-only", b[j],
                                       None, b[j].canonical_line()))
            j += 1
        else:
            la, lb = a[i].canonical_line(), b[j].canonical_line()
            if la == lb:
                diff.common += 1
            else:
                diff.entries.append(_entry("changed", a[i], la, lb))
            i += 1
            j += 1
    while i < len(a):
        diff.entries.append(_entry("left-only", a[i],
                                   a[i].canonical_line(), None))
        i += 1
    while j < len(b):
        diff.entries.append(_entry("right-only", b[j],
                                   None, b[j].canonical_line()))
        j += 1
    return diff


def diff_payloads(left: Dict[str, object],
                  right: Dict[str, object]) -> TraceDiff:
    """Diff two ``jury-trace`` payload dicts (the on-disk JSON form)."""
    return diff_tracers(Tracer.from_payload(left), Tracer.from_payload(right))


def first_divergence_detail(diff: TraceDiff) -> str:
    """One-line first-divergence summary for violation details."""
    first = diff.first_divergence
    if first is None:
        return "no divergence"
    return (f"first divergence at t={first.at:.3f} trigger={first.trigger} "
            f"stage={first.stage} ({first.kind})")
