"""Per-trigger lifecycle tracing for the validation path.

JURY's output is an alarm with attribution; *why* the alarm fired — which
Algorithm-1 check failed, what the validator had seen by then, where the
trigger spent its time — is what an operator debugging a cross-plane
divergence actually needs. This module records that decision path as a
stream of :class:`Span` records keyed on **simulated time**, so traces are
deterministic: replaying the same recorded response stream (an engine's
WAL ingest records, see :func:`~repro.core.checkpoint.replay_stream`)
reproduces the trace byte for byte, at any pipeline shard count.

Design rules that keep tracing equivalence-safe:

* A tracer never schedules events, never draws randomness, and never
  mutates validator state — it only appends records. Tracing on/off cannot
  change a single decision, which is what lets the differential suite run
  byte-identical with tracing enabled.
* Spans carry only *engine-independent* facts (stage, verdict, counts).
  Shard indices, batch sizes, and queue depths live in the
  :class:`~repro.obs.metrics.MetricsRegistry` instead — a trace produced at
  ``pipeline=1`` and ``pipeline=4`` from the same stream is identical.
* The canonical encoding (:meth:`Tracer.canonical`) sorts spans by
  ``(time, trigger id, stage rank)`` with a stable sort, mirroring
  :func:`repro.core.alarms.canonical_alarm_stream`; equality of canonical
  traces is the trace-determinism contract asserted in the test suite.

Every span is kept, as one plain row tuple ``(at, trigger_id, stage,
verdict, detail, attrs)`` in a single list. A row holds only atoms, the
trigger id's tuple of atoms, and an attrs tuple shared by every span with
the same attribute set, so CPython's cyclic garbage collector untracks it
and never scans it again; a :class:`Span` is built only when a span is
read. The per-trigger index is built on first read, not by
:meth:`Tracer.emit`.

The tracer is one subscriber of the observer seam
(:class:`~repro.obs.observer.Observer`): engines report events there and
never call :meth:`Tracer.emit` themselves. A :class:`NullTracer` is
normalised to "no tracer" by :func:`active_tracer`.
"""

from __future__ import annotations

import json
from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

# ----------------------------------------------------------------------
# Stage vocabulary
# ----------------------------------------------------------------------
# One trigger's lifecycle, in causal order. The rank both orders timeline
# rendering and tiebreaks the canonical sort at equal simulated times.

INTERCEPT = "intercept"          #: replicator saw the external trigger
REPLICATE = "replicate"          #: taint-wrapped copies shipped to secondaries
INGEST = "ingest"                #: one response reached the validator
LATE_DROP = "late-drop"          #: response for an already-decided trigger
DECIDE = "decide"                #: Vτ closed (full count or θτ expiry)
CHECK_CONSENSUS = "check:consensus"
CHECK_SANITY = "check:sanity"
CHECK_STALENESS = "check:staleness"
CHECK_POLICY = "check:policy"
ALARM = "alarm"                  #: one alarm raised for this trigger
ACCEPT = "accept"                #: decided clean — no alarms

# Engine recovery stages (repro.core.checkpoint). These describe what
# happened to the engine, not to a trigger — they are excluded from the
# canonical encoding so a checkpointing run stays trace-identical to a
# plain one.
ENGINE_CHECKPOINT = "engine:checkpoint"  #: recovery snapshot taken
ENGINE_RESTORE = "engine:restore"        #: engine rehydrated from a snapshot

STAGE_RANK: Dict[str, int] = {
    INTERCEPT: 0,
    REPLICATE: 1,
    INGEST: 2,
    LATE_DROP: 3,
    DECIDE: 4,
    CHECK_CONSENSUS: 5,
    CHECK_SANITY: 6,
    CHECK_STALENESS: 7,
    CHECK_POLICY: 8,
    ALARM: 9,
    ACCEPT: 10,
    ENGINE_CHECKPOINT: 11,
    ENGINE_RESTORE: 12,
}

#: Verdict value for a passing check.
VERDICT_OK = "ok"


@dataclass(frozen=True)
class Span:
    """One typed event in a trigger's lifecycle, at a simulated instant.

    ``attrs`` is a sorted tuple of ``(key, value)`` pairs — hashable and
    deterministic, unlike a dict whose insertion order would leak
    call-site accidents into the canonical encoding.
    """

    at: float
    trigger_id: Tuple
    stage: str
    verdict: Optional[str] = None
    detail: str = ""
    attrs: Tuple[Tuple[str, object], ...] = ()

    def attr(self, key: str, default=None):
        """Look up one attribute by name."""
        for k, v in self.attrs:
            if k == key:
                return v
        return default

    def canonical_line(self) -> str:
        """One-line canonical rendering, stable across runs and engines."""
        return _line((self.at, self.trigger_id, self.stage, self.verdict,
                      self.detail, self.attrs))


#: How a :class:`Tracer` stores one span: :class:`Span`'s fields, in order.
Row = Tuple[float, Tuple, str, Optional[str], str,
            Tuple[Tuple[str, object], ...]]

#: Attr value types whose equal values (of one type) always have the same
#: ``repr``, so one interned attrs tuple can stand for all of them. Floats
#: are left out: ``0.0 == -0.0``.
_INTERNABLE = frozenset((str, int, bool, type(None)))


def _line(row: Row) -> str:
    at, trigger_id, stage, verdict, detail, attrs = row
    rendered = ";".join(f"{k}={v!r}" for k, v in attrs)
    verdict = verdict if verdict is not None else "-"
    return f"{at:.9f}|{trigger_id!r}|{stage}|{verdict}|{detail}|{rendered}"


def _row_key(row: Row) -> Tuple[float, str, int]:
    return (row[0], repr(row[1]), STAGE_RANK.get(row[2], len(STAGE_RANK)))


def span_sort_key(span: Span) -> Tuple[float, str, int]:
    """Deterministic total order for canonical trace encoding.

    Stable-sorting by this key leaves same-key spans (e.g. several ingests
    of one trigger at one instant) in emission order, which per trigger is
    arrival order on whichever shard owns it — identical at any shard
    count, because all of a trigger's responses route to one shard.
    """
    return _row_key((span.at, span.trigger_id, span.stage))


class _SpanView(Sequence):
    """Read-only :class:`Span` sequence over a tracer's rows; each span is
    built when it is read."""

    __slots__ = ("_rows",)

    def __init__(self, rows: List[Row]) -> None:
        self._rows = rows

    def __len__(self) -> int:
        return len(self._rows)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [Span(*row) for row in self._rows[index]]
        return Span(*self._rows[index])

    def __iter__(self):
        for row in self._rows:
            yield Span(*row)


class Tracer:
    """Keeps every lifecycle span of every trigger that crosses the system.

    One tracer is shared by the whole deployment (replicators, validator or
    pipeline shards, alarm emission). It stores spans as rows the garbage
    collector does not scan (see the module docstring):

    * ``_rows`` — one :data:`Row` per span, in emission order;
    * ``_interned`` — one sorted attrs tuple per distinct attribute set.
      The key carries each value's type: ``1``, ``True`` and ``1.0`` are
      equal, but :meth:`Span.canonical_line` prints them differently;
    * ``_by_trigger`` — rows per trigger ``repr`` in first-seen order,
      built on first read and caught up from row ``_indexed`` on each
      later read.
    """

    #: Instrumentation sites check this once at construction; a subclass
    #: returning False (``NullTracer``) is normalised away entirely.
    enabled = True

    def __init__(self) -> None:
        self._rows: List[Row] = []
        self._interned: Dict[tuple, Tuple[Tuple[str, object], ...]] = {}
        self._by_trigger: Dict[str, List[Row]] = {}
        self._indexed = 0

    # ------------------------------------------------------------------
    # Emission (the validator-side hot path when tracing is on)
    # ------------------------------------------------------------------
    def emit(self, at: float, trigger_id: Tuple, stage: str,
             verdict: Optional[str] = None, detail: str = "",
             **attrs: object) -> None:
        """Record one span."""
        self._rows.append((at, trigger_id, stage, verdict, detail,
                           self._freeze(attrs) if attrs else ()))

    def _freeze(self, attrs: Dict[str, object]
                ) -> Tuple[Tuple[str, object], ...]:
        """The sorted ``(key, value)`` tuple for ``attrs``, shared with
        every earlier span that had the same attribute set."""
        key = (*attrs.items(), *map(type, attrs.values()))
        try:
            return self._interned[key]
        except (KeyError, TypeError):  # a new set, or an unhashable value
            frozen = tuple(sorted(attrs.items()))
            if _INTERNABLE.issuperset(key[len(attrs):]):
                self._interned[key] = frozen
            return frozen

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def spans(self) -> Sequence:
        """Every span, in emission order (a read-only sequence)."""
        return _SpanView(self._rows)

    def __len__(self) -> int:
        return len(self._rows)

    def _index(self) -> Dict[str, List[Row]]:
        """The per-trigger index, caught up with every emitted row."""
        rows = self._rows
        if self._indexed < len(rows):
            by_trigger = self._by_trigger
            for row in rows[self._indexed:]:
                by_trigger.setdefault(repr(row[1]), []).append(row)
            self._indexed = len(rows)
        return self._by_trigger

    def trigger_keys(self) -> List[str]:
        """``repr`` keys of every traced trigger, in first-seen order."""
        return list(self._index())

    def spans_for(self, trigger_id) -> List[Span]:
        """All spans of one trigger, in emission order.

        Accepts the trigger id tuple or its ``repr`` string (the form the
        CLI and JSON export use).
        """
        key = trigger_id if isinstance(trigger_id, str) else repr(trigger_id)
        return [Span(*row) for row in self._index().get(key, ())]

    def timeline(self, trigger_id) -> "TriggerTimeline":
        """The reconstructed lifecycle of one trigger."""
        spans = self.spans_for(trigger_id)
        key = trigger_id if isinstance(trigger_id, str) else repr(trigger_id)
        return TriggerTimeline(trigger_key=key, spans=sorted(
            spans, key=span_sort_key))

    def stage_counts(self) -> Dict[str, int]:
        """Span count per stage — the conservation ledger."""
        return dict(Counter(row[2] for row in self._rows))

    # ------------------------------------------------------------------
    # Canonical encoding and JSON export
    # ------------------------------------------------------------------
    def canonical(self) -> bytes:
        """Byte-exact canonical encoding of the whole trace.

        Two runs are trace-equivalent iff their canonical encodings compare
        equal; see the module docstring for why this is engine-independent.
        ``engine:*`` spans (checkpoint/restore) are engine-*specific* by
        construction and are filtered out here, the same way shard indices
        are kept out of spans entirely.
        """
        ordered = sorted((row for row in self._rows
                          if not row[2].startswith("engine:")),
                         key=_row_key)
        return "\n".join(map(_line, ordered)).encode("utf-8")

    def to_payload(self) -> Dict[str, object]:
        """JSON-able export (``jury-repro trace --output``)."""
        ordered = sorted(self._rows, key=_row_key)
        return {
            "format": "jury-trace",
            "version": 1,
            "span_count": len(ordered),
            "trigger_count": len(self._index()),
            "spans": [
                {
                    "t": at,
                    "trigger": repr(trigger_id),
                    "stage": stage,
                    "verdict": verdict,
                    "detail": detail,
                    "attrs": dict(attrs),
                }
                for at, trigger_id, stage, verdict, detail, attrs in ordered
            ],
        }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_payload(), indent=indent, sort_keys=True)

    @staticmethod
    def from_payload(payload: Dict[str, object]) -> "Tracer":
        """Rebuild a tracer from :meth:`to_payload` output.

        Trigger ids come back as their ``repr`` strings (tuples do not
        survive JSON); every lookup API accepts that form.
        """
        if payload.get("format") != "jury-trace":
            raise ValueError("not a jury-trace payload")
        tracer = Tracer()
        append, freeze = tracer._rows.append, tracer._freeze
        for entry in payload.get("spans", []):
            attrs = entry.get("attrs")
            append((
                float(entry["t"]),
                # Stored pre-repr'd: mark with a string trigger id whose
                # repr round-trips to itself for grouping purposes.
                _ReprKey(entry["trigger"]),
                str(entry["stage"]),
                entry.get("verdict"),
                str(entry.get("detail", "")),
                freeze(dict(attrs)) if attrs else (),
            ))
        return tracer


class _ReprKey(str):
    """A string whose ``repr`` is itself — lets reloaded spans (which only
    kept the repr of their trigger id) group and sort exactly like live
    spans do."""

    __slots__ = ()

    def __repr__(self) -> str:  # noqa: D105 - identity repr by design
        return str.__str__(self)


class NullTracer(Tracer):
    """A tracer that records nothing (the explicit-object no-op path)."""

    enabled = False

    def emit(self, at, trigger_id, stage, verdict=None, detail="",
             **attrs) -> None:  # type: ignore[override]
        return None


def active_tracer(tracer: Optional[Tracer]) -> Optional[Tracer]:
    """``None`` for "tracing off" (no tracer, or a ``NullTracer``)."""
    if tracer is None or not tracer.enabled:
        return None
    return tracer


# ----------------------------------------------------------------------
# Timeline reconstruction
# ----------------------------------------------------------------------

@dataclass
class TriggerTimeline:
    """One trigger's lifecycle: ordered spans plus derived summary facts."""

    trigger_key: str
    spans: List[Span] = field(default_factory=list)

    @property
    def empty(self) -> bool:
        return not self.spans

    @property
    def started_at(self) -> float:
        return self.spans[0].at if self.spans else 0.0

    @property
    def decided_at(self) -> Optional[float]:
        for span in self.spans:
            if span.stage == DECIDE:
                return span.at
        return None

    @property
    def verdict(self) -> str:
        """``accept``, ``alarm:<reasons>``, or ``undecided``."""
        reasons = [s.verdict for s in self.spans if s.stage == ALARM]
        if reasons:
            return "alarm:" + ",".join(sorted(set(r or "?" for r in reasons)))
        if any(s.stage == ACCEPT for s in self.spans):
            return "accept"
        return "undecided"

    @property
    def checks(self) -> List[Span]:
        return [s for s in self.spans if s.stage.startswith("check:")]

    def rows(self) -> List[List[str]]:
        """Human-renderable rows: relative time, stage, verdict, detail."""
        base = self.started_at
        rows = []
        for span in self.spans:
            attrs = " ".join(f"{k}={v}" for k, v in span.attrs)
            detail = span.detail
            if attrs:
                detail = f"{detail} [{attrs}]" if detail else f"[{attrs}]"
            rows.append([f"+{span.at - base:.3f} ms", span.stage,
                         span.verdict if span.verdict is not None else "-",
                         detail])
        return rows


def load_trace(path: str) -> Tracer:
    """Read a trace JSON file written by ``jury-repro trace --output``."""
    with open(path, "r", encoding="utf-8") as handle:
        return Tracer.from_payload(json.load(handle))


def dump_trace(tracer: Tracer, path: str) -> None:
    """Write a trace JSON file (stable key order, trailing newline)."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(tracer.to_json())
        handle.write("\n")


def match_trigger_key(tracer: Tracer, query: str) -> Optional[str]:
    """Resolve a user-supplied trigger query to a traced trigger key.

    Accepts the exact ``repr`` form (``('ext', 42)``), the compact
    ``ext:42`` shorthand, or a bare substring; returns the first traced
    key that matches, or ``None``.
    """
    if not query or not query.strip():
        return None  # an empty query would substring-match the first key
    keys = tracer.trigger_keys()
    if query in keys:
        return query
    if ":" in query and "(" not in query:
        head, _, tail = query.partition(":")
        parts = [head] + tail.split(":")
        rendered = "(" + ", ".join(
            repr(int(p)) if p.lstrip("-").isdigit() else repr(p)
            for p in parts) + ")"
        if rendered in keys:
            return rendered
    for key in keys:
        if query in key:
            return key
    return None
