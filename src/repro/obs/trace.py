"""Per-trigger lifecycle tracing for the validation path.

JURY's output is an alarm with attribution; *why* the alarm fired — which
Algorithm-1 check failed, what the validator had seen by then, where the
trigger spent its time — is what an operator debugging a cross-plane
divergence actually needs. This module records that decision path as a
stream of :class:`Span` records keyed on **simulated time**, so traces are
deterministic: replaying the same recorded response stream (an engine's
WAL ingest records, see :func:`~repro.core.checkpoint.replay_stream`)
reproduces the trace byte for byte, whichever engine replays it.

Design rules that keep tracing equivalence-safe:

* A tracer never schedules events, never draws randomness, and never
  mutates validator state — it only appends records. Tracing on/off cannot
  change a single decision, which is what lets the differential suite run
  byte-identical with tracing enabled.
* Spans carry only *engine-independent* facts (stage, verdict, counts),
  never shard indices, batch sizes or queue depths — a trace of the same
  stream is identical from the sequential validator and from a
  :class:`~repro.core.pipeline.ValidationPipeline` at 1 or 4 shards.
* The canonical encoding (:meth:`Tracer.canonical`) sorts spans by
  ``(time, trigger id, stage rank)`` with a stable sort, mirroring
  :func:`repro.core.alarms.canonical_alarm_stream`; equality of canonical
  traces is the trace-determinism contract asserted in the test suite.

The tracer's columns are the observer stack's one **event log**: a row is
four machine words in :mod:`array` columns — simulated time, an ordinal
into the distinct trigger ids, a code, and a float value (an ingest's
response lag, a decision's ``detection_ms``; NaN for none). The code is an
ordinal into the interned span shapes ``(stage, verdict, detail, attrs)``;
a decision row's high bits also hold an ordinal into its interned facts
(:meth:`Tracer.facts`), and a row the trace must not show (an unsampled
decision, a flight-recorder event) stores its code bit-inverted. The trace
views skip those rows; the metrics, health and flight-recorder views read
every row (:meth:`Tracer.rows`). So a kept row is no Python object and
never advances CPython's garbage collector; a :class:`Span` is built only
when read. Interning is type-exact: ``1``, ``True`` and ``1.0`` (or a
``str`` and a ``str`` subclass) are equal but print differently, so they
never share an entry.

The tracer is one subscriber of the observer seam
(:class:`~repro.obs.observer.Observer`): engines report events there and
never call :meth:`Tracer.emit` themselves. A :class:`NullTracer` is
normalised to "no tracer" by :func:`active_tracer`.
"""

from __future__ import annotations

from array import array
from collections import Counter
from collections.abc import Mapping
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

STAGE_RANK: Dict[str, int] = {stage: rank for rank, stage in enumerate((
    INTERCEPT, REPLICATE, INGEST, LATE_DROP, DECIDE, CHECK_CONSENSUS,
    CHECK_SANITY, CHECK_STALENESS, CHECK_POLICY, ALARM, ACCEPT,
    ENGINE_CHECKPOINT, ENGINE_RESTORE))}

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
        return (f"{self.at:.9f}|{self.trigger_id!r}|"
                f"{_tail(self.stage, self.verdict, self.detail, self.attrs)}")


class _ReprKey(str):
    """A string whose ``repr`` is itself — lets reloaded spans (which only
    kept the repr of their trigger id, see :meth:`Tracer.from_payload`)
    group and sort exactly like live spans do."""

    __slots__ = ()

    def __repr__(self) -> str:  # noqa: D105 - identity repr by design
        return str.__str__(self)


#: Value types whose equal values (of one type) always print the same, so
#: one interned trigger id or shape can stand for all of them. Floats are
#: left out: ``0.0 == -0.0``.
_INTERNABLE = frozenset((str, int, bool, type(None), _ReprKey))


def internable(*values: object) -> bool:
    """Whether one interned entry may stand for every value equal to these."""
    return _INTERNABLE.issuperset(map(type, values))


def _types(value) -> tuple:
    """The types a trigger id prints with: its elements' if a tuple."""
    return (*map(type, value),) if type(value) is tuple else (type(value),)


def _tail(stage, verdict, detail, attrs) -> str:
    """A canonical line after its time and trigger id (one per shape)."""
    rendered = ";".join(f"{k}={v!r}" for k, v in attrs)
    verdict = verdict if verdict is not None else "-"
    return f"{stage}|{verdict}|{detail}|{rendered}"


def span_sort_key(span: Span) -> Tuple[float, str, int]:
    """Deterministic total order for canonical trace encoding.

    Stable-sorting by this key leaves same-key spans (e.g. several ingests
    of one trigger at one instant) in emission order, which per trigger is
    arrival order on whichever shard owns it — identical at any shard
    count, because all of a trigger's responses route to one shard.
    """
    return (span.at, repr(span.trigger_id),
            STAGE_RANK.get(span.stage, len(STAGE_RANK)))


#: A row's code: shape ordinal in the low bits, decision-facts ordinal above.
FACTS_SHIFT = 32
_SHAPE_MASK = (1 << FACTS_SHIFT) - 1
#: The value of a row that carries none (a value is never NaN).
NO_VALUE = float("nan")


class Tracer:
    """Keeps every lifecycle span of every trigger that crosses the system.

    One tracer is shared by the whole deployment (replicators, validator,
    alarm emission). It keeps (see the module docstring):

    * ``_at``, ``_trigger``, ``_code``, ``_value`` — one column entry each
      per row;
    * ``_triggers``, ``_shapes``, ``_facts`` — distinct trigger ids, shapes
      and decision facts by ordinal, keyed on values plus types; a value
      outside ``_INTERNABLE`` (a float, a nested tuple, an unhashable) gets
      a shape or trigger entry of its own;
    * ``_by_trigger`` — shown rows' positions per trigger ``repr``,
      first-seen order, built on first read and caught up from ``_indexed``
      later.

    :meth:`emit` records any span; a hot caller asks :meth:`shape` once
    per distinct shape and passes the ordinal to :meth:`record`.
    """

    #: Instrumentation sites check this once at construction; a subclass
    #: returning False (``NullTracer``) is normalised away entirely.
    enabled = True

    def __init__(self) -> None:
        self._at, self._trigger, self._code, self._value = (
            array("d"), array("q"), array("q"), array("d"))
        self._triggers: List[object] = []
        self._trigger_ordinals: Dict[object, int] = {}
        self._variants: Dict[tuple, int] = {}
        self._trigger_reprs: List[str] = []
        self._shapes: List[tuple] = []
        self._shape_ordinals: Dict[tuple, int] = {}
        self._facts: List[Optional[tuple]] = [None]  #: 0: a row without
        self._fact_ordinals: Dict[tuple, int] = {}
        #: The last recorded trigger id (the object) and its ordinal.
        self._last_trigger, self._last_ordinal = object(), -1
        self._by_trigger: Dict[str, array] = {}
        self._indexed = 0

    # ------------------------------------------------------------------
    # Emission (the validator-side hot path when tracing is on)
    # ------------------------------------------------------------------
    def emit(self, at: float, trigger_id: Tuple, stage: str,
             verdict: Optional[str] = None, detail: str = "",
             **attrs: object) -> None:
        """Record one span."""
        self.record(at, trigger_id, self.shape(stage, verdict, detail, attrs))

    def shape(self, stage: str, verdict: Optional[str], detail: str,
              attrs: Mapping[str, object]) -> int:
        """The ordinal of a span shape, shared with every earlier span whose
        shape has equal values of the same types."""
        key = (stage, verdict, detail, *attrs.items(), type(stage),
               type(verdict), type(detail), *map(type, attrs.values()))
        try:
            return self._shape_ordinals[key]
        except (KeyError, TypeError):  # a new shape, or an unhashable value
            shape = (stage, verdict, detail, tuple(sorted(attrs.items())))
        types, ordinal = key[3 + len(attrs):], len(self._shapes)
        if _INTERNABLE.issuperset(types):
            # Every insertion order of one attribute set shares its entry.
            ordinal = self._shape_ordinals.setdefault(
                (*shape[:3], *shape[3], *types[:3],
                 *(type(value) for _, value in shape[3])), ordinal)
            self._shape_ordinals[key] = ordinal
        if ordinal == len(self._shapes):
            self._shapes.append(shape)
        return ordinal

    def facts(self, responses, alarms) -> int:
        """The ordinal of a decision's facts (its responders' ids and its
        alarms' offenders, each sorted, and whether it alarmed), to shift
        into a row code."""
        facts = (tuple(sorted({r.controller_id for r in responses})),
                 tuple(sorted({a.offending_controller for a in alarms
                               if a.offending_controller})), bool(alarms))
        key = (*facts, *map(type, facts[0] + facts[1]))
        ordinal = self._fact_ordinals.get(key)
        if ordinal is None:
            ordinal = self._fact_ordinals[key] = len(self._facts)
            self._facts.append(facts)
        return ordinal

    def record(self, at: float, trigger_id, code: int,
               value: float = NO_VALUE) -> None:
        """Record one row: a shape ordinal (see :meth:`shape`), with facts
        shifted in on a decision, bit-inverted if the trace must skip it."""
        if trigger_id is not self._last_trigger:
            try:
                ordinal = self._trigger_ordinals.get(trigger_id)
            except TypeError:  # unhashable
                ordinal = None
            if ordinal is None or self._triggers[ordinal] is not trigger_id:
                ordinal = self._trigger_ordinal(trigger_id)
            self._last_trigger, self._last_ordinal = trigger_id, ordinal
        self._at.append(at)
        self._trigger.append(self._last_ordinal)
        self._code.append(code)
        self._value.append(value)

    def _trigger_ordinal(self, trigger_id) -> int:
        triggers = self._triggers
        try:
            ordinal = self._trigger_ordinals.setdefault(trigger_id,
                                                        len(triggers))
        except TypeError:  # unhashable: an entry of its own
            ordinal = len(triggers)
        if ordinal < len(triggers) and triggers[ordinal] is not trigger_id:
            # Equal to an earlier id but another object: its entry only if
            # both print alike (internable, same types).
            types = _types(trigger_id)
            if not _INTERNABLE.issuperset(types):
                ordinal = len(triggers)
            elif types != _types(triggers[ordinal]):
                ordinal = self._variants.setdefault((trigger_id, *types),
                                                    len(triggers))
        if ordinal == len(triggers):
            triggers.append(trigger_id)
        return ordinal

    # ------------------------------------------------------------------
    # The log, as its views read it
    # ------------------------------------------------------------------
    def row(self, position: int) -> tuple:
        """One row: ``(at, trigger id, shape, value, facts, hidden)``, where
        ``shape`` is ``(stage, verdict, detail, attrs)`` and ``facts`` a
        decision's ``(responders, offenders, alarmed)`` or None."""
        code = self._code[position]
        hidden = code < 0
        if hidden:
            code = ~code
        return (self._at[position],
                self._triggers[self._trigger[position]],
                self._shapes[code & _SHAPE_MASK], self._value[position],
                self._facts[code >> FACTS_SHIFT], hidden)

    def rows(self, start: int = 0):
        """Every row from position ``start`` on, as :meth:`row` gives it."""
        return map(self.row, range(start, len(self._at)))

    def _shown(self) -> List[int]:
        """Positions of the rows the trace shows."""
        return [p for p, code in enumerate(self._code) if code >= 0]

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def _span(self, position: int) -> Span:
        return Span(self._at[position],
                    self._triggers[self._trigger[position]],
                    *self._shapes[self._code[position] & _SHAPE_MASK])

    @property
    def spans(self) -> Tuple[Span, ...]:
        """Every span, in emission order (built on read)."""
        return tuple(map(self._span, self._shown()))

    def __len__(self) -> int:
        return sum(code >= 0 for code in self._code)

    def _reprs(self) -> List[str]:
        """``repr`` of each distinct trigger id, by ordinal."""
        reprs = self._trigger_reprs
        reprs.extend(map(repr, self._triggers[len(reprs):]))
        return reprs

    def _index(self) -> Dict[str, array]:
        """The per-trigger index, caught up with every recorded span."""
        by_trigger, reprs, column, code = (self._by_trigger, self._reprs(),
                                           self._trigger, self._code)
        for position in range(self._indexed, len(column)):
            if code[position] >= 0:
                by_trigger.setdefault(reprs[column[position]],
                                      array("q")).append(position)
        self._indexed = len(column)
        return by_trigger

    def trigger_keys(self) -> List[str]:
        """``repr`` keys of every traced trigger, in first-seen order."""
        return list(self._index())

    def spans_for(self, trigger_id) -> List[Span]:
        """All spans of one trigger, in emission order.

        Accepts the trigger id tuple or its ``repr`` string (the form the
        CLI and JSON export use).
        """
        key = trigger_id if isinstance(trigger_id, str) else repr(trigger_id)
        return list(map(self._span, self._index().get(key, ())))

    def timeline(self, trigger_id) -> "TriggerTimeline":
        """The reconstructed lifecycle of one trigger."""
        spans = self.spans_for(trigger_id)
        key = trigger_id if isinstance(trigger_id, str) else repr(trigger_id)
        return TriggerTimeline(trigger_key=key, spans=sorted(
            spans, key=span_sort_key))

    def stage_counts(self) -> Dict[str, int]:
        """Span count per stage — the conservation ledger."""
        counts: Dict[str, int] = {}
        for code, count in Counter(self._code).items():
            if code >= 0:
                stage = self._shapes[code & _SHAPE_MASK][0]
                counts[stage] = counts.get(stage, 0) + count
        return counts

    # ------------------------------------------------------------------
    # Canonical encoding and JSON export
    # ------------------------------------------------------------------
    def _ordered(self, engine: bool) -> List[int]:
        """Shown positions in canonical order (``engine:*`` ones if asked)."""
        at, column, code = self._at, self._trigger, self._code
        reprs, ranks = self._reprs(), [STAGE_RANK.get(s[0], len(STAGE_RANK))
                                       for s in self._shapes]
        positions = self._shown()
        if not engine:
            kept = [not stage.startswith("engine:")
                    for stage, *_ in self._shapes]
            positions = [p for p in positions
                         if kept[code[p] & _SHAPE_MASK]]
        return sorted(positions, key=lambda p: (
            at[p], reprs[column[p]], ranks[code[p] & _SHAPE_MASK]))

    def canonical(self) -> bytes:
        """Byte-exact canonical encoding of the whole trace.

        Two runs are trace-equivalent iff their canonical encodings compare
        equal; see the module docstring for why this is engine-independent.
        ``engine:*`` spans (checkpoint/restore) are engine-*specific* by
        construction and are filtered out here, the same way shard indices
        are kept out of spans entirely.
        """
        at, column, code = self._at, self._trigger, self._code
        reprs, tails = self._reprs(), [_tail(*s) for s in self._shapes]
        return "\n".join(
            f"{at[p]:.9f}|{reprs[column[p]]}|{tails[code[p] & _SHAPE_MASK]}"
            for p in self._ordered(engine=False)).encode("utf-8")

    def to_payload(self) -> Dict[str, object]:
        """JSON-able export (the ``trace`` section of ``jury-repro report``)."""
        at, column, code = self._at, self._trigger, self._code
        reprs, shapes = self._reprs(), self._shapes
        spans = []
        for p in self._ordered(engine=True):
            stage, verdict, detail, attrs = shapes[code[p] & _SHAPE_MASK]
            spans.append({"t": at[p], "trigger": reprs[column[p]],
                          "stage": stage, "verdict": verdict,
                          "detail": detail, "attrs": dict(attrs)})
        return {
            "format": "jury-trace",
            "version": 1,
            "span_count": len(spans),
            "trigger_count": len(self._index()),
            "spans": spans,
        }

    @staticmethod
    def from_payload(payload: Dict[str, object]) -> "Tracer":
        """Rebuild a tracer from :meth:`to_payload` output.

        Trigger ids come back as their ``repr`` strings (tuples do not
        survive JSON); every lookup API accepts that form.
        """
        if payload.get("format") != "jury-trace":
            raise ValueError("not a jury-trace payload")
        tracer = Tracer()
        for entry in payload.get("spans", []):
            tracer.record(float(entry["t"]), _ReprKey(entry["trigger"]),
                          tracer.shape(str(entry["stage"]),
                                       entry.get("verdict"),
                                       str(entry.get("detail", "")),
                                       dict(entry.get("attrs") or {})))
        return tracer


class NullTracer(Tracer):
    """A tracer that records nothing (the explicit-object no-op path)."""

    enabled = False

    def emit(self, at, trigger_id, stage, verdict=None, detail="",
             **attrs) -> None:  # type: ignore[override]
        return None

    def record(self, at, trigger_id, code, value=NO_VALUE) -> None:
        return None


def attach(view, log: Tracer) -> None:
    """Point a view (the metrics registry, the replica health tracker or the
    flight recorder) at ``log``: it reads the rows recorded from now on. A
    view reads one log; attaching it to another is an error."""
    if view._log is None:
        view._log, view._start = log, len(log._at)
    elif view._log is not log:
        raise ValueError(f"this {type(view).__name__} already reads "
                         f"another event log")


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
