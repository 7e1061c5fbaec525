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

The tracer's columns are the observer stack's one **event log**, and this
module is the only one that knows what a row is: four machine words in
:mod:`array` columns — simulated time, an ordinal into the distinct
trigger ids, a code, and a float value (an ingest's response lag, a
decision's ``detection_ms``; NaN for none). The code holds the row's kind
in its low byte, an ordinal into the interned span shapes ``(stage,
verdict, detail, attrs)`` above it, and, on a decision, one into its
interned facts (:meth:`Tracer.facts`). The kind is decided when the row
is written: whether the trace shows the row (an unsampled decision, a
flight-recorder event is hidden) and which views read it. The trace
views skip hidden rows; the metrics, health and flight-recorder views are
handed every row, decoded (:class:`Rows`). So a kept row is no Python
object and never advances CPython's garbage collector; a :class:`Span`
is built only when read. Interning is
type-exact: ``1``, ``True`` and ``1.0`` (or a ``str`` and a ``str``
subclass) are equal but print differently, so they never share an entry.

The log is bounded: the trace keeps every row of the newest
:data:`RETAINED_TRIGGERS` traced triggers and of every trigger that
alarmed, and the other rows retire in chunks once each view has folded
them (:class:`Tracer` says how).

The tracer is one subscriber of the observer seam
(:class:`~repro.obs.observer.Observer`): engines report events there and
never call :meth:`Tracer.emit` themselves.
"""

from __future__ import annotations

import sys
from array import array
from bisect import bisect_left
from collections import Counter
from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, compress
from math import isnan
from operator import and_, le, not_, or_
from typing import Dict, Iterator, List, Optional, Tuple

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


#: A row's code: its kind in the low byte, its shape's ordinal in the next
#: 24 bits and its decision facts' ordinal above them.
_SHAPE_SHIFT, FACTS_SHIFT = 8, 32
_SHAPE_MASK = (1 << FACTS_SHIFT - _SHAPE_SHIFT) - 1
#: Where the kind byte of a code column entry sits in its bytes.
_KIND_BYTE = 0 if sys.byteorder == "little" else 7
#: The value of a row that carries none (a value is never NaN).
NO_VALUE = float("nan")
#: A forgotten trigger's entry, until ordinals are renumbered.
_HOLE = None
#: A row's kind, decided when it is written, has a bit each for: the trace
#: shows it, an ``ingest``, a decision with facts, and a flight event (a
#: hidden, ``decide``, ``alarm`` or ``engine:*`` row).
_SHOWN, _RESPONSE, _DECISION, _FLIGHT = 1, 2, 4, 8
_FLIGHT_STAGES = {DECIDE, ALARM, ENGINE_CHECKPOINT, ENGINE_RESTORE}
#: The code bits a hidden row keeps (:meth:`Tracer.hidden`).
_UNSHOWN = ~_SHOWN
#: ``bytes.translate`` tables picking, by kind byte, the rows with one of
#: those bits; and picking the zero bytes of a flag column.
_PICK = {bit: bytes(kind & bit and 1 for kind in range(256))
         for bit in (_SHOWN, _RESPONSE, _DECISION, _FLIGHT)}
_ZEROS = bytes(map((0).__eq__, range(256)))
#: A value column entry for a row without a value (an ``ingest`` row's lag).
_NO_LAGS = array("d", [NO_VALUE]).tobytes()


def positions(selector: bytes) -> List[int]:
    """The indices of a sparse 0/1 ``selector``'s ones."""
    found, index = [], selector.find(1)
    while index >= 0:
        found.append(index)
        index = selector.find(1, index + 1)
    return found


#: How many traced triggers (whose first row the trace shows) the trace
#: keeps every row of, newest first; an alarmed one is kept at any age.
RETAINED_TRIGGERS = 4096


class Tracer:
    """Keeps the lifecycle spans of the triggers that cross the system.

    One tracer is shared by the whole deployment (replicators, validator,
    alarm emission). It keeps (see the module docstring) ``_at``,
    ``_trigger``, ``_code`` and ``_value`` (one column entry each per
    row); ``_triggers``, ``_shapes``, ``_facts`` (distinct trigger ids,
    shapes and decision facts by ordinal, keyed on values plus types: a
    value outside ``_INTERNABLE`` gets an entry of its own); and
    ``_by_trigger`` (shown rows per trigger ``repr``, on read).

    **Retention.** The trace shows every row of the newest
    :data:`RETAINED_TRIGGERS` traced triggers (by first row) and of every
    trigger with an ``alarm`` row. A row for a trigger that has left that
    set, and is not among the newest that many interned, starts it afresh,
    so what the trace shows depends on the recorded rows alone. Each time
    that many triggers are interned, every view attached to the log
    (:func:`attach`) folds the rows it has not read (:meth:`fold`), and
    then the rows retire (:meth:`_retire`).

    :meth:`emit` records any span; a hot caller asks :meth:`shape` once
    per distinct shape and passes the ordinal to :meth:`record`.
    """

    def __init__(self) -> None:
        self._at, self._trigger, self._code, self._value = (
            array("d"), array("q"), array("q"), array("d"))
        #: Trigger id -> the ordinal of the object first interned for it,
        #: ``(id, *types)`` -> that of an equal id that prints differently.
        self._triggers: List[object] = []
        self._trigger_ordinals: Dict[object, int] = {}
        self._variants: Dict[tuple, int] = {}
        self._trigger_reprs: List[str] = []
        #: Per ordinal: traced, alarmed, first row's position.
        self._traced, self._alarmed, self._first = (
            bytearray(), bytearray(), array("q"))
        self._shapes: List[tuple] = []
        self._shape_ordinals: Dict[tuple, int] = {}
        self._facts: List[Optional[tuple]] = [None]  #: 0: a row without
        self._fact_ordinals: Dict[tuple, int] = {}
        #: The last recorded trigger id (the object) and its ordinal.
        self._last_trigger, self._last_ordinal = object(), -1
        #: Retention (:meth:`_retire`): ordinals below ``_horizon`` may have
        #: left the kept set; column entry 0 is at position ``_base`` (from
        #: ``_cut`` on; before it, alarmed rows up to ``_archived``, then
        #: ``[end, ordinal bound]`` segments); holes, how far forgotten.
        self._window = RETAINED_TRIGGERS
        #: Each attached view, and the position it has folded up to.
        self._views: Dict[object, int] = {}
        self._horizon, self._compact_at = -self._window, self._window
        self._base = self._cut = self._archived = 0
        self._segments: List[List[int]] = []
        self._holes = self._forgotten = self._forgotten_untraced = 0
        self._dropped_spans = self._dropped_triggers = 0
        self._loaded_retirement: Optional[Dict[str, object]] = None
        self._by_trigger: Dict[str, array] = {}
        self._indexed: Optional[int] = None

    # ------------------------------------------------------------------
    # Emission (the validator-side hot path when tracing is on)
    # ------------------------------------------------------------------
    def emit(self, at: float, trigger_id: Tuple, stage: str,
             verdict: Optional[str] = None, detail: str = "",
             **attrs: object) -> None:
        """Record one span; an ``alarm`` marks its trigger alarmed (the
        trace keeps it)."""
        self.record(at, trigger_id, self.shape(stage, verdict, detail, attrs))
        if stage == ALARM:
            self._alarmed[self._last_ordinal] = 1

    def shape(self, stage: str, verdict: Optional[str], detail: str,
              attrs: Mapping[str, object]) -> int:
        """The code of a span shape (its ordinal, and the kind of a shown
        row of it), shared with every earlier span whose shape has equal
        values of the same types."""
        key = (stage, verdict, detail, *attrs.items(), type(stage),
               type(verdict), type(detail), *map(type, attrs.values()))
        try:
            return self._shape_ordinals[key]
        except (KeyError, TypeError):  # a new shape, or an unhashable value
            shape = (stage, verdict, detail, tuple(sorted(attrs.items())))
        types, code = key[3 + len(attrs):], (
            len(self._shapes) << _SHAPE_SHIFT | _SHOWN
            | (stage == INGEST) * _RESPONSE
            | (stage in _FLIGHT_STAGES) * _FLIGHT)
        if _INTERNABLE.issuperset(types):
            # Every insertion order of one attribute set shares its entry.
            code = self._shape_ordinals.setdefault(
                (*shape[:3], *shape[3], *types[:3],
                 *(type(value) for _, value in shape[3])), code)
            self._shape_ordinals[key] = code
        if code >> _SHAPE_SHIFT == len(self._shapes):
            if code >> _SHAPE_SHIFT > _SHAPE_MASK:
                raise OverflowError("more span shapes than a code can name")
            self._shapes.append(shape)
        return code

    def facts(self, responses, alarms) -> int:
        """The code of a decision's facts (its responders' ids and its
        alarms' offenders, each sorted, and whether it alarmed): a
        ``decide`` row's code is its shape's plus this."""
        facts = (tuple(sorted({r.controller_id for r in responses})),
                 tuple(sorted({a.offending_controller for a in alarms
                               if a.offending_controller})), bool(alarms))
        key = (*facts, *map(type, facts[0] + facts[1]))
        ordinal = self._fact_ordinals.get(key)
        if ordinal is None:
            ordinal = self._fact_ordinals[key] = len(self._facts)
            self._facts.append(facts)
        return ordinal << FACTS_SHIFT | _DECISION

    def hidden(self, code: int) -> int:
        """The code of a row of ``code`` that the trace views skip (the
        flight recorder hears it)."""
        return code & _UNSHOWN | _FLIGHT

    def record(self, at: float, trigger_id, code: int,
               value: float = NO_VALUE) -> None:
        """Record one row of ``code``: a shape's (see :meth:`shape`), plus
        its facts' on a decision (:meth:`facts`), made :meth:`hidden` if the
        trace must skip it. Its kind is written with it, in its code; an
        ``alarm`` row is :meth:`emit`-ted."""
        if trigger_id is not self._last_trigger:
            try:
                ordinal = self._trigger_ordinals.get(trigger_id)
            except TypeError:  # unhashable
                ordinal = None
            if (ordinal is None or ordinal < self._horizon
                    or self._triggers[ordinal] is not trigger_id):
                ordinal = self._trigger_ordinal(trigger_id, code & _SHOWN)
            self._last_trigger, self._last_ordinal = trigger_id, ordinal
        self._at.append(at)
        self._trigger.append(self._last_ordinal)
        self._code.append(code)
        self._value.append(value)

    def decode(self, code: int) -> tuple:
        """What a row of ``code`` means: ``(stage, verdict, detail, attrs,
        facts)``, ``facts`` being ``(responders, offenders, alarmed)`` on a
        decision that carries them, else None."""
        return (*self._shapes[code >> _SHAPE_SHIFT & _SHAPE_MASK],
                self._facts[code >> FACTS_SHIFT])

    def _kinds(self, start: int = 0, end: Optional[int] = None) -> bytes:
        """The kind bytes of column entries ``[start, end)``."""
        return self._code[start:end].tobytes()[_KIND_BYTE::8]

    def _trigger_ordinal(self, trigger_id, shown: int) -> int:
        """The live ordinal of ``trigger_id`` (a row, ``shown`` or not, is
        about to be recorded for it), interning it afresh if it has none."""
        triggers, hashable = self._triggers, True
        try:
            primary = self._trigger_ordinals.get(trigger_id)
        except TypeError:  # unhashable: an entry of its own
            primary, hashable = None, False
        ordinal, key = primary, None
        if primary is not None and triggers[primary] is not trigger_id:
            # Another object equal to an interned id shares its entry only
            # if both print alike (internable, same types).
            types = _types(trigger_id)
            if not _INTERNABLE.issuperset(types):
                ordinal = None
            elif types != _types(triggers[primary]):
                key = (trigger_id, *types)
                ordinal = self._variants.get(key)
        if ordinal is not None and self._live(ordinal):
            return ordinal
        if len(triggers) >= self._compact_at:
            self._retire()
            return self._trigger_ordinal(trigger_id, shown)
        ordinal = len(triggers)
        triggers.append(trigger_id)
        self._traced.append(shown)
        self._alarmed.append(0)
        self._first.append(self._end())
        self._horizon += 1
        if key is not None:
            self._variants[key] = ordinal
        elif hashable and (primary is None or not self._live(primary)):
            self._trigger_ordinals[trigger_id] = ordinal
        return ordinal

    # ------------------------------------------------------------------
    # Views and retention
    # ------------------------------------------------------------------
    def _end(self) -> int:
        """The position after the last row (positions count every row ever
        recorded, retired or not)."""
        return self._base + len(self._at)

    def fold(self, view=None) -> None:
        """Hand ``view`` (every attached one by default) the rows recorded
        since it last folded, if any, as one :class:`Rows`:
        ``view.fold(rows)``. Views that last folded at one position share
        one, so its counts are taken once."""
        end, shared = self._end(), {}
        for reader in (self._views if view is None else (view,)):
            start = self._views[reader]
            if start < end:
                self._views[reader] = end  # (before: a fold may read again)
                rows = shared.get(start)
                if rows is None:
                    rows = shared[start] = Rows(self, start)
                reader.fold(rows)

    def unread(self, view) -> "Rows":
        """The rows ``view`` has not folded, leaving them unfolded."""
        return Rows(self, self._views[view])

    def _live(self, ordinal: int) -> bool:
        """Whether a row may still name ``ordinal``: one of the newest
        ``_window`` interned, or a trigger the trace keeps."""
        if ordinal >= self._horizon:
            return True
        return bool(self._alarmed[ordinal] or self._traced[ordinal]
                    and self._traced.count(1, ordinal + 1) < self._window)

    def _floor(self) -> int:
        """The oldest of the newest ``_window`` traced ordinals."""
        floor = len(self._traced)
        for _ in range(min(self._window, floor)):
            found = self._traced.rfind(1, 0, floor)
            if found < 0:
                break
            floor = found
        return floor

    def _alive(self) -> bytearray:
        """Per ordinal, whether the trace shows its rows."""
        alive, floor = bytearray(self._alarmed), self._floor()
        alive[floor:] = bytes(map(or_, alive[floor:], self._traced[floor:]))
        return alive

    def _retire(self) -> None:
        """Let every view fold its rows, then retire them all: they become
        a segment of the shown rows from the oldest kept traced trigger's
        first row on, and of the alarmed triggers' rows before it; a
        segment whose triggers all left the kept set keeps only the
        latter. A trigger no later row names leaves the tables, its ordinal
        a hole until holes outnumber the rest (then :meth:`_renumber`)."""
        self.fold()
        cut = self._end()
        floor = self._floor()
        start, head = self._cut - self._base, cut - self._base
        split = max(self._first[floor] if floor < len(self._first) else cut,
                    self._cut) - self._base
        head = start + self._sift(start, split, head)
        if head > start:
            self._segments.append([head, len(self._triggers)])
        self._base, self._cut = cut - head, cut
        while self._segments and self._segments[0][1] <= floor:
            end, start = self._segments.pop(0)[0], self._archived
            removed = end - start - self._sift(start, end, end)
            self._archived = end - removed
            for segment in self._segments:
                segment[0] -= removed
            self._base += removed
        # Every row is before the cut, so a later row names a trigger live
        # when it is recorded: alarmed, or not older than the oldest of the
        # newest traced or interned now (both only rise).
        interned = len(self._triggers)
        self._forget(min(floor, interned - self._window),
                     interned - self._window)
        if self._holes >= 4 * max(self._window,
                                  len(self._triggers) - self._holes):
            self._renumber()
        self._last_trigger, self._indexed = object(), None
        self._compact_at = len(self._triggers) + self._window

    def _sift(self, start: int, split: int, end: int) -> int:
        """Keep, of columns ``[start, end)``, the alarmed triggers' shown
        rows and every shown row from ``split`` on; returns how many."""
        shown = self._kinds(start, end).translate(_PICK[_SHOWN])
        alarmed = bytes(map(self._alarmed.__getitem__,
                            self._trigger[start:split]))
        chosen = [start + index for index in positions(
            (int.from_bytes(shown[:split - start], "little")  # bytewise
             & int.from_bytes(alarmed, "little")).to_bytes(split - start,
                                                           "little"))]
        whole = split  # (from here on, all shown: kept as they are)
        if shown.find(0, split - start) >= 0:
            chosen += [split + index
                       for index in positions(shown[split - start:])]
            whole = end
        kept = len(chosen) + end - whole
        self._dropped_spans += shown.count(1) - kept
        if kept < end - start:
            for column in (self._at, self._trigger, self._code, self._value):
                column[start:whole] = array(column.typecode,
                                            map(column.__getitem__, chosen))
        return kept

    def _forget(self, below: int, untraced: int) -> None:
        """Drop every trigger below ordinal ``below`` that did not alarm,
        and every untraced one below ``untraced``."""
        start, loose = self._forgotten, max(below, self._forgotten_untraced)
        self._forgotten = below = max(start, below)
        self._forgotten_untraced = untraced = max(loose, untraced)
        triggers, ordinals = self._triggers, self._trigger_ordinals
        for ordinal in chain(range(start, below), (
                loose + index for index in positions(
                    self._traced[loose:untraced].translate(_ZEROS)))):
            trigger_id = triggers[ordinal]
            if trigger_id is _HOLE or self._alarmed[ordinal]:
                continue
            triggers[ordinal] = _HOLE
            self._holes += 1
            self._dropped_triggers += self._traced[ordinal]
            self._traced[ordinal] = 0
            try:
                if ordinals.get(trigger_id) == ordinal:
                    del ordinals[trigger_id]
            except TypeError:  # unhashable: never interned by value
                continue
            if self._variants:
                key = (trigger_id, *_types(trigger_id))
                if self._variants.get(key) == ordinal:
                    del self._variants[key]
        self._trigger_reprs[start:] = []

    def _renumber(self) -> None:
        """Close the holes: renumber the named triggers densely, after a
        new hole 0 that the rows of forgotten ones name."""
        named = [ordinal for ordinal, trigger_id in enumerate(self._triggers)
                 if trigger_id is not _HOLE]
        remap = array("q", [0]) * len(self._triggers)
        for new, old in enumerate(named, 1):
            remap[old] = new
        self._trigger = array("q", map(remap.__getitem__, self._trigger))
        self._triggers = [_HOLE, *map(self._triggers.__getitem__, named)]
        self._traced = bytearray(1) + bytes(map(self._traced.__getitem__,
                                                named))
        self._alarmed = bytearray(1) + bytes(map(self._alarmed.__getitem__,
                                                 named))
        self._first = array("q", [0, *map(self._first.__getitem__, named)])
        self._trigger_reprs = []
        self._trigger_ordinals = {trigger_id: remap[old] for trigger_id, old
                                  in self._trigger_ordinals.items()}
        self._variants = {key: remap[old]
                          for key, old in self._variants.items()}
        for segment in self._segments:
            segment[1] = bisect_left(named, segment[1]) + 1
        self._forgotten = bisect_left(named, self._forgotten) + 1
        self._forgotten_untraced = bisect_left(
            named, self._forgotten_untraced) + 1
        self._horizon = len(self._triggers) - self._window
        self._holes = 0

    def retirement(self) -> Optional[Dict[str, object]]:
        """What the trace no longer shows — retired spans and traced
        triggers, and the first and last of the newest ones it keeps — or
        None while it shows every span it was given."""
        if self._loaded_retirement is not None:
            return self._loaded_retirement
        alive, shown = self._alive(), self._kinds().translate(_PICK[_SHOWN])
        spans = self._dropped_spans + shown.count(1) - len(self._shown())
        triggers = self._dropped_triggers + self._traced.count(1) - sum(
            map(and_, self._traced, alive))
        if not spans and not triggers:
            return None
        floor, reprs = self._floor(), self._reprs()
        newest = positions(self._traced[floor:])
        return {"spans": spans, "triggers": triggers, "window": [
            reprs[floor + newest[0]], reprs[floor + newest[-1]]]
            if newest else []}

    def _shown(self) -> List[int]:
        """Column indices of the rows the trace shows."""
        alive = self._alive()
        return list(compress(range(len(self._code)), map(
            and_, map(alive.__getitem__, self._trigger),
            self._kinds().translate(_PICK[_SHOWN]))))

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def _span(self, position: int) -> Span:
        return Span(self._at[position],
                    self._triggers[self._trigger[position]],
                    *self.decode(self._code[position])[:4])

    @property
    def spans(self) -> Tuple[Span, ...]:
        """Every span the trace shows, in emission order (built on read)."""
        return tuple(map(self._span, self._shown()))

    def __len__(self) -> int:
        return len(self._shown())

    def _reprs(self) -> List[str]:
        """``repr`` of each distinct trigger id, by ordinal."""
        reprs = self._trigger_reprs
        reprs.extend(map(repr, self._triggers[len(reprs):]))
        return reprs

    def _index(self) -> Dict[str, array]:
        """The per-trigger index of the rows the trace shows."""
        if self._indexed != len(self._code):
            by_trigger, reprs, column = {}, self._reprs(), self._trigger
            for position in self._shown():
                by_trigger.setdefault(reprs[column[position]],
                                      array("q")).append(position)
            self._by_trigger, self._indexed = by_trigger, len(self._code)
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
        for code, count in Counter(map(self._code.__getitem__,
                                       self._shown())).items():
            stage = self.decode(code)[0]
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
                         if kept[code[p] >> _SHAPE_SHIFT & _SHAPE_MASK]]
        return sorted(positions, key=lambda p: (
            at[p], reprs[column[p]],
            ranks[code[p] >> _SHAPE_SHIFT & _SHAPE_MASK]))

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
            f"{at[p]:.9f}|{reprs[column[p]]}|"
            f"{tails[code[p] >> _SHAPE_SHIFT & _SHAPE_MASK]}"
            for p in self._ordered(engine=False)).encode("utf-8")

    def to_payload(self) -> Dict[str, object]:
        """JSON-able export (the ``trace`` section of ``jury-repro report``).
        A ``retired`` field appears once a span has retired."""
        at, column, code = self._at, self._trigger, self._code
        reprs, shapes = self._reprs(), self._shapes
        spans = []
        for p in self._ordered(engine=True):
            stage, verdict, detail, attrs = shapes[
                code[p] >> _SHAPE_SHIFT & _SHAPE_MASK]
            spans.append({"t": at[p], "trigger": reprs[column[p]],
                          "stage": stage, "verdict": verdict,
                          "detail": detail, "attrs": dict(attrs)})
        payload = {
            "format": "jury-trace",
            "version": 1,
            "span_count": len(spans),
            "trigger_count": len(self._index()),
            "spans": spans,
        }
        retired = self.retirement()
        if retired is not None:
            payload["retired"] = retired
        return payload

    @staticmethod
    def from_payload(payload: Dict[str, object]) -> "Tracer":
        """Rebuild a tracer from :meth:`to_payload` output.

        Trigger ids come back as their ``repr`` strings (tuples do not
        survive JSON); every lookup API accepts that form. A reloaded trace
        keeps every span it is given.
        """
        if payload.get("format") != "jury-trace":
            raise ValueError("not a jury-trace payload")
        tracer = Tracer()
        tracer._window = tracer._compact_at = sys.maxsize
        tracer._horizon = -sys.maxsize
        for entry in payload.get("spans", []):
            tracer.record(float(entry["t"]), _ReprKey(entry["trigger"]),
                          tracer.shape(str(entry["stage"]),
                                       entry.get("verdict"),
                                       str(entry.get("detail", "")),
                                       dict(entry.get("attrs") or {})))
        tracer._loaded_retirement = payload.get("retired")
        return tracer


def attach(view, log: Tracer) -> None:
    """Point a view (the metrics registry, the replica health tracker or the
    flight recorder) at ``log``: it is handed the rows recorded from now on
    (:meth:`Tracer.fold`), each once, when it asks and at the latest before
    they retire. A view reads one log; attaching it to another is an
    error."""
    if view._log is None:
        view._log, log._views[view] = log, log._end()
    elif view._log is not log:
        raise ValueError(f"this {type(view).__name__} already reads "
                         f"another event log")


class Rows:
    """The rows of a log from one position to its end, as a view folds
    them: each distinct code's count and meaning, and the columns of the
    rows of one kind, in log order. Only :meth:`flight` (and
    :meth:`earliest`, until every code has appeared) returns an object per
    row."""

    def __init__(self, log: Tracer, start: int) -> None:
        self._log, self._first = log, start - log._base
        self._at, self._codes, self._values = (
            column[self._first:] for column in (log._at, log._code,
                                                log._value))
        self._kinds = self._codes.tobytes()[_KIND_BYTE::8]
        self.until = self._at[-1] if self._at else None  #: last row's time

    @cached_property
    def tally(self) -> List[Tuple[int, int, tuple]]:
        """``(code, count, meaning)`` per distinct code, in the order of
        each code's last row (meaning: :meth:`Tracer.decode`)."""
        return [(code, count, self._log.decode(code)) for code, count
                in reversed(Counter(self._codes[::-1]).items())]

    @cached_property
    def decisions(self) -> Tuple[array, array, array]:
        """Time, code and ``detection_ms`` of each decision with facts."""
        chosen = positions(self._kinds.translate(_PICK[_DECISION]))
        return tuple(array(column.typecode, map(column.__getitem__, chosen))
                     for column in (self._at, self._codes, self._values))

    def lagged(self) -> Tuple[array, array, array]:
        """Time, code and lag of each ``ingest`` row that carries a lag."""
        chosen = self._kinds.translate(_PICK[_RESPONSE])
        lags = array("d", compress(self._values, chosen))
        if lags.tobytes() == _NO_LAGS * len(lags):  # (NaN: no lag)
            return array("d"), array("q"), array("d")
        lagged = bytes(map(not_, map(isnan, lags)))
        return (array("d", compress(compress(self._at, chosen), lagged)),
                array("q", compress(compress(self._codes, chosen), lagged)),
                array("d", compress(lags, lagged)))

    def earliest(self, codes) -> List[Tuple[float, int, float]]:
        """``(t, code, value)`` of the rows of ``codes`` in log order, up to
        the time each has appeared by (all of them if the rows are not in
        time order): every code's earliest rows are among them."""
        wanted = set(codes)
        chosen = bytes(map(wanted.__contains__, self._codes))
        ordered, early = all(map(le, self._at, self._at[1:])), []
        for row in zip(compress(self._at, chosen),
                       compress(self._codes, chosen),
                       compress(self._values, chosen)):
            if ordered and not wanted and row[0] > early[-1][0]:
                break
            early.append(row)
            wanted.discard(row[1])
        return early

    def flight(self, last: int) -> Tuple[int, Iterator[tuple]]:
        """How many flight events (hidden, ``decide``, ``alarm`` and
        ``engine:*`` rows) there are, and the last ``last`` of them as
        ``(t, trigger id, value, code)``, oldest first."""
        found = positions(self._kinds.translate(_PICK[_FLIGHT]))
        chosen, ordinals = found[-last:], self._log._trigger[self._first:]
        return len(found), zip(
            map(self._at.__getitem__, chosen),
            map(self._log._triggers.__getitem__,
                map(ordinals.__getitem__, chosen)),
            map(self._values.__getitem__, chosen),
            map(self._codes.__getitem__, chosen))


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
