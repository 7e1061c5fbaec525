"""In-memory span recorder for the traced run.

A span is ``(name, start, end, parent, trigger)``; spans nest by call
stack. Self time is computed when a span closes — its duration minus the
durations of its direct children — and summed per *layer* (the prefix of
the span name up to the first dot, e.g. ``datastore.put`` → ``datastore``).
Spans live in flat ``array`` columns so a window of a few million calls
costs tens of MiB, and are written out once, after the window.

Recording is driven from the benchmark's own files: :mod:`bench.layers`
wraps the program's public callables with :meth:`SpanRecorder.wrap`, and
the stream loops in :mod:`bench.workloads` call :meth:`add` around their
own calls into the engine. Nothing under ``src/`` knows this exists.
"""

from __future__ import annotations

import json
import time
from array import array
from typing import Callable, Dict, List, Optional

#: Spans written to a trace file; the aggregate tables cover all of them.
MAX_SPANS_WRITTEN = 20_000

_clock = time.perf_counter


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


class SpanRecorder:
    """Flat span storage plus per-layer self-time accounting."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._name_index: Dict[str, int] = {}
        self._layer_of_name: List[int] = []
        self.layers: List[str] = []
        self._layer_index: Dict[str, int] = {}
        self.name_col = array("H")
        self.start_col = array("d")
        self.end_col = array("d")
        self.parent_col = array("l")
        self.trigger_col = array("q")
        #: Self seconds and call counts per layer / per span name.
        self.layer_self: List[float] = []
        self.name_total: List[float] = []
        self.name_calls: List[int] = []
        #: Sum of root-span durations (what the layers account for).
        self.root_total = 0.0
        self.on = False
        # Open-span stack: parallel lists of span index and child seconds.
        self._open: List[int] = []
        self._child: List[float] = []

    # ------------------------------------------------------------------
    def name_id(self, name: str) -> int:
        index = self._name_index.get(name)
        if index is None:
            index = self._name_index[name] = len(self.names)
            self.names.append(name)
            self.name_total.append(0.0)
            self.name_calls.append(0)
            layer = layer_of(name)
            layer_index = self._layer_index.get(layer)
            if layer_index is None:
                layer_index = self._layer_index[layer] = len(self.layers)
                self.layers.append(layer)
                self.layer_self.append(0.0)
            self._layer_of_name.append(layer_index)
        return index

    def __len__(self) -> int:
        return len(self.name_col)

    # ------------------------------------------------------------------
    # Nested spans (wrapped callables)
    # ------------------------------------------------------------------
    def begin(self, name_id: int, trigger: int = -1) -> None:
        open_spans = self._open
        self.name_col.append(name_id)
        self.parent_col.append(open_spans[-1] if open_spans else -1)
        self.trigger_col.append(trigger)
        self.end_col.append(0.0)
        open_spans.append(len(self.start_col))
        self._child.append(0.0)
        self.start_col.append(_clock())

    def end(self) -> None:
        now = _clock()
        index = self._open.pop()
        children = self._child.pop()
        self.end_col[index] = now
        duration = now - self.start_col[index]
        name_id = self.name_col[index]
        self.name_total[name_id] += duration
        self.name_calls[name_id] += 1
        self.layer_self[self._layer_of_name[name_id]] += duration - children
        if self._child:
            self._child[-1] += duration
        else:
            self.root_total += duration

    def wrap(self, name: str, fn: Callable,
             trigger_of: Optional[Callable] = None) -> Callable:
        """``fn`` recorded as a span named ``name`` while recording is on."""
        name_id = self.name_id(name)
        begin, end = self.begin, self.end

        def traced(*args, **kwargs):
            if not self.on:
                return fn(*args, **kwargs)
            begin(name_id, trigger_of(*args, **kwargs) if trigger_of else -1)
            try:
                return fn(*args, **kwargs)
            finally:
                end()

        traced.__wrapped__ = fn
        return traced

    # ------------------------------------------------------------------
    # Flat spans (the stream loops time their own calls)
    # ------------------------------------------------------------------
    def add(self, name_id: int, start: float, end: float,
            trigger: int = -1) -> None:
        """One closed root span with no children."""
        self.name_col.append(name_id)
        self.parent_col.append(-1)
        self.trigger_col.append(trigger)
        self.start_col.append(start)
        self.end_col.append(end)
        duration = end - start
        self.name_total[name_id] += duration
        self.name_calls[name_id] += 1
        self.layer_self[self._layer_of_name[name_id]] += duration
        self.root_total += duration

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def calls(self, name: str) -> int:
        index = self._name_index.get(name)
        return self.name_calls[index] if index is not None else 0

    def total_s(self, name: str) -> float:
        index = self._name_index.get(name)
        return self.name_total[index] if index is not None else 0.0

    def mean_us(self, name: str) -> float:
        calls = self.calls(name)
        return self.total_s(name) * 1e6 / calls if calls else 0.0

    def durations_us(self, name: str) -> List[float]:
        index = self._name_index.get(name)
        if index is None:
            return []
        starts, ends = self.start_col, self.end_col
        return [(ends[i] - starts[i]) * 1e6
                for i, n in enumerate(self.name_col) if n == index]

    def self_seconds(self) -> Dict[str, float]:
        return dict(zip(self.layers, self.layer_self))

    def shares(self, window_s: float) -> Dict[str, float]:
        """Per-layer self share of ``window_s`` in percent, plus the rest.

        ``unattributed`` is the part of the window no layer accounts for:
        time outside every span, and spans of callbacks whose owner is not
        one of the program's layers.
        """
        shares = {layer: 100.0 * seconds / window_s
                  for layer, seconds in self.self_seconds().items()}
        stray = shares.pop("unattributed", 0.0)
        shares["unattributed"] = (
            stray + 100.0 * (window_s - self.root_total) / window_s)
        return shares

    def write(self, path: str, workload: str, window_s: float,
              extra: Optional[Dict[str, object]] = None) -> None:
        limit = min(len(self), MAX_SPANS_WRITTEN)
        origin = self.start_col[0] if len(self) else 0.0
        payload = {
            "workload": workload,
            "window_s": window_s,
            "spans_total": len(self),
            "spans_written": limit,
            "span_fields": ["name", "start_us", "end_us", "parent",
                            "trigger"],
            "names": self.names,
            "layer_self_s": self.self_seconds(),
            "layer_share_pct": self.shares(window_s),
            "per_name": {
                name: {"calls": self.name_calls[i],
                       "total_s": self.name_total[i]}
                for i, name in enumerate(self.names)},
            "spans": [
                [self.name_col[i],
                 round((self.start_col[i] - origin) * 1e6, 3),
                 round((self.end_col[i] - origin) * 1e6, 3),
                 self.parent_col[i], self.trigger_col[i]]
                for i in range(limit)],
        }
        if extra:
            payload.update(extra)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, separators=(",", ":"))
            handle.write("\n")
