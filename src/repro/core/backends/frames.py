"""Batch / verdict frames around one :meth:`ShardCore.process` call.

A :class:`BatchFrame` carries one shard's arrivals at a simulated instant;
:meth:`~repro.core.backends.shardcore.ShardCore.process` runs it and answers
with a :class:`VerdictFrame`: an **ordered event log** — one event per call
the core made on its sink (Ψ observation, late drop, decision) — plus
counter deltas. Replaying the log in order through the same three sink
methods an engine's core calls directly reproduces the engine's effects.

The validation engines no longer use frames: every shard runs its core in
process. The last user is the benchmark's frame kernel (``bench/kernels.py``,
traced ``stream-pipe4-faulty``), which times pickling these records and
:meth:`ShardCore.process`. Everything in a frame is picklable by
construction — plain tuples, ``Response`` records (compact
``__reduce__``), and ``ConsensusOutcome`` dataclasses.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

from repro.core.consensus import ConsensusOutcome

# Event-log tags (first element of each event tuple); the rest of the
# tuple is the sink method's arguments.
EV_PSI = 0       #: ``(tag, controller_id, cached, entry, progress)``
EV_LATE = 1      #: ``(tag, trigger_id, controller_id)`` — late drop
EV_DECISION = 2  #: ``(tag, DecisionRecord)`` — a trigger decided


@dataclass
class DecisionRecord:
    """One decided trigger: the arguments of the sink's
    :meth:`~repro.core.validator.DecisionCore.decision` call, which runs
    the sanity, staleness and policy checks on replay."""

    trigger_id: Tuple
    count: int
    external: bool
    timed_out: bool
    detection_ms: float
    outcome: ConsensusOutcome
    responses: Tuple


@dataclass
class BatchFrame:
    """One shard's work unit: responses collected at a simulated instant."""

    shard: int
    seq: int
    now: float
    items: Tuple  #: ``((arrived_at, Response), ...)`` in arrival order
    #: Nothing older is still queued behind these items — the core fires
    #: θτ deadlines up to ``now``.
    drained: bool
    #: θτ wakeup frame (may carry zero items).
    wakeup: bool = False


@dataclass
class VerdictFrame:
    """The answer to one :class:`BatchFrame`."""

    shard: int
    seq: int
    events: Tuple  #: ordered log of EV_* tuples (see module docstring)
    stats_delta: dict = field(default_factory=dict)
    #: Earliest armed θτ deadline after this frame (None: heap empty).
    next_deadline: Optional[float] = None
    #: Undecided triggers still held by the core.
    open_records: int = 0
