"""Batch / verdict frames exchanged between the pipeline and its workers.

A :class:`BatchFrame` carries one shard's pending arrivals (collected by the
parent under the same ``batch_max`` / overflow discipline the serial path
uses) to wherever the shard's :class:`~repro.core.backends.shardcore.ShardCore`
lives — an in-process call, a worker thread, or a worker process over a
pipe. The worker answers with a :class:`VerdictFrame`: an **ordered event
log** — one event per call the core made on its sink (Ψ observation, late
drop, decision) — plus counter deltas.

The event log is the heart of the equivalence argument: the parent replays
it in order through the same three sink methods an inline core calls
directly, so a decision's staleness/policy checks see exactly the Ψ prefix
they would have seen had the responses been processed in the parent.
Everything in a frame is picklable by construction — plain tuples,
``Response`` records (compact ``__reduce__``), and ``ConsensusOutcome``
dataclasses.
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
    """One decided trigger, minus everything the parent recomputes.

    The worker runs classification and consensus only; the parent runs
    the (cheap, pure) sanity check and the Ψ-dependent staleness/policy
    checks in :meth:`~repro.core.validator.DecisionCore.decision`, the
    same sink method an inline core calls, so alarm order, spans, and
    metrics are the serial path's by construction. The fields are that
    method's arguments.
    """

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
    #: Queue and overflow fully drained by this collection — the worker
    #: fires θτ deadlines up to ``now``.
    drained: bool
    #: θτ wakeup frame (may carry zero items): sent even when empty, so
    #: the worker fires the deadlines that are due.
    wakeup: bool = False
    #: Parent requests a state snapshot piggybacked on the verdict.
    want_snapshot: bool = False


@dataclass
class VerdictFrame:
    """The worker's answer to one :class:`BatchFrame`."""

    shard: int
    seq: int
    events: Tuple  #: ordered log of EV_* tuples (see module docstring)
    stats_delta: dict = field(default_factory=dict)
    #: Earliest armed θτ deadline after this frame (None: heap empty).
    next_deadline: Optional[float] = None
    #: Undecided triggers still held by the worker (pending_count mirror).
    open_records: int = 0
    #: Pickled ShardCore state, present iff the frame asked for one.
    snapshot: Optional[bytes] = None
    #: Wall-clock profile delta (repro.obs.profile) accumulated by the
    #: worker since its last shipment: ``{stage: (count, total_s, min_s,
    #: max_s)}``. Rides the verdict exactly like the snapshot does; None
    #: when profiling is off or nothing was measured.
    profile: Optional[dict] = None
