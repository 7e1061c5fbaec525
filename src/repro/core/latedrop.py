"""The late-drop window: which triggers were decided recently enough that a
straggling response must be dropped instead of opening a fresh record.

A promise-held FLOW_MOD can leave its controller after θτ has already
fired. Without this window it would open a new Vτ record, be judged alone at
the next θτ, and raise a spurious alarm. Every
:class:`~repro.core.backends.shardcore.ShardCore` — the one decision engine,
whoever drives it — keeps one :class:`LateDropWindow`; the cap and the
horizon are named here and nowhere else.

Retention rule: while at most :data:`LATE_DROP_CAP` triggers are held
nothing expires, so low-rate runs remember every decision; above the cap,
entries decided more than :data:`LATE_DROP_HORIZON_TIMEOUTS` × θτ ago are
forgotten.

Expiry relies on one invariant: **decision time is non-decreasing** (the
``now`` a core is run with: the simulator clock, ``frame.now`` in a worker),
so the entries that fall behind the horizon are always a prefix of the
decision order and can be popped from the head of a deque in O(1) each. The
dict alone cannot serve as that queue: ``next(iter(d))`` rescans the deleted
head slots on every call until the next resize.
"""

from __future__ import annotations

from collections import deque
from operator import itemgetter
from typing import Deque, Dict, Mapping, Tuple

#: Population above which expiry starts.
LATE_DROP_CAP = 20_000
#: Above the cap, a decision is remembered for this many θτ.
LATE_DROP_HORIZON_TIMEOUTS = 20.0


class LateDropWindow:
    """Recently decided triggers, expiring from the oldest decision.

    :attr:`decided` (``tau → decided_at``, decision order) is mutated in
    place and never rebound, so a hot loop may hoist it into a local for
    membership tests and still see every later :meth:`add` and
    :meth:`expire`. A trigger must not be added again while it is held —
    the core cannot: a response for a held trigger is dropped before it
    can open a record.
    """

    __slots__ = ("decided", "_order")

    def __init__(self) -> None:
        self.decided: Dict[Tuple, float] = {}
        # The keys of ``decided``, oldest decision first. Bare trigger ids,
        # not (tau, decided_at) pairs: a tuple allocated and retained per
        # decision is one more GC-tracked object each, which on the 4-shard
        # stream raised young-generation collections by 60%.
        self._order: Deque[Tuple] = deque()

    def add(self, tau: Tuple, now: float) -> bool:
        """Remember that ``tau`` was decided at ``now`` (≥ every earlier
        ``now``). True when the population is over the cap, i.e. when the
        caller should :meth:`expire` — which lets it skip evaluating θτ on
        every decision below the cap."""
        self.decided[tau] = now
        self._order.append(tau)
        return len(self.decided) > LATE_DROP_CAP

    def expire(self, now: float, timeout_ms: float) -> None:
        """Above the cap, forget every trigger decided before
        ``now - LATE_DROP_HORIZON_TIMEOUTS * timeout_ms``."""
        decided = self.decided
        if len(decided) <= LATE_DROP_CAP:
            return
        horizon = now - LATE_DROP_HORIZON_TIMEOUTS * timeout_ms
        order = self._order
        while order and decided[order[0]] < horizon:
            del decided[order.popleft()]

    def payload(self) -> Dict[Tuple, float]:
        """Checkpoint form: a plain ``tau → decided_at`` dict in decision
        order (the shape every snapshot has always carried)."""
        return dict(self.decided)

    def restore(self, payload: Mapping[Tuple, float]) -> None:
        """Replace the contents with a :meth:`payload`.

        The stable sort is a no-op on a payload this class wrote; on a
        hand-edited one it re-establishes the order :meth:`expire` needs,
        so an out-of-place entry can neither outlive the horizon nor shield
        older entries behind it.
        """
        self.decided.clear()
        self.decided.update(sorted(payload.items(), key=itemgetter(1)))
        self._order = deque(self.decided)
