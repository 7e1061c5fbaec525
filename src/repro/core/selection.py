"""Deterministic pseudo-random selection of secondary controllers.

JURY replicates each trigger to "k randomly chosen controllers" (§IV).
Seeding the choice with the trigger id makes the selection pseudo-random
*and* reproducible without coordination: the replicator picks the
secondaries for an external trigger, and every controller module can
independently compute the same designated set when deciding whether to relay
a cache event for that trigger — no extra protocol messages needed.
"""

from __future__ import annotations

import random
from typing import Iterable, List, Sequence, Tuple


def designated_secondaries(trigger_id: Tuple, candidates: Iterable[str],
                           k: int, exclude: Sequence[str] = (),
                           salt: str = "jury") -> List[str]:
    """Choose ``k`` secondaries for ``trigger_id`` from ``candidates``.

    The result is stable for a given (trigger id, candidate set, k, salt):
    every party computing it agrees. ``exclude`` removes the primary/origin.
    """
    pool = sorted(set(candidates) - set(exclude))
    if k <= 0 or not pool:
        return []
    if k >= len(pool):
        return pool
    rng = random.Random(f"{salt}/{trigger_id!r}")
    return sorted(rng.sample(pool, k))
