"""Trigger contexts and taint tags threaded through controller processing.

JURY's action attribution (§IV-B) rests on knowing, for every side-effect a
controller produces, *which trigger* caused it. Controllers thread a
:class:`TriggerContext` through their processing pipeline; JURY's controller
module reads it at every interception point.

A :class:`Taint` marks a *replicated* trigger at a secondary controller: the
taint identifies the original trigger and the primary that received it, and
it propagates to every response the secondary elicits. Tainted processing is
*shadow* processing — side-effects are captured for the validator and
dropped (§IV-B "JURY does not induce any cache/network side-effects due to
processing of triggers by secondary controllers").
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

TriggerId = Tuple  # ("ext", n) for external triggers, ("int", origin, n) internal

_external_ids = itertools.count(1)
_internal_ids = itertools.count(1)


def new_external_trigger_id() -> TriggerId:
    """Allocate a fresh external trigger id (used by JURY's replicator)."""
    return ("ext", next(_external_ids))


def snapshot_trigger_ids() -> Tuple[int, int]:
    """Next (external, internal) trigger-id values, without consuming them.

    ``itertools.count`` has no peek, so this burns one value from each
    counter and re-creates it at the same position — safe because the
    counters are only ever read through the ``new_*`` helpers, and callers
    only snapshot at a quiescent point (checkpoint time).
    """
    global _external_ids, _internal_ids
    ext = next(_external_ids)
    internal = next(_internal_ids)
    _external_ids = itertools.count(ext)
    _internal_ids = itertools.count(internal)
    return (ext, internal)


def restore_trigger_ids(positions: Tuple[int, int]) -> None:
    """Re-seed both process-global counters from a snapshot.

    The recovery counterpart of :func:`snapshot_trigger_ids`: a restored
    engine continues allocating trigger ids exactly where the checkpointed
    process stopped, so replayed and fresh triggers never collide.
    """
    global _external_ids, _internal_ids
    ext, internal = positions
    _external_ids = itertools.count(int(ext))
    _internal_ids = itertools.count(int(internal))


def reset_trigger_ids() -> None:
    """Restart both process-global trigger-id counters from 1.

    Trigger ids are process-global so that concurrent experiments never
    collide — but that also makes a scenario's alarm stream depend on how
    many triggers earlier runs in the same process consumed. The fuzzer
    (and any other rig that needs position-independent, byte-comparable
    runs) calls this between *isolated* experiments; never call it while
    an experiment is still live.
    """
    global _external_ids, _internal_ids
    _external_ids = itertools.count(1)
    _internal_ids = itertools.count(1)


def sort_canonicals(items) -> Tuple:
    """Stable canonical ordering for heterogeneous canonical tuples.

    Canonicals mix ints, strings, and None, so plain tuple comparison can
    raise; ``repr`` gives a total order that is identical on every replica,
    which is all consensus comparison needs. Most bundles hold a single
    write, which is already in order.

    Most of the rest are a FLOW_MOD and a PACKET_OUT: plain tuples led by
    distinct tags that are ASCII identifiers. Such a tag's ``repr`` is the
    tag in quotes, and every identifier character sorts after the quote, so
    ``repr`` order is tag order (``"flow"`` before ``"flow_mod"`` included)
    and those bundles are sorted by tag without building a ``repr``. Tied
    or other tags take ``repr``.
    """
    items = tuple(items)
    if len(items) < 2:
        return items
    by_tag = {}
    for item in items:
        if type(item) is not tuple or not item:
            break
        tag = item[0]
        if (type(tag) is not str or tag in by_tag
                or not (tag.isascii() and tag.isidentifier())):
            break
        by_tag[tag] = item
    else:
        return tuple([by_tag[tag] for tag in sorted(by_tag)])
    return tuple(sorted(items, key=repr))


@dataclass(frozen=True)
class Taint:
    """The mark carried by a replicated trigger and its responses."""

    trigger_id: TriggerId
    primary_id: str

    def __str__(self) -> str:
        return f"taint({self.trigger_id}@{self.primary_id})"


@dataclass
class TriggerContext:
    """Per-trigger processing context.

    ``shadow`` is True for replicated execution at a secondary: all cache and
    network side-effects are captured into ``captured_cache`` /
    ``captured_network`` instead of being performed.
    """

    trigger_id: Optional[TriggerId] = None
    taint: Optional[Taint] = None
    external: bool = True
    shadow: bool = False
    received_at: float = 0.0
    description: str = ""
    captured_cache: List[Tuple] = field(default_factory=list)
    captured_network: List[Tuple] = field(default_factory=list)
    #: Synchronous store cost accumulated during processing (ms); charged to
    #: the controller pipeline after the handler returns.
    pending_cost: float = 0.0
    #: The controller's state digest at processing start — *before* this
    #: trigger's own writes. State-aware consensus compares these, so a
    #: primary and its shadow replicas that saw the same pre-state group
    #: together even though only the primary's write actually lands.
    entry_digest: Tuple = ()
    #: Set by applications that declare their output non-deterministic
    #: (the §VIII future-work extension): the validator then skips majority
    #: comparison for this trigger instead of guessing from distinctness.
    non_deterministic: bool = False

    @property
    def tainted(self) -> bool:
        return self.taint is not None

    @classmethod
    def external_trigger(cls, received_at: float = 0.0, description: str = "",
                         trigger_id: Optional[TriggerId] = None) -> "TriggerContext":
        """Context for an external (southbound/northbound) trigger.

        ``trigger_id`` is supplied when JURY's replicator already assigned
        τ at interception time; otherwise a fresh id is allocated.
        """
        return cls(
            trigger_id=trigger_id if trigger_id is not None
            else new_external_trigger_id(),
            external=True,
            received_at=received_at,
            description=description,
        )

    @classmethod
    def internal_trigger(cls, controller_id: str, received_at: float = 0.0,
                         description: str = "") -> "TriggerContext":
        """Fresh context for an internal (proactive/administrative) trigger."""
        return cls(
            trigger_id=("int", controller_id, next(_internal_ids)),
            external=False,
            received_at=received_at,
            description=description,
        )

    @classmethod
    def replica_of(cls, taint: Taint, received_at: float = 0.0,
                   description: str = "") -> "TriggerContext":
        """Shadow context for replicated execution at a secondary."""
        return cls(
            trigger_id=taint.trigger_id,
            taint=taint,
            external=True,
            shadow=True,
            received_at=received_at,
            description=description,
        )

    def capture_cache(self, canonical: Tuple) -> None:
        """Record a suppressed cache write (shadow mode)."""
        self.captured_cache.append(canonical)

    def capture_network(self, canonical: Tuple) -> None:
        """Record a suppressed network write (shadow mode)."""
        self.captured_network.append(canonical)

    def combined_canonical(self) -> Tuple:
        """Canonical (cache, network) bundle for replica-result responses."""
        return (sort_canonicals(self.captured_cache),
                sort_canonicals(self.captured_network))
