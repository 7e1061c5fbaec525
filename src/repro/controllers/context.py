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

Trigger ids are numbered per experiment, by the simulator that runs it
(:meth:`~repro.sim.simulator.Simulator.next_number`): external ids τ as
``("ext", n)``, internal ones as ``("int", origin, n)``. Two runs of one
experiment in one process get the same ids, and so the same juries.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

TriggerId = Tuple  # ("ext", n) for external triggers, ("int", origin, n) internal


def external_trigger_id(sim) -> TriggerId:
    """A fresh external trigger id τ, numbered per simulator."""
    return ("ext", sim.next_number("ext"))


def internal_trigger_id(sim, origin: str) -> TriggerId:
    """A fresh id for an internal trigger minted at controller ``origin``."""
    return ("int", origin, sim.next_number("int"))


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
    def external_trigger(cls, trigger_id: TriggerId, received_at: float = 0.0,
                         description: str = "") -> "TriggerContext":
        """Context for an external (southbound/northbound) trigger τ."""
        return cls(trigger_id=trigger_id, external=True,
                   received_at=received_at, description=description)

    @classmethod
    def internal_trigger(cls, trigger_id: TriggerId, received_at: float = 0.0,
                         description: str = "") -> "TriggerContext":
        """Context for an internal (proactive/administrative) trigger."""
        return cls(trigger_id=trigger_id, external=False,
                   received_at=received_at, description=description)

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
