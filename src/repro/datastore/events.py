"""Cache events: the externalization of every controller action.

A :class:`CacheEvent` is emitted at the origin node on every write and
re-emitted at each peer when the store propagates it. JURY's controller
module hooks these events for action attribution of internal triggers
(§IV-B): the event's ``origin`` and per-origin ``seq`` uniquely identify the
action across the whole cluster, so every replica relays the *same* trigger
identifier to the validator without coordination.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, ClassVar, Dict, Optional, Tuple


class CacheOp(enum.Enum):
    """Operations distinguishable by JURY policies (Table 2)."""

    CREATE = "create"
    UPDATE = "update"
    DELETE = "delete"


@dataclass(frozen=True)
class CacheEvent:
    """One write to a controller-wide cache.

    ``origin`` is the node that performed the write; ``seq`` is that node's
    write sequence number. ``(origin, seq)`` is the cluster-wide identity of
    the action. ``tau`` carries the trigger id of the controller action that
    performed the write (set by the controller's trigger context); for
    purely internal actions it equals the action id.

    The store hands one event object to the origin's listeners and to every
    peer, so :meth:`canonical` and :meth:`wire_size` are computed on first
    use and kept on the event. That is sound because a value handed to the
    store is never mutated afterwards (writers copy before modifying); the
    memos are not fields, so ``==``, ``hash``, ``repr``, pickling and
    :func:`dataclasses.replace` never see them.
    """

    cache: str
    key: Any
    value: Any
    op: CacheOp
    origin: str
    seq: int
    time: float
    tau: Optional[Tuple] = None
    #: The writing trigger's processing-start state digest (JURY metadata).
    ctx_digest: Tuple = ()

    # Class-level "not computed yet"; the computed value shadows it in the
    # instance ``__dict__``.
    _canonical: ClassVar[Optional[Tuple]] = None
    _wire_size: ClassVar[Optional[int]] = None

    def __getstate__(self) -> Dict[str, Any]:
        """Pickle/copy the fields only; memos are recomputed on demand."""
        state = dict(self.__dict__)
        state.pop("_canonical", None)
        state.pop("_wire_size", None)
        return state

    @property
    def action_id(self) -> Tuple[str, int]:
        """Cluster-wide identity of the action that caused this event."""
        return (self.origin, self.seq)

    @property
    def trigger_id(self) -> Tuple:
        """The trigger this write is attributed to (``tau`` or action id)."""
        return self.tau if self.tau is not None else ("int", self.origin, self.seq)

    def canonical(self) -> Tuple:
        """Canonical body for consensus comparison at the validator."""
        canonical = self._canonical
        if canonical is None:
            canonical = cache_canonical(self.cache, self.key, self.op, self.value)
            object.__setattr__(self, "_canonical", canonical)
        return canonical

    def wire_size(self) -> int:
        """Approximate bytes on the inter-controller wire."""
        size = self._wire_size
        if size is None:
            value_size = getattr(self.value, "wire_size", None)
            if callable(value_size):
                payload = value_size()
            elif self.value is None:
                payload = 0
            else:
                payload = min(512, 32 + len(repr(self.value)))
            size = 96 + payload
            object.__setattr__(self, "_wire_size", size)
        return size


def cache_canonical(cache: str, key: Any, op: CacheOp, value: Any) -> Tuple:
    """Canonical form of a (would-be) cache write.

    Shared by :meth:`CacheEvent.canonical` and the shadow-execution capture
    path, so a suppressed secondary write compares equal to the primary's
    real one at the validator.
    """
    return ("cache", cache, _canonical_value(key), op.value, _canonical_value(value))


#: Leaves that are already canonical. Tested by exact ``type()``: a subclass
#: may carry a ``canonical()`` of its own and takes the general path.
_ATOMS = frozenset((str, int, float, bool, type(None)))


def _canonical_value(value: Any) -> Any:
    """Reduce a stored value to a hashable, comparable form.

    Stored values are mostly atoms inside small tuples and dicts, so atoms
    return first and containers test their leaves inline rather than paying
    one call per leaf.
    """
    if type(value) in _ATOMS:
        return value
    canonical = getattr(value, "canonical", None)
    if callable(canonical):
        return canonical()
    if isinstance(value, dict):
        return tuple(sorted([
            (k, v if type(v) in _ATOMS else _canonical_value(v))
            for k, v in value.items()]))
    if isinstance(value, (list, tuple)):
        return tuple([v if type(v) in _ATOMS else _canonical_value(v)
                      for v in value])
    return value


CacheListener = "Callable[[DatastoreNode, CacheEvent], None]"
