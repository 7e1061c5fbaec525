"""Distributed store core: nodes, writes, propagation, locks.

A :class:`DatastoreCluster` owns the propagation strategy (subclassed by the
Hazelcast- and Infinispan-like backends); a :class:`DatastoreNode` is one
controller's local replica of every cache. Writes return a
:class:`PutResult` whose ``cost_ms`` the controller adds to its processing
pipeline — that is how strong consistency's synchronous replication shows up
as ODL's cluster-throughput collapse.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

from repro.datastore.events import CacheEvent, CacheOp
from repro.errors import CacheLockError, DatastoreError
from repro.net.channel import ByteCounter
from repro.sim.latency import Fixed, LatencyModel
from repro.sim.simulator import Simulator


@dataclass
class PutResult:
    """Outcome of a cache write.

    ``cost_ms`` is the synchronous cost the writer must absorb before
    continuing (zero-ish for eventually consistent stores, substantial for
    strongly consistent ones). ``event`` is the emitted cache event.
    """

    cost_ms: float
    event: CacheEvent


LockManager = Callable[[str, Any], bool]


class DatastoreNode:
    """One controller's replica of the controller-wide caches."""

    def __init__(self, cluster: "DatastoreCluster", node_id: str):
        self.cluster = cluster
        self.node_id = node_id
        self.caches: Dict[str, Dict[Any, Any]] = {}
        self.listeners: List[Callable[["DatastoreNode", CacheEvent], None]] = []
        self._seq = itertools.count(1)
        # Overridable by fault injectors (ONOS database-locking fault).
        self.lock_manager: Optional[LockManager] = None
        self.writes = 0
        self.remote_applies = 0
        # Highest write sequence applied per origin node — the basis of the
        # state digest JURY's state-aware consensus compares (§IV-C).
        self.applied_seqs: Dict[str, int] = {}

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------
    def get(self, cache: str, key: Any, default: Any = None) -> Any:
        """Read one entry from the local replica."""
        return self.caches.get(cache, {}).get(key, default)

    def entries(self, cache: str) -> Dict[Any, Any]:
        """A copy of the local replica of ``cache``."""
        return dict(self.caches.get(cache, {}))

    def __contains__(self, cache_key) -> bool:
        cache, key = cache_key
        return key in self.caches.get(cache, {})

    # ------------------------------------------------------------------
    # Writes
    # ------------------------------------------------------------------
    def put(self, cache: str, key: Any, value: Any,
            op: Optional[CacheOp] = None, tau: Optional[tuple] = None,
            ctx_digest: tuple = ()) -> PutResult:
        """Write an entry, emit the cache event, and propagate cluster-wide.

        ``tau`` attributes the write to a controller trigger (JURY action
        attribution). Raises :class:`CacheLockError` if the (injectable)
        lock manager refuses the write — the ONOS "failed to obtain lock"
        fault.

        ``value`` is stored and shipped to every peer as the object it is,
        and the event memoises its canonical form: never mutate it after
        this call — copy (``dict(stored)``), modify the copy, ``put`` that.
        """
        if self.lock_manager is not None and not self.lock_manager(cache, key):
            raise CacheLockError(
                f"{self.node_id}: failed to obtain lock on {cache}[{key!r}]"
            )
        local = self.caches.setdefault(cache, {})
        if op is None:
            op = CacheOp.UPDATE if key in local else CacheOp.CREATE
        local[key] = value
        return self._emit(cache, key, value, op, tau, ctx_digest)

    def delete(self, cache: str, key: Any, tau: Optional[tuple] = None,
               ctx_digest: tuple = ()) -> PutResult:
        """Remove an entry (emits a DELETE event; the key is dropped)."""
        local = self.caches.setdefault(cache, {})
        local.pop(key, None)
        return self._emit(cache, key, None, CacheOp.DELETE, tau, ctx_digest)

    def _emit(self, cache: str, key: Any, value: Any, op: CacheOp,
              tau: Optional[tuple], ctx_digest: tuple = ()) -> PutResult:
        self.writes += 1
        seq = next(self._seq)
        self.applied_seqs[self.node_id] = seq
        event = CacheEvent(
            cache=cache, key=key, value=value, op=op,
            origin=self.node_id, seq=seq,
            time=self.cluster.sim.now, tau=tau, ctx_digest=ctx_digest,
        )
        self._notify(event)
        cost = self.cluster.propagate(self, event)
        return PutResult(cost_ms=cost, event=event)

    def state_digest(self) -> tuple:
        """Compact digest of this replica's view: per-origin applied seqs.

        Two replicas with an equivalent network view produce equal digests;
        a replica lagging behind (eventual consistency) differs. JURY
        responses carry this digest so the validator's consensus can group
        replicas by equivalent state (§IV-C, transient state asynchrony).
        """
        return tuple(sorted(self.applied_seqs.items()))

    # ------------------------------------------------------------------
    # Propagation receive path
    # ------------------------------------------------------------------
    def apply_remote(self, event: CacheEvent) -> None:
        """Apply a propagated event from another node and notify listeners."""
        local = self.caches.setdefault(event.cache, {})
        if event.op == CacheOp.DELETE:
            local.pop(event.key, None)
        else:
            local[event.key] = event.value
        self.remote_applies += 1
        self.applied_seqs[event.origin] = max(
            self.applied_seqs.get(event.origin, 0), event.seq)
        self._notify(event)

    def add_listener(self, listener: Callable[["DatastoreNode", CacheEvent], None]) -> None:
        """Subscribe to every cache event visible at this node."""
        self.listeners.append(listener)

    def _notify(self, event: CacheEvent) -> None:
        for listener in list(self.listeners):
            listener(self, event)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"DatastoreNode({self.node_id!r}, caches={list(self.caches)})"


class DatastoreCluster:
    """Base class owning membership and the propagation strategy."""

    #: human-readable consistency model, used in reports
    consistency = "abstract"

    def __init__(self, sim: Simulator,
                 peer_latency: Optional[LatencyModel] = None,
                 counter: Optional[ByteCounter] = None):
        self.sim = sim
        self.peer_latency = peer_latency if peer_latency is not None else Fixed(1.0)
        self.counter = counter if counter is not None else ByteCounter("inter-controller")
        self.nodes: Dict[str, DatastoreNode] = {}
        self._rng = sim.fork_rng("datastore")
        #: Optional cluster-shared flow-rule backup stage (set by backends
        #: whose flow subsystem serializes on the store — Hazelcast/ONOS).
        #: FLOW_MOD egress waits for backup completion, capping the
        #: *cluster-wide* FLOW_MOD rate independent of cluster size.
        self.flow_backup = None
        # FIFO watermarks per (origin, destination) pair: TCP-like in-order
        # delivery, which the validator's state maintenance relies on (§IV-C).
        self._watermarks: Dict[tuple, float] = {}

    def create_node(self, node_id: str) -> DatastoreNode:
        """Join a node to the cluster."""
        if node_id in self.nodes:
            raise DatastoreError(f"duplicate store node {node_id}")
        node = DatastoreNode(self, node_id)
        self.nodes[node_id] = node
        return node

    def remove_node(self, node_id: str) -> None:
        """Remove a node (crash or decommission)."""
        self.nodes.pop(node_id, None)

    def peers_of(self, origin: DatastoreNode) -> List[DatastoreNode]:
        """All nodes except ``origin``."""
        return [n for n in self.nodes.values() if n is not origin]

    def _schedule_delivery(self, origin: DatastoreNode, peer: DatastoreNode,
                           event: CacheEvent, delay: float) -> None:
        """Deliver ``event`` to ``peer`` after ``delay``, preserving FIFO order."""
        key = (origin.node_id, peer.node_id)
        arrival = max(self.sim.now + delay, self._watermarks.get(key, 0.0))
        self._watermarks[key] = arrival
        self.counter.add(event.wire_size())
        self.sim.schedule_at(arrival, self._apply_if_member, peer.node_id, event)

    def _apply_if_member(self, node_id: str, event: CacheEvent) -> None:
        node = self.nodes.get(node_id)
        if node is not None:
            node.apply_remote(event)

    def propagate(self, origin: DatastoreNode, event: CacheEvent) -> float:
        """Ship ``event`` to every peer; returns the writer's synchronous cost."""
        raise NotImplementedError
