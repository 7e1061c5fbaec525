"""Controller responses streamed to the out-of-band validator.

Every response is the ``(id, τ, entry)`` triple of Algorithm 1 plus the
metadata JURY's mechanisms need: the taint flag (replicated-execution
responses), the responding replica's state digest (state-aware consensus,
§IV-C), and timing for detection-time accounting.

Response records are deliberately small on the wire (~tens of bytes in a
compact binary encoding) — validator traffic is a minor fraction of JURY's
network overhead next to replicated PACKET_INs (§VII-B.2).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional, Tuple


class ResponseKind(enum.Enum):
    """What a response describes."""

    #: Actual network messages the primary (or a remote master) emitted.
    NETWORK_WRITE = "network"
    #: Cache event(s) for one trigger, relayed by one replica.
    CACHE_UPDATE = "cache"
    #: Captured (suppressed) side-effects of shadow execution at a secondary.
    REPLICA_RESULT = "replica"


@dataclass
class Response:
    """One ``(id, τ, entry)`` record as received by the validator."""

    controller_id: str
    trigger_id: Tuple
    kind: ResponseKind
    entry: Tuple
    tainted: bool = False
    state_digest: Tuple = ()
    sent_at: float = 0.0
    #: When the originating trigger was received (detection-time baseline).
    trigger_received_at: Optional[float] = None
    #: For CACHE_UPDATE: the node that originated the relayed event(s).
    origin: Optional[str] = None
    #: For REPLICA_RESULT: the primary named by the taint.
    primary_hint: Optional[str] = None
    #: The producing application declared this action non-deterministic
    #: (§VIII extension); consensus skips majority comparison when set.
    declared_non_deterministic: bool = False

    def wire_size(self) -> int:
        """Compact binary encoding estimate: header + digest + entry hash.

        The prototype ships entry *digests* plus a spooled full body; the
        on-path cost is the compact record.
        """
        return 40 + 4 * len(self.state_digest)

    @property
    def is_cache(self) -> bool:
        return self.kind == ResponseKind.CACHE_UPDATE

    def __repr__(self) -> str:
        # Terse on purpose, and pinned: the "input sha-256" column of
        # tests/test_validator_input_golden.py hashes this repr.
        taint = " tainted" if self.tainted else ""
        return (f"Response({self.controller_id}, {self.trigger_id}, "
                f"{self.kind.value}{taint})")

    def __reduce__(self):
        # Positional-tuple pickling: responses dominate checkpoints, WAL
        # records and batch/verdict frames, and the generic dataclass
        # reduce (per-instance __dict__) roughly doubles their size.
        return (Response, (self.controller_id, self.trigger_id, self.kind,
                           self.entry, self.tainted, self.state_digest,
                           self.sent_at, self.trigger_received_at,
                           self.origin, self.primary_hint,
                           self.declared_non_deterministic))
