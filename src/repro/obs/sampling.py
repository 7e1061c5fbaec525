"""Head sampling for the observability stack.

Unsampled, the full stack still more than doubles the pipeline's time
(``obs.overhead_pct`` ≈125% on ``stream-obs-full`` of ``python -m
bench``); production telemetry must be *bounded*, not exhaustive. This
module implements **head sampling**: the keep/skip decision is made once
per trigger, up front, as a pure function of the trigger id — so every
response, span, and metric sample of one trigger is either fully
recorded or fully skipped, on every shard, in every replay.

Two properties make this safe for the determinism contracts:

* **Pure, stable hash.** The decision is CRC-32 of ``repr(τ)`` modulo the
  sampling rate — the same keyed hash :func:`repro.core.pipeline.shard_of`
  uses for routing, stable across processes and Python versions. Two runs
  of the same scenario sample the same triggers; a sequential validator
  and a 8-shard pipeline sample the same triggers; canonical traces stay
  byte-identical across engines.
* **Severity gating is downstream.** The sampler is applied inside the
  observer seam (:class:`~repro.obs.observer.Observer`), once per event,
  and gates only the subscribers. Decisions, alarms, and the check battery
  never consult it, so the alarm stream is byte-identical at any rate;
  alarmed decisions are always recorded in full (alarm spans, forensics,
  alarm counters) regardless of the head decision.

:func:`active_sampler` normalises a rate-1 sampler to ``None``, "record
everything".
"""

from __future__ import annotations

import itertools
import zlib
from typing import Optional, Tuple


class HeadSampler:
    """Deterministic 1-in-N head sampler keyed on the trigger id.

    ``rate=N`` keeps roughly one trigger in N (exactly the triggers whose
    CRC-32 bucket is 0). ``rate=1`` keeps everything.
    """

    __slots__ = ("rate", "_memo")

    #: Bound on the per-sampler decision memo. A trigger's lifecycle asks
    #: for the same decision once per event (intercept, replicate, each of
    #: its ~2k+2 responses, the decision), so memoising the hash is what
    #: keeps the sampled deployment inside the overhead gate. Overflow
    #: evicts the *oldest* half (FIFO over insertion order): triggers still
    #: in flight were inserted last and keep their decision. The decision
    #: is a pure function either way — eviction only changes its cost.
    _MEMO_LIMIT = 8192

    def __init__(self, rate: int = 1):
        if not isinstance(rate, int) or isinstance(rate, bool) or rate < 1:
            raise ValueError(f"sampling rate must be an int >= 1: {rate!r}")
        self.rate = rate
        self._memo: dict = {}

    def sampled(self, trigger_id: Tuple) -> bool:
        """True iff this trigger's telemetry should be recorded."""
        if self.rate <= 1:
            return True
        kept = self._memo.get(trigger_id)
        if kept is None:
            if len(self._memo) >= self._MEMO_LIMIT:
                # FIFO eviction of the oldest (= longest-completed) half;
                # recent, possibly in-flight triggers stay memoised.
                for stale in list(itertools.islice(iter(self._memo),
                                                   self._MEMO_LIMIT // 2)):
                    del self._memo[stale]
            kept = (zlib.crc32(repr(trigger_id).encode("utf-8"))
                    % self.rate == 0)
            self._memo[trigger_id] = kept
        return kept

    def describe(self) -> str:
        return f"head 1/{self.rate}" if self.rate > 1 else "off (record all)"

    def __repr__(self) -> str:
        return f"HeadSampler(rate={self.rate})"


def active_sampler(sampler: Optional[HeadSampler]) -> Optional[HeadSampler]:
    """``None`` for "record everything" (no sampler, or rate 1)."""
    if sampler is None or sampler.rate <= 1:
        return None
    return sampler
