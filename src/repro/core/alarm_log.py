"""Structured alarm logging for administrators.

"In event of an alarm, JURY extracts information about the offending
controller, trigger and the associated response, and presents it to the
administrator for further action" (§V). :class:`AlarmLog` subscribes to a
validator and renders that presentation: an in-memory ring of structured
records, JSON-lines export for tooling, and a human-readable tail.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass
from typing import IO, Deque, Dict, List, Optional

from repro.core.alarms import Alarm
from repro.core.validator import Validator


@dataclass
class AlarmRecord:
    """One alarm, flattened for export."""

    time_ms: float
    reason: str
    offending_controller: Optional[str]
    trigger_id: str
    detail: str
    n_responses: int

    def to_dict(self) -> Dict:
        return {
            "time_ms": round(self.time_ms, 3),
            "reason": self.reason,
            "offending_controller": self.offending_controller,
            "trigger_id": self.trigger_id,
            "detail": self.detail,
            "n_responses": self.n_responses,
        }


class AlarmLog:
    """Collects validator alarms into exportable records."""

    def __init__(self, validator: "Validator", capacity: int = 10_000,
                 stream: Optional[IO[str]] = None):
        # ``validator`` is duck-typed: anything exposing ``on_alarm`` works,
        # including ValidationPipeline (same alarm-hook surface).
        self.records: Deque[AlarmRecord] = deque(maxlen=capacity)
        self.stream = stream
        self.total = 0
        self._previous_hook = validator.on_alarm
        validator.on_alarm = self._on_alarm

    def _on_alarm(self, alarm: Alarm) -> None:
        record = AlarmRecord(
            time_ms=alarm.raised_at,
            reason=alarm.reason.value,
            offending_controller=alarm.offending_controller,
            trigger_id=repr(alarm.trigger_id),
            detail=alarm.detail,
            n_responses=len(alarm.responses),
        )
        self.records.append(record)
        self.total += 1
        if self.stream is not None:
            self.stream.write(json.dumps(record.to_dict()) + "\n")
        if self._previous_hook is not None:
            self._previous_hook(alarm)

    # ------------------------------------------------------------------
    def by_controller(self) -> Dict[str, int]:
        """Alarm counts per blamed controller."""
        counts: Dict[str, int] = {}
        for record in self.records:
            key = record.offending_controller or "<unknown>"
            counts[key] = counts.get(key, 0) + 1
        return counts

    def by_reason(self) -> Dict[str, int]:
        """Alarm counts per detection mechanism."""
        counts: Dict[str, int] = {}
        for record in self.records:
            counts[record.reason] = counts.get(record.reason, 0) + 1
        return counts

    def to_jsonl(self) -> str:
        """All retained records as JSON lines."""
        return "\n".join(json.dumps(r.to_dict()) for r in self.records)

    def tail(self, count: int = 10) -> List[str]:
        """The most recent alarms, human-readable."""
        recent = list(self.records)[-count:]
        return [f"[{r.time_ms:9.1f} ms] {r.reason:<20} "
                f"controller={r.offending_controller or '?':<4} {r.detail}"
                for r in recent]
