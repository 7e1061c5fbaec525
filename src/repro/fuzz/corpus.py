"""The regression corpus: minimal repros saved as JSON, replayed forever.

Every counterexample the fuzzer finds (and shrinks) is saved as one
``tests/corpus/*.json`` file::

    {
      "format": 1,
      "name": "k0-response-corruption-evades",
      "spec": { ... ScenarioSpec.to_dict() ... },
      "expect": {"violations": ["FAULT_UNDETECTED"]},
      "notes": "why this spec breaks, for the next reader",
      "oracle": {"perturb": {...}}   # optional planted oracle knob
    }

``expect.violations`` is the *exact* sorted violation-code signature the
oracle must reproduce — an entry fails its replay either if the historic
violation disappears silently (the bug regressed into passing without
anyone updating the corpus) or if new violations appear. Fixing a bug
legitimately flips an entry: the fix's PR updates or retires the entry,
which is the intended triage workflow (docs/fuzzing.md).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Tuple

from repro.errors import ValidationError
from repro.fuzz.oracle import DifferentialOracle, OracleReport
from repro.fuzz.scenario import ScenarioSpec

#: Corpus file format version (bump on incompatible change).
CORPUS_FORMAT = 1


@dataclass(frozen=True)
class CorpusEntry:
    """One minimal repro: a spec plus its expected violation signature."""

    name: str
    spec: ScenarioSpec
    expect: Tuple[str, ...]
    notes: str = ""
    #: Optional oracle configuration, e.g. ``{"perturb": {"shards": 4,
    #: "timeout_delta_ms": 40.0}}`` — the planted
    #: fire-drill knob (see DifferentialOracle.perturb). ``None`` replays
    #: with whatever oracle the caller supplies, unmodified.
    oracle: Optional[dict] = None

    def to_dict(self) -> dict:
        data = {
            "format": CORPUS_FORMAT,
            "name": self.name,
            "spec": self.spec.to_dict(),
            "expect": {"violations": list(self.expect)},
            "notes": self.notes,
        }
        if self.oracle is not None:
            data["oracle"] = self.oracle
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "CorpusEntry":
        fmt = data.get("format", CORPUS_FORMAT)
        if fmt != CORPUS_FORMAT:
            raise ValidationError(f"unsupported corpus format {fmt!r}")
        if "name" not in data or "spec" not in data:
            raise ValidationError("corpus entry needs 'name' and 'spec'")
        expect = tuple(sorted(data.get("expect", {}).get("violations", ())))
        oracle = data.get("oracle")
        if oracle is not None and not isinstance(oracle, dict):
            raise ValidationError("corpus entry 'oracle' must be an object")
        return cls(name=data["name"],
                   spec=ScenarioSpec.from_dict(data["spec"]),
                   expect=expect,
                   notes=data.get("notes", ""),
                   oracle=oracle)


@dataclass
class ReplayOutcome:
    """The verdict of replaying one corpus entry."""

    entry: CorpusEntry
    report: OracleReport
    #: True iff the oracle reproduced exactly the expected signature.
    matched: bool
    detail: str = ""


def save_entry(entry: CorpusEntry, directory: Path) -> Path:
    """Write ``entry`` as ``<directory>/<name>.json``; returns the path."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"{entry.name}.json"
    path.write_text(json.dumps(entry.to_dict(), indent=2, sort_keys=True)
                    + "\n", encoding="utf-8")
    return path


def load_entry(path: Path) -> CorpusEntry:
    """Load one corpus file; raises :class:`ValidationError` on bad data."""
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise ValidationError(f"unreadable corpus entry {path}: {exc}") from exc
    return CorpusEntry.from_dict(data)


def load_corpus(directory: Path) -> List[CorpusEntry]:
    """All entries under ``directory``, sorted by name for determinism."""
    directory = Path(directory)
    if not directory.is_dir():
        return []
    entries = [load_entry(path) for path in sorted(directory.glob("*.json"))]
    names = [entry.name for entry in entries]
    if len(set(names)) != len(names):
        raise ValidationError(f"duplicate corpus entry names in {directory}")
    return entries


def replay_entry(entry: CorpusEntry,
                 oracle: Optional[DifferentialOracle] = None) -> ReplayOutcome:
    """Run an entry's spec and compare the signature against ``expect``."""
    oracle = oracle if oracle is not None else DifferentialOracle()
    perturb = (entry.oracle or {}).get("perturb")
    if perturb:
        # The entry plants its own oracle perturbation (fire drill); keep
        # the caller's differential matrix but swap in the perturbed knob.
        oracle = DifferentialOracle(
            shard_counts=oracle.shard_counts,
            traced_shards=oracle.traced_shards,
            settle_ms=oracle.settle_ms,
            perturb=perturb)
    report = oracle.run(entry.spec)
    actual = report.codes()
    matched = actual == entry.expect
    if matched:
        detail = ""
    elif not actual:
        detail = (f"expected {list(entry.expect)} but the run is now clean — "
                  "if a fix landed, update or retire this entry")
    else:
        detail = f"expected {list(entry.expect)}, got {list(actual)}"
    return ReplayOutcome(entry=entry, report=report,
                         matched=matched, detail=detail)


#: The regression corpus, as a path from the repository root.
DEFAULT_CORPUS = Path("tests", "corpus")


def default_corpus_dir() -> Path:
    """:data:`DEFAULT_CORPUS` under the repository root, if resolvable.

    Falls back to :data:`DEFAULT_CORPUS` under the current working
    directory — callers that care pass an explicit path (the CLI exposes
    ``--corpus``).
    """
    here = Path(__file__).resolve()
    for parent in here.parents:
        candidate = parent / DEFAULT_CORPUS
        if candidate.is_dir():
            return candidate
    return DEFAULT_CORPUS
