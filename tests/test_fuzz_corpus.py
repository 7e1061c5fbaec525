"""The regression corpus: every saved repro replays forever.

``tests/corpus/*.json`` holds minimal repros of real counterexamples found
(and shrunk) by ``jury-repro fuzz``. The replay test re-runs each entry's
spec through the differential oracle and requires the violation signature
to match ``expect`` exactly — in both directions: a historic violation must
not silently disappear, and no new violation may creep in. Fixing a pinned
bug legitimately flips an entry; that PR updates or retires the entry.
"""

from __future__ import annotations

import json

import pytest

from repro.errors import ValidationError
from repro.fuzz import (
    CorpusEntry,
    DifferentialOracle,
    ScenarioSpec,
    default_corpus_dir,
    load_corpus,
    load_entry,
    replay_entry,
    save_entry,
)

CORPUS = load_corpus(default_corpus_dir())


def test_corpus_exists_and_is_named():
    assert CORPUS, "tests/corpus must hold at least the planted repro"
    names = {entry.name for entry in CORPUS}
    assert "k0-response-corruption-evades" in names


@pytest.mark.parametrize("entry", CORPUS, ids=lambda e: e.name)
def test_corpus_entry_replays_with_its_exact_signature(entry):
    outcome = replay_entry(entry, oracle=DifferentialOracle())
    assert outcome.matched, outcome.detail


def test_planted_divergence_entry_is_a_fire_drill():
    """The ENGINE_DIVERGENCE plant: perturbed oracle, artifacts attached."""
    entry = next(e for e in CORPUS if e.name == "planted-engine-divergence")
    assert entry.expect == ("ENGINE_DIVERGENCE",)
    perturb = entry.oracle["perturb"]
    assert perturb == {"shards": 4, "timeout_delta_ms": 60.0}
    assert "fire drill" in entry.notes
    outcome = replay_entry(entry, oracle=DifferentialOracle())
    assert outcome.matched, outcome.detail
    report = outcome.report
    # Every surviving divergence ships its triage artifacts.
    assert set(report.artifacts) == {"trace_diff", "flight"}
    diff = report.artifacts["trace_diff"]
    assert diff["identical"] is False
    assert diff["first_divergence"]["kind"] in (
        "changed", "left-only", "right-only")
    assert report.artifacts["flight"]["format"] == "jury-flight"
    [violation] = [v for v in report.violations
                   if v.code == "ENGINE_DIVERGENCE"]
    assert "first divergence at t=" in violation.detail
    assert "perturbed timeout 260.0 ms" in violation.detail
    assert "artifacts" in report.to_dict()


def test_planted_entry_is_minimal_and_documents_itself():
    entry = next(e for e in CORPUS
                 if e.name == "k0-response-corruption-evades")
    assert entry.expect == ("FAULT_UNDETECTED",)
    assert entry.spec.k == 0, "the k=0 blind spot is the point of the entry"
    assert entry.spec.n == 2 and entry.spec.switches == 2, \
        "the shrinker reduced this to the floor; keep it that way"
    assert entry.spec.traffic is None
    assert "k=0" in entry.notes


# ----------------------------------------------------------------------
# Corpus plumbing
# ----------------------------------------------------------------------

def _spec() -> ScenarioSpec:
    return ScenarioSpec(seed=3, n=3, k=2, switches=4, timeout_ms=200.0)


def test_save_load_roundtrip(tmp_path):
    entry = CorpusEntry(name="roundtrip", spec=_spec(),
                        expect=("ENGINE_DIVERGENCE",), notes="synthetic")
    path = save_entry(entry, tmp_path)
    assert path.name == "roundtrip.json"
    assert load_entry(path) == entry
    # The file itself is deterministic: key-sorted, newline-terminated.
    text = path.read_text()
    assert text.endswith("\n")
    assert json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n" \
        == text


def test_oracle_knob_roundtrips_and_validates(tmp_path):
    perturb = {"perturb": {"shards": 2, "timeout_delta_ms": 10.0}}
    entry = CorpusEntry(name="knob", spec=_spec(),
                        expect=("ENGINE_DIVERGENCE",), oracle=perturb)
    path = save_entry(entry, tmp_path)
    loaded = load_entry(path)
    assert loaded.oracle == perturb
    # Entries without the knob keep their old on-disk shape.
    plain_path = save_entry(CorpusEntry(name="plain", spec=_spec(),
                                        expect=()), tmp_path)
    assert "oracle" not in json.loads(plain_path.read_text())
    assert load_entry(plain_path).oracle is None
    bad = json.loads(path.read_text())
    bad["oracle"] = "not-a-dict"
    path.write_text(json.dumps(bad))
    with pytest.raises(ValidationError, match="'oracle' must be an object"):
        load_entry(path)


def test_load_corpus_sorted_and_duplicate_safe(tmp_path):
    save_entry(CorpusEntry(name="bbb", spec=_spec(), expect=()), tmp_path)
    save_entry(CorpusEntry(name="aaa", spec=_spec(), expect=()), tmp_path)
    names = [entry.name for entry in load_corpus(tmp_path)]
    assert names == ["aaa", "bbb"]

    clash = tmp_path / "aaa-again.json"
    data = json.loads((tmp_path / "aaa.json").read_text())
    clash.write_text(json.dumps(data))
    with pytest.raises(ValidationError):
        load_corpus(tmp_path)


def test_load_corpus_missing_dir_is_empty(tmp_path):
    assert load_corpus(tmp_path / "nope") == []


def test_load_entry_rejects_garbage(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ValidationError):
        load_entry(bad)
    missing = tmp_path / "fields.json"
    missing.write_text(json.dumps({"format": 1, "name": "x"}))
    with pytest.raises(ValidationError):
        load_entry(missing)
    wrong_format = tmp_path / "fmt.json"
    wrong_format.write_text(json.dumps({"format": 2, "name": "x",
                                        "spec": _spec().to_dict()}))
    with pytest.raises(ValidationError):
        load_entry(wrong_format)


def test_default_corpus_dir_resolves_to_the_repo_corpus():
    directory = default_corpus_dir()
    assert directory.name == "corpus"
    assert (directory / "k0-response-corruption-evades.json").is_file()
