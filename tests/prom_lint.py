"""A strict checker of the Prometheus text exposition format.

``jury-repro report --format prom`` renders :mod:`repro.obs.export`'s
exposition; the tests and the CI observability job check it with
:func:`lint_prometheus_text`, so no external Prometheus tooling is needed.
"""

from __future__ import annotations

import math
import re
from typing import Dict, Iterable, List, Tuple

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[^{}]*)\})?"
    r" (?P<value>-?[0-9]+(?:\.[0-9]+)?(?:[eE][-+]?[0-9]+)?|NaN|[+-]Inf)$")
_LABEL_RE = re.compile(
    r'^[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\\n]|\\["\\n])*"$')
_TYPES = ("counter", "gauge", "summary", "histogram", "untyped")


def lint_prometheus_text(text: str) -> List[str]:
    """Validate an exposition document; returns error strings (empty = ok).

    Checks the line grammar, label-pair syntax, ``# TYPE``/``# HELP``
    placement (before the family's first sample, at most once per family),
    duplicate series, and histogram bucket discipline: every ``_bucket``
    sample of a declared histogram must carry an ``le`` label, the bucket
    counts of each series must be cumulative (non-decreasing in ``le``
    order), and the ``+Inf`` bucket must be present and equal the series'
    ``_count``.
    """
    errors: List[str] = []
    declared: Dict[str, str] = {}
    helped: set = set()
    seen_series: set = set()
    sampled_families: set = set()
    #: (family, non-le label body) -> [(le, value), ...] / _count values
    buckets: Dict[Tuple[str, str], List[Tuple[float, float]]] = {}
    counts: Dict[Tuple[str, str], float] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            errors.append(f"line {lineno}: blank line in exposition")
            continue
        if line.startswith("#"):
            parts = line.split(None, 3)
            if len(parts) >= 2 and parts[1] == "TYPE":
                if len(parts) != 4:
                    errors.append(f"line {lineno}: malformed TYPE comment")
                    continue
                _, _, family, prom_type = parts
                if not _NAME_RE.match(family):
                    errors.append(
                        f"line {lineno}: bad family name {family!r}")
                if prom_type not in _TYPES:
                    errors.append(
                        f"line {lineno}: unknown type {prom_type!r}")
                if family in declared:
                    errors.append(
                        f"line {lineno}: duplicate TYPE for {family!r}")
                if family in sampled_families:
                    errors.append(
                        f"line {lineno}: TYPE for {family!r} after samples")
                declared[family] = prom_type
            elif len(parts) >= 2 and parts[1] == "HELP":
                if len(parts) < 4:
                    errors.append(f"line {lineno}: malformed HELP comment")
                    continue
                family = parts[2]
                if not _NAME_RE.match(family):
                    errors.append(
                        f"line {lineno}: bad family name {family!r}")
                if family in helped:
                    errors.append(
                        f"line {lineno}: duplicate HELP for {family!r}")
                if family in sampled_families:
                    errors.append(
                        f"line {lineno}: HELP for {family!r} after samples")
                helped.add(family)
            continue
        match = _SAMPLE_RE.match(line)
        if match is None:
            errors.append(f"line {lineno}: unparseable sample {line!r}")
            continue
        name = match.group("name")
        family = _family_of(name, declared)
        sampled_families.add(family)
        if family not in declared:
            errors.append(
                f"line {lineno}: sample for undeclared family {family!r}")
        labels = match.group("labels")
        label_pairs: List[str] = []
        if labels:
            for pair in _split_label_pairs(labels):
                if not _LABEL_RE.match(pair):
                    errors.append(
                        f"line {lineno}: malformed label pair {pair!r}")
                else:
                    label_pairs.append(pair)
        series = (name, labels or "")
        if series in seen_series:
            errors.append(f"line {lineno}: duplicate series {line!r}")
        seen_series.add(series)
        if declared.get(family) != "histogram":
            continue
        value = float(match.group("value").replace("+Inf", "inf")
                      .replace("-Inf", "-inf").replace("NaN", "nan"))
        rest = ",".join(p for p in label_pairs if not p.startswith('le="'))
        if name == f"{family}_bucket":
            le_pairs = [p for p in label_pairs if p.startswith('le="')]
            if len(le_pairs) != 1:
                errors.append(
                    f"line {lineno}: histogram bucket without an le label")
                continue
            bound_text = le_pairs[0][len('le="'):-1]
            try:
                bound = float(bound_text.replace("+Inf", "inf"))
            except ValueError:
                errors.append(
                    f"line {lineno}: unparseable le bound {bound_text!r}")
                continue
            buckets.setdefault((family, rest), []).append((bound, value))
        elif name == f"{family}_count":
            counts[(family, rest)] = value
    for key, series_buckets in sorted(buckets.items()):
        family, rest = key
        label = f"{family}{{{rest}}}" if rest else family
        bounds = [bound for bound, _ in series_buckets]
        values = [value for _, value in series_buckets]
        if bounds != sorted(bounds):
            errors.append(f"{label}: bucket le bounds out of order")
        if any(later < earlier
               for earlier, later in zip(values, values[1:])):
            errors.append(f"{label}: bucket counts are not cumulative")
        if not bounds or bounds[-1] != math.inf:
            errors.append(f"{label}: missing +Inf bucket")
        elif key in counts and values[-1] != counts[key]:
            errors.append(
                f"{label}: +Inf bucket {values[-1]} != _count {counts[key]}")
    return errors


def _family_of(sample_name: str, declared: Dict[str, str]) -> str:
    """Map a sample name back to its family (summary _sum/_count suffixes)."""
    for suffix in ("_sum", "_count", "_bucket"):
        if sample_name.endswith(suffix):
            base = sample_name[:-len(suffix)]
            if declared.get(base) in ("summary", "histogram"):
                return base
    return sample_name


def _split_label_pairs(body: str) -> Iterable[str]:
    """Split ``k="v",k2="v2"`` on commas outside quoted values."""
    pairs: List[str] = []
    current: List[str] = []
    in_quotes = False
    escaped = False
    for char in body:
        if escaped:
            current.append(char)
            escaped = False
            continue
        if char == "\\":
            current.append(char)
            escaped = True
            continue
        if char == '"':
            in_quotes = not in_quotes
            current.append(char)
            continue
        if char == "," and not in_quotes:
            pairs.append("".join(current))
            current = []
            continue
        current.append(char)
    if current:
        pairs.append("".join(current))
    return pairs
