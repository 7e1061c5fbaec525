"""Greedy scenario shrinking: minimize a failing spec, keep the failure.

The :class:`Shrinker` takes a spec whose oracle run produced violations and
searches for a *smaller* spec that still produces (at least) the same
violation codes — the failure *signature*. Shrinking is delta-debugging in
miniature: each pass proposes one structural simplification (drop the
traffic schedule, drop a fault, shrink the topology, shrink the cluster,
shorten the traffic window, tighten the settle window) and keeps the
proposal only if the signature survives. Passes repeat until a full sweep
makes no progress or the evaluation budget runs out.

Every candidate evaluation is a complete oracle run, so the budget is the
knob that bounds wall-clock; results are memoized by spec digest so
revisited candidates are free.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.errors import ValidationError, WorkloadError
from repro.fuzz.oracle import DifferentialOracle, OracleReport
from repro.fuzz.scenario import ScenarioSpec, _clamp_fault_params

#: Default cap on oracle evaluations per shrink.
DEFAULT_BUDGET = 40


@dataclass
class ShrinkStep:
    """One accepted simplification."""

    description: str
    digest: str


@dataclass
class ShrinkResult:
    """Outcome of one shrink: the minimal spec plus the audit trail."""

    original: ScenarioSpec
    minimized: ScenarioSpec
    signature: Tuple[str, ...]
    evaluations: int
    steps: List[ShrinkStep] = field(default_factory=list)
    #: The oracle report for the minimized spec (the repro's evidence).
    report: Optional[OracleReport] = None


class Shrinker:
    """Greedy structural minimizer for failing scenario specs."""

    def __init__(self, oracle: Optional[DifferentialOracle] = None,
                 budget: int = DEFAULT_BUDGET):
        self.oracle = oracle if oracle is not None else DifferentialOracle()
        self.budget = budget
        self._evaluations = 0
        self._cache: Dict[str, OracleReport] = {}

    # ------------------------------------------------------------------
    def shrink(self, spec: ScenarioSpec,
               signature: Optional[Tuple[str, ...]] = None) -> ShrinkResult:
        """Minimize ``spec`` while preserving its violation signature.

        ``signature`` defaults to the codes of a fresh oracle run on
        ``spec``; passing the codes from an earlier run saves one
        evaluation. Raises :class:`ValueError` if the spec is not failing.
        """
        self._evaluations = 0
        self._cache = {}
        if signature is None:
            signature = self._evaluate(spec).codes()
        if not signature:
            raise ValueError("cannot shrink a passing spec (no violations)")
        target = frozenset(signature)

        current = spec
        steps: List[ShrinkStep] = []
        progress = True
        while progress and self._evaluations < self.budget:
            progress = False
            for description, candidate in self._candidates(current):
                if self._evaluations >= self.budget:
                    break
                if candidate.digest() == current.digest():
                    continue
                if self._still_fails(candidate, target):
                    current = candidate
                    steps.append(ShrinkStep(description, candidate.digest()))
                    progress = True
                    break  # restart the pass list against the new spec
        return ShrinkResult(
            original=spec, minimized=current, signature=tuple(sorted(target)),
            evaluations=self._evaluations, steps=steps,
            report=self._cache.get(current.digest()))

    # ------------------------------------------------------------------
    # Candidate generation (ordered: biggest simplifications first)
    # ------------------------------------------------------------------
    def _candidates(self, spec: ScenarioSpec):
        if spec.traffic is not None:
            yield "drop traffic schedule", spec.replace(traffic=None)
        for index in range(len(spec.faults)):
            kept = spec.faults[:index] + spec.faults[index + 1:]
            yield (f"drop fault {spec.faults[index].name}",
                   spec.replace(faults=kept))
        for switches in self._lower(spec.switches, floor=2):
            candidate = spec.replace(switches=switches)
            yield (f"shrink topology to {switches} switches",
                   self._refit(candidate))
        for n in self._lower(spec.n, floor=2):
            candidate = spec.replace(n=n, k=min(spec.k, n - 1))
            yield f"shrink cluster to n={n}", self._refit(candidate)
        if spec.traffic is not None:
            traffic = spec.traffic
            if traffic.duration_ms > 50.0:
                shorter = traffic.__class__(
                    rate_per_s=traffic.rate_per_s,
                    duration_ms=max(50.0, traffic.duration_ms / 2),
                    arp_fraction=traffic.arp_fraction,
                    host_join_rate_per_s=traffic.host_join_rate_per_s)
                yield (f"halve traffic window to {shorter.duration_ms:.0f}ms",
                       spec.replace(traffic=shorter))
            if traffic.host_join_rate_per_s:
                calm = traffic.__class__(
                    rate_per_s=traffic.rate_per_s,
                    duration_ms=traffic.duration_ms,
                    arp_fraction=traffic.arp_fraction)
                yield "drop host churn", spec.replace(traffic=calm)
        if spec.settle_timeouts > 2.0:
            yield ("narrow settle window to 2 timeouts",
                   spec.replace(settle_timeouts=2.0))

    @staticmethod
    def _lower(value: int, floor: int):
        """Try the floor first (best case), then halfway, then value-1."""
        seen = set()
        for candidate in (floor, (value + floor) // 2, value - 1):
            if floor <= candidate < value and candidate not in seen:
                seen.add(candidate)
                yield candidate

    @staticmethod
    def _refit(spec: ScenarioSpec) -> ScenarioSpec:
        """Re-fit fault parameters invalidated by a structural shrink."""
        if not spec.faults:
            return spec
        return spec.replace(faults=tuple(
            _clamp_fault_params(fault, spec) for fault in spec.faults))

    # ------------------------------------------------------------------
    def _still_fails(self, candidate: ScenarioSpec,
                     target: frozenset) -> bool:
        try:
            report = self._evaluate(candidate)
        except (ValidationError, WorkloadError):
            # A candidate the harness cannot even run is not a simpler
            # repro of the same failure.
            return False
        return target <= set(report.codes())

    def _evaluate(self, spec: ScenarioSpec) -> OracleReport:
        digest = spec.digest()
        if digest not in self._cache:
            self._evaluations += 1
            self._cache[digest] = self.oracle.run(spec)
        return self._cache[digest]
