"""Seed-driven scenario generation for the JURY fuzzer.

A :class:`ScenarioSpec` is the *complete* description of one fuzz case:
the hosting shape (topology family and size, controller kind, cluster
size), the validation config (k, θτ), an optional traffic schedule, and
an optional fault schedule. Specs are frozen, JSON-round-trippable, and
canonically encodable, so a failing case can be shrunk, saved into the
regression corpus, and replayed byte-for-byte forever after.

:class:`ScenarioGen` draws specs from a single PRNG seed. Every random
choice comes from ``random.Random(f"jury-fuzz/{seed}")`` — never the
wall clock, never module-level :mod:`random` — so the same seed yields
the same spec in any process on any machine. The generator deliberately
draws from ranges in which JURY's guarantees are *expected* to hold
(k ≥ 2 so consensus has a quorum, faults from the detectable catalog);
hand-written corpus entries are free to leave that envelope, which is
exactly how the planted k=0 evasion counterexample is expressed.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

from repro.errors import ValidationError

#: Spec serialization format version (bump on incompatible change).
SPEC_FORMAT = 1


@dataclass(frozen=True)
class TrafficSpec:
    """A paced benign-traffic window (see :class:`~repro.workloads.traffic.TrafficDriver`)."""

    rate_per_s: float = 300.0
    duration_ms: float = 200.0
    arp_fraction: float = 0.3
    host_join_rate_per_s: float = 0.0

    def to_dict(self) -> Dict[str, object]:
        return {
            "rate_per_s": self.rate_per_s,
            "duration_ms": self.duration_ms,
            "arp_fraction": self.arp_fraction,
            "host_join_rate_per_s": self.host_join_rate_per_s,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "TrafficSpec":
        return cls(**data)


@dataclass(frozen=True)
class FaultSpec:
    """One injectable fault from the fuzz catalog plus its parameters.

    ``deadline_ms`` overrides the θτ-derived detection deadline (the
    scenario's own settle window); ``None`` keeps the catalog default.
    """

    name: str
    params: Tuple[Tuple[str, object], ...] = ()
    deadline_ms: Optional[float] = None

    def param_dict(self) -> Dict[str, object]:
        return dict(self.params)

    def to_dict(self) -> Dict[str, object]:
        payload: Dict[str, object] = {"name": self.name,
                                      "params": self.param_dict()}
        if self.deadline_ms is not None:
            payload["deadline_ms"] = self.deadline_ms
        return payload

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "FaultSpec":
        return cls(name=data["name"],
                   params=tuple(sorted(data.get("params", {}).items())),
                   deadline_ms=data.get("deadline_ms"))


@dataclass(frozen=True)
class ScenarioSpec:
    """Everything needed to run (and re-run) one fuzz case."""

    seed: int = 0
    kind: str = "onos"
    n: int = 4
    k: int = 3
    switches: int = 6
    timeout_ms: float = 250.0
    traffic: Optional[TrafficSpec] = None
    faults: Tuple[FaultSpec, ...] = ()
    #: Extra settle after the last stimulus, in θτ multiples.
    settle_timeouts: float = 4.0

    def __post_init__(self):
        if self.n < 2:
            raise ValidationError(f"fuzz spec needs n >= 2: {self.n}")
        if not 0 <= self.k <= self.n - 1:
            raise ValidationError(
                f"fuzz spec needs k in [0, n-1]: k={self.k}, n={self.n}")
        if self.switches < 2:
            raise ValidationError(
                f"fuzz spec needs >= 2 switches: {self.switches}")
        if self.timeout_ms <= 0:
            raise ValidationError(
                f"fuzz spec needs a positive timeout: {self.timeout_ms}")
        for fault in self.faults:
            if fault.name not in FUZZ_FAULTS:
                raise ValidationError(
                    f"unknown fuzz fault {fault.name!r} "
                    f"(known: {', '.join(sorted(FUZZ_FAULTS))})")

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        return {
            "format": SPEC_FORMAT,
            "seed": self.seed,
            "kind": self.kind,
            "n": self.n,
            "k": self.k,
            "switches": self.switches,
            "timeout_ms": self.timeout_ms,
            "traffic": None if self.traffic is None else self.traffic.to_dict(),
            "faults": [fault.to_dict() for fault in self.faults],
            "settle_timeouts": self.settle_timeouts,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "ScenarioSpec":
        fmt = data.get("format", SPEC_FORMAT)
        if fmt != SPEC_FORMAT:
            raise ValidationError(f"unsupported spec format {fmt!r}")
        traffic = data.get("traffic")
        return cls(
            seed=data.get("seed", 0),
            kind=data.get("kind", "onos"),
            n=data["n"],
            k=data["k"],
            switches=data["switches"],
            timeout_ms=data["timeout_ms"],
            traffic=None if traffic is None else TrafficSpec.from_dict(traffic),
            faults=tuple(FaultSpec.from_dict(f) for f in data.get("faults", ())),
            settle_timeouts=data.get("settle_timeouts", 4.0),
        )

    def canonical_json(self) -> str:
        """Byte-stable canonical encoding (sorted keys, tight separators)."""
        return json.dumps(self.to_dict(), sort_keys=True,
                          separators=(",", ":"))

    def digest(self) -> str:
        """SHA-256 of the canonical encoding — the spec's stable identity."""
        return hashlib.sha256(self.canonical_json().encode("utf-8")).hexdigest()

    def replace(self, **changes) -> "ScenarioSpec":
        import dataclasses
        return dataclasses.replace(self, **changes)

    def describe(self) -> str:
        parts = [f"seed={self.seed}", f"{self.kind}", f"n={self.n}",
                 f"k={self.k}", f"sw={self.switches}",
                 f"θτ={self.timeout_ms:.0f}ms"]
        if self.traffic is not None:
            parts.append(f"traffic={self.traffic.rate_per_s:.0f}/s"
                         f"×{self.traffic.duration_ms:.0f}ms")
        for fault in self.faults:
            parts.append(f"fault={fault.name}")
        return " ".join(parts)


# ----------------------------------------------------------------------
# The fuzzable fault catalog
# ----------------------------------------------------------------------
# Each entry draws valid constructor arguments for one
# :data:`repro.faults.CATALOG` fault. Only faults whose detection is a
# published JURY guarantee inside the generator's envelope belong here —
# the oracle treats a missed detection as a counterexample, not noise.

@dataclass(frozen=True)
class FuzzFault:
    """Fuzz entry: the parameter drawer for one catalog fault."""

    draw_params: Callable[[random.Random, "ScenarioSpec"], Tuple[Tuple[str, object], ...]]
    #: Smallest k at which detection is guaranteed (generator floor).
    min_k: int = 0


def _draw_controller(rng: random.Random, spec: ScenarioSpec) -> str:
    return f"c{rng.randint(1, spec.n)}"


def _draw_adjacent_dpids(rng: random.Random, spec: ScenarioSpec) -> Tuple[int, int]:
    a = rng.randint(1, spec.switches - 1)
    return a, a + 1


def _clamp_fault_params(fault: FaultSpec, spec: ScenarioSpec) -> FaultSpec:
    """Re-fit a fault's parameters after the spec shrank under it."""
    params = fault.param_dict()
    changed = False
    for key in ("dpid_a", "dpid_b"):
        if key in params and params[key] > spec.switches:
            params[key] = spec.switches if key == "dpid_b" else spec.switches - 1
            changed = True
    if ("dpid_a" in params and "dpid_b" in params
            and params["dpid_a"] >= params["dpid_b"]):
        params["dpid_a"], params["dpid_b"] = spec.switches - 1, spec.switches
        changed = True
    if "faulty_controller" in params:
        index = int(str(params["faulty_controller"]).lstrip("c") or 1)
        if index > spec.n:
            params["faulty_controller"] = f"c{spec.n}"
            changed = True
    if not changed:
        return fault
    return FaultSpec(name=fault.name,
                     params=tuple(sorted(params.items())),
                     deadline_ms=fault.deadline_ms)


FUZZ_FAULTS = {
    "link-failure": FuzzFault(
        draw_params=lambda rng, spec: tuple(sorted(
            zip(("dpid_a", "dpid_b"), _draw_adjacent_dpids(rng, spec)))),
        min_k=2),
    "undesirable-flow-mod": FuzzFault(
        draw_params=lambda rng, spec: (
            ("faulty_controller", _draw_controller(rng, spec)),)),
    "faulty-proactive": FuzzFault(
        draw_params=lambda rng, spec: tuple(sorted(
            (("faulty_controller", _draw_controller(rng, spec)),)
            + tuple(zip(("dpid_a", "dpid_b"),
                        _draw_adjacent_dpids(rng, spec)))))),
    "response-corruption": FuzzFault(
        draw_params=lambda rng, spec: (
            ("faulty_controller", _draw_controller(rng, spec)),),
        min_k=2),
    "response-omission": FuzzFault(
        draw_params=lambda rng, spec: (
            ("faulty_controller", _draw_controller(rng, spec)),),
        min_k=1),
    "crash": FuzzFault(
        draw_params=lambda rng, spec: (
            ("faulty_controller", _draw_controller(rng, spec)),),
        min_k=1),
}


def build_fault_scenario(fault: FaultSpec):
    """Instantiate the live :class:`~repro.faults.base.FaultScenario`."""
    from repro.faults import CATALOG
    return CATALOG[fault.name](**fault.param_dict())


# ----------------------------------------------------------------------
# The generator
# ----------------------------------------------------------------------

class ScenarioGen:
    """Deterministic scenario generator: one seed in, one spec out.

    ``spec(seed)`` is a pure function of the seed — the generator holds
    no mutable draw state, so fixtures can share one instance freely.
    """

    #: Probability that a generated scenario carries a fault schedule.
    FAULT_PROBABILITY = 0.4

    def spec(self, seed: int) -> ScenarioSpec:
        """Draw the scenario for ``seed``."""
        rng = random.Random(f"jury-fuzz/{seed}")
        n = rng.randint(3, 5)
        k = rng.randint(2, n - 1)
        switches = rng.randint(4, 8)
        timeout_ms = float(rng.choice((150, 200, 250, 300)))
        traffic = TrafficSpec(
            rate_per_s=float(rng.choice((200, 300, 400, 500))),
            duration_ms=float(rng.choice((120, 180, 240))),
            arp_fraction=rng.choice((0.0, 0.3)),
            host_join_rate_per_s=rng.choice((0.0, 0.0, 2.0)),
        )
        draft = ScenarioSpec(seed=seed, kind="onos", n=n, k=k,
                             switches=switches, timeout_ms=timeout_ms,
                             traffic=traffic)
        faults: Tuple[FaultSpec, ...] = ()
        if rng.random() < self.FAULT_PROBABILITY:
            eligible = sorted(name for name, entry in FUZZ_FAULTS.items()
                              if entry.min_k <= k)
            name = rng.choice(eligible)
            faults = (FaultSpec(
                name=name,
                params=FUZZ_FAULTS[name].draw_params(rng, draft)),)
        return draft.replace(faults=faults)
