"""Generator determinism, spec serialization, and the fuzz-fault catalog."""

from __future__ import annotations

import pytest

from repro.errors import ValidationError
from repro.fuzz.scenario import (
    FUZZ_FAULTS,
    FaultSpec,
    ScenarioGen,
    ScenarioSpec,
    TrafficSpec,
    _clamp_fault_params,
    build_fault_scenario,
)


# ----------------------------------------------------------------------
# Determinism
# ----------------------------------------------------------------------

def test_same_seed_same_spec(scenario_gen):
    for seed in (0, 1, 7, 41, 9999):
        first = scenario_gen.spec(seed)
        second = ScenarioGen().spec(seed)
        assert first == second
        assert first.digest() == second.digest()
        assert first.canonical_json() == second.canonical_json()


def test_different_seeds_differ(scenario_gen):
    digests = {scenario_gen.spec(seed).digest() for seed in range(30)}
    # A little collision slack: distinct seeds may draw the same shape.
    assert len(digests) > 20


def test_generator_stays_inside_the_guaranteed_envelope(scenario_gen):
    """Generated scenarios must only use configurations in which JURY's
    detection guarantees hold — k >= 2 and catalog faults with min_k <= k —
    otherwise clean-run fuzzing would report false counterexamples."""
    for seed in range(60):
        spec = scenario_gen.spec(seed)
        assert 2 <= spec.k <= spec.n - 1
        assert spec.switches >= 4
        for fault in spec.faults:
            assert FUZZ_FAULTS[fault.name].min_k <= spec.k


def test_generator_produces_both_flavors(scenario_gen):
    specs = [scenario_gen.spec(seed) for seed in range(40)]
    assert any(s.faults for s in specs), "no faulted scenarios in 40 draws"
    assert any(not s.faults for s in specs), "no clean scenarios in 40 draws"


def test_small_fuzz_corpus_fixture_pins_its_flavors(small_fuzz_corpus):
    # The shared fixture promises both flavors; suites depend on that.
    by_seed = {spec.seed: spec for spec in small_fuzz_corpus}
    assert set(by_seed) == {7, 8, 9, 10}
    assert by_seed[7].faults and by_seed[10].faults
    assert not by_seed[8].faults and not by_seed[9].faults


# ----------------------------------------------------------------------
# Serialization
# ----------------------------------------------------------------------

def test_spec_roundtrips_through_dict(scenario_gen):
    for seed in range(12):
        spec = scenario_gen.spec(seed)
        assert ScenarioSpec.from_dict(spec.to_dict()) == spec


def test_canonical_json_is_key_sorted_and_tight():
    spec = ScenarioSpec(seed=1, n=3, k=2, switches=4, timeout_ms=200.0)
    text = spec.canonical_json()
    assert ": " not in text and ", " not in text
    assert text.index('"k"') < text.index('"kind"') < text.index('"n"')


def test_unsupported_format_rejected():
    spec = ScenarioSpec(seed=1, n=3, k=2, switches=4, timeout_ms=200.0)
    payload = spec.to_dict()
    payload["format"] = 99
    with pytest.raises(ValidationError):
        ScenarioSpec.from_dict(payload)


# ----------------------------------------------------------------------
# Validation
# ----------------------------------------------------------------------

@pytest.mark.parametrize("kwargs", [
    {"n": 1},
    {"k": 3, "n": 3},
    {"k": -1},
    {"switches": 1},
    {"timeout_ms": 0.0},
    {"faults": (FaultSpec(name="no-such-fault"),)},
])
def test_invalid_specs_rejected(kwargs):
    base = {"seed": 1, "n": 3, "k": 2, "switches": 4, "timeout_ms": 200.0}
    base.update(kwargs)
    with pytest.raises(ValidationError):
        ScenarioSpec(**base)


# ----------------------------------------------------------------------
# The fault catalog
# ----------------------------------------------------------------------

def test_every_catalog_fault_builds_a_scenario(scenario_gen):
    import random

    spec = ScenarioSpec(seed=1, n=5, k=4, switches=8, timeout_ms=200.0)
    rng = random.Random("catalog")
    for name, entry in sorted(FUZZ_FAULTS.items()):
        fault = FaultSpec(name=name, params=entry.draw_params(rng, spec))
        scenario = build_fault_scenario(fault)
        assert hasattr(scenario, "inject") and hasattr(scenario, "trigger")


def test_fuzz_faults_build_catalog_instances_with_the_drawn_params():
    import random

    from repro.faults import CATALOG

    spec = ScenarioSpec(seed=1, n=5, k=4, switches=8, timeout_ms=200.0)
    rng = random.Random("catalog")
    assert set(FUZZ_FAULTS) <= set(CATALOG)
    for name, entry in sorted(FUZZ_FAULTS.items()):
        fault = FaultSpec(name=name, params=entry.draw_params(rng, spec))
        scenario = build_fault_scenario(fault)
        assert type(scenario) is CATALOG[name]
        assert fault.params
        for key, value in fault.params:
            assert getattr(scenario, key) == value


def test_clamp_refits_dpids_after_topology_shrink():
    fault = FaultSpec(name="link-failure",
                      params=(("dpid_a", 7), ("dpid_b", 8)))
    small = ScenarioSpec(seed=1, n=3, k=2, switches=3, timeout_ms=200.0,
                         faults=(fault,))
    refit = _clamp_fault_params(fault, small)
    params = refit.param_dict()
    assert params["dpid_a"] == 2 and params["dpid_b"] == 3


def test_clamp_refits_controller_after_cluster_shrink():
    fault = FaultSpec(name="crash", params=(("faulty_controller", "c5"),))
    small = ScenarioSpec(seed=1, n=2, k=1, switches=4, timeout_ms=200.0,
                         faults=(fault,))
    refit = _clamp_fault_params(fault, small)
    assert refit.param_dict()["faulty_controller"] == "c2"


def test_clamp_leaves_valid_params_alone():
    fault = FaultSpec(name="link-failure",
                      params=(("dpid_a", 1), ("dpid_b", 2)))
    spec = ScenarioSpec(seed=1, n=3, k=2, switches=4, timeout_ms=200.0,
                        faults=(fault,))
    assert _clamp_fault_params(fault, spec) is fault


def test_traffic_spec_roundtrip():
    traffic = TrafficSpec(rate_per_s=250.0, duration_ms=90.0,
                          arp_fraction=0.3, host_join_rate_per_s=2.0)
    assert TrafficSpec.from_dict(traffic.to_dict()) == traffic
