"""The redesigned construction API: JuryConfig, Jury.build, Jury.experiment.

Covers config immutability/validation, the declarative from_dict/to_dict
round-trip, the single build entry point (with and without a
caller-supplied cluster), the deployment facade methods, and the removed
legacy seams — ``build_experiment`` / ``JuryDeployment(cluster, k=...)``
keywords must fail immediately with the replacement spelled out.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro import Jury, JuryConfig, JuryDeployment, MetricsRegistry, Tracer
from repro.config import POLICY_SETS, register_policy_set
from repro.core.pipeline import ValidationPipeline
from repro.core.validator import Validator
from repro.errors import ValidationError
from repro.harness.experiment import Experiment, build_experiment

N = 5
K = N - 1  # full-pool secondary selection: live runs become comparable


# ----------------------------------------------------------------------
# The config object
# ----------------------------------------------------------------------

def test_config_is_frozen():
    config = JuryConfig(k=2)
    with pytest.raises(dataclasses.FrozenInstanceError):
        config.k = 3
    changed = config.replace(k=3, trace=True)
    assert (changed.k, changed.trace) == (3, True)
    assert (config.k, config.trace) == (2, False)


def test_config_validation():
    with pytest.raises(ValidationError):
        JuryConfig(k=-1)
    with pytest.raises(ValidationError):
        JuryConfig(pipeline=0)
    with pytest.raises(ValidationError):
        JuryConfig(policies=("no-such-set",))
    JuryConfig(k=None)  # vanilla-cluster configs are valid


def test_effective_timeout_follows_controller_kind():
    assert JuryConfig(kind="onos").effective_timeout_ms == 250.0
    assert JuryConfig(kind="odl").effective_timeout_ms == 1200.0
    assert JuryConfig(kind="odl", timeout_ms=90.0).effective_timeout_ms == 90.0


def test_named_policy_sets_resolve_lazily():
    assert "default" in POLICY_SETS
    engine = JuryConfig(policies=("default",)).build_policy_engine()
    assert engine is not None and engine.policies
    register_policy_set("test-empty", lambda: engine)
    try:
        merged = JuryConfig(
            policies=("default", "test-empty")).build_policy_engine()
        assert len(merged.policies) == 2 * len(engine.policies)
    finally:
        POLICY_SETS.pop("test-empty")


def test_observability_builders_follow_flags():
    off = JuryConfig()
    assert off.build_tracer() is None and off.build_metrics() is None
    on = JuryConfig(trace=True, metrics=True)
    assert isinstance(on.build_tracer(), Tracer)
    assert isinstance(on.build_metrics(), MetricsRegistry)
    description = on.describe()
    assert description["trace"] and description["metrics"]


def test_sampling_and_flight_config():
    from repro.obs.recorder import FlightRecorder
    from repro.obs.sampling import HeadSampler

    off = JuryConfig()
    assert off.build_sampler() is None, "obs_sample=1 means record all"
    assert off.build_flight_recorder() is None

    on = JuryConfig(obs_sample=16, flight=True, flight_capacity=32)
    sampler = on.build_sampler()
    assert isinstance(sampler, HeadSampler) and sampler.rate == 16
    recorder = on.build_flight_recorder()
    assert isinstance(recorder, FlightRecorder)
    assert recorder.capacity == 32
    description = on.describe()
    assert description["obs_sample"] == 16
    assert description["flight"]

    for bad in ({"obs_sample": 0}, {"obs_sample": True},
                {"obs_sample": 2.5}, {"flight_capacity": 0},
                {"flight_capacity": False}):
        with pytest.raises(ValidationError):
            JuryConfig(**bad)

    payload = on.replace(k=2).to_dict()
    import json
    rebuilt = JuryConfig.from_dict(json.loads(json.dumps(payload)))
    assert rebuilt == on.replace(k=2)


def test_flight_and_sampler_wire_through_the_deployment():
    jury = Jury.build(JuryConfig(k=K, n=N, switches=6, seed=25,
                                 obs_sample=8, flight=True, metrics=True))
    assert jury.sampler is not None and jury.sampler.rate == 8
    assert jury.recorder is not None
    assert jury.validator.observer.recorder is jury.recorder
    assert jury.validator.observer.sampler is jury.sampler
    payload = jury.flight_payload()
    assert payload["format"] == "jury-flight"
    plain = Jury.build(JuryConfig(k=K, n=N, switches=6, seed=26))
    assert plain.recorder is None and plain.sampler is None
    with pytest.raises(ValidationError):
        plain.flight_payload()


# ----------------------------------------------------------------------
# Jury.build / Jury.experiment
# ----------------------------------------------------------------------

def test_build_hosts_a_full_testbed():
    jury = Jury.build(JuryConfig(k=K, n=N, switches=6, seed=21))
    assert isinstance(jury, JuryDeployment)
    assert isinstance(jury.experiment, Experiment)
    assert jury.experiment.jury is jury
    assert isinstance(jury.validator, Validator)
    assert jury.detection_times() == []
    assert jury.false_positive_rate() == 0.0


def test_build_onto_an_existing_cluster_selects_engine():
    exp = Jury.experiment(JuryConfig(k=None, n=N, switches=6, seed=22))
    jury = Jury.build(JuryConfig(k=K, pipeline=4), cluster=exp.cluster)
    assert isinstance(jury.validator, ValidationPipeline)
    assert jury.validator.shards == 4
    assert jury.config.pipeline == 4


def test_build_rejects_non_config_and_vanilla():
    with pytest.raises(ValidationError):
        Jury.build({"k": 2})
    with pytest.raises(ValidationError):
        Jury.build(JuryConfig(k=None))


def test_build_wires_observability_through_the_stack():
    jury = Jury.build(JuryConfig(k=K, n=N, switches=6, seed=23,
                                 trace=True, metrics=True))
    assert isinstance(jury.tracer, Tracer)
    assert jury.validator.tracer is jury.tracer
    for replicator in jury.replicators.values():
        assert replicator.observer is jury.validator.observer
        assert replicator.observer.tracer is jury.tracer
    snapshot = jury.metrics_snapshot()
    assert "pipeline_shards" not in snapshot  # sequential engine
    off = Jury.build(JuryConfig(k=K, n=N, switches=6, seed=24))
    assert off.tracer is None and off.metrics is None
    with pytest.raises(ValidationError):
        off.trace_payload()
    with pytest.raises(ValidationError):
        off.metrics_snapshot()


# ----------------------------------------------------------------------
# Declarative round-trip: from_dict / to_dict
# ----------------------------------------------------------------------

def test_config_dict_round_trip():
    config = JuryConfig(k=4, n=5, switches=6, seed=9, timeout_ms=250.0,
                        pipeline=2, policies=("default",), trace=True,
                        profile_overrides=(("collapse_threshold", 500),))
    payload = config.to_dict()
    assert payload["policies"] == ["default"]  # JSON-able lists
    assert payload["profile_overrides"] == [["collapse_threshold", 500]]
    import json
    rebuilt = JuryConfig.from_dict(json.loads(json.dumps(payload)))
    assert rebuilt == config


def test_from_dict_rejects_unknown_keys_with_did_you_mean():
    with pytest.raises(ValidationError, match="did you mean 'pipeline'"):
        JuryConfig.from_dict({"k": 2, "pipline": 4})
    with pytest.raises(ValidationError, match="unknown config key"):
        JuryConfig.from_dict({"k": 2, "zzzzqq": 1})
    with pytest.raises(ValidationError, match="mapping"):
        JuryConfig.from_dict([("k", 2)])


def test_dict_paths_reject_live_object_fields():
    from repro.core.timeouts import StaticTimeout
    with pytest.raises(ValidationError, match="timeout"):
        JuryConfig(timeout=StaticTimeout(100.0)).to_dict()
    with pytest.raises(ValidationError, match="live object"):
        JuryConfig.from_dict({"k": 2, "policy_engine": object()})
    # None-valued object fields round-trip fine.
    assert JuryConfig.from_dict({"timeout": None}).timeout is None


def test_backend_and_wall_profile_are_refused():
    """The frame backends and their worker profiling are gone: the fields
    are unknown to the constructor and to the dict path alike."""
    with pytest.raises(TypeError, match="backend"):
        JuryConfig(pipeline=2, backend="processes")
    with pytest.raises(TypeError, match="wall_profile"):
        JuryConfig(pipeline=2, wall_profile=True)
    with pytest.raises(ValidationError, match="unknown config key 'backend'"):
        JuryConfig.from_dict({"pipeline": 2, "backend": "processes"})
    with pytest.raises(ValidationError,
                       match="unknown config key 'wall_profile'"):
        JuryConfig.from_dict({"wall_profile": True})
    assert "backend" not in JuryConfig(pipeline=2).to_dict()


def test_pipeline_accepts_only_the_serial_backend_name():
    from repro.core.pipeline import ValidationPipeline
    from repro.sim.simulator import Simulator
    assert ValidationPipeline(Simulator(seed=0), 6, backend="serial").shards
    with pytest.raises(ValueError, match="threads"):
        ValidationPipeline(Simulator(seed=0), 6, backend="threads")


# ----------------------------------------------------------------------
# Removed legacy seams: one-line errors naming the replacement
# ----------------------------------------------------------------------

def test_build_experiment_raises_naming_replacement():
    with pytest.raises(ValidationError, match="Jury.experiment"):
        build_experiment(kind="onos", n=N, k=K, switches=6,
                         seed=31, timeout_ms=250.0)


def test_deployment_kwargs_raise_naming_replacement():
    exp = Jury.experiment(JuryConfig(k=None, n=N, switches=6, seed=32))
    with pytest.raises(ValidationError, match="Jury.build"):
        JuryDeployment(exp.cluster, k=K, timeout_ms=250.0)
    with pytest.raises(ValidationError, match="Jury.build"):
        JuryDeployment(exp.cluster)
