"""The redesigned construction API: JuryConfig, Jury.build, Jury.experiment.

Covers config immutability/validation, the declarative from_dict/to_dict
round-trip, the single build entry point (with and without a
caller-supplied cluster), the deployment facade methods, and the removed
legacy seams — ``build_experiment`` keywords must fail immediately with the
replacement spelled out, and ``JuryDeployment`` takes only a cluster and a
config.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro import Jury, JuryConfig, JuryDeployment, MetricsRegistry, Tracer
from repro.config import POLICY_SETS, register_policy_set
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
    changed = config.replace(k=3, observe=True)
    assert (changed.k, changed.observe) == (3, True)
    assert (config.k, config.observe) == (2, False)


def test_config_validation():
    with pytest.raises(ValidationError):
        JuryConfig(k=-1)
    with pytest.raises(ValidationError):
        JuryConfig(policies=("no-such-set",))
    JuryConfig(k=None)  # vanilla-cluster configs are valid


@pytest.mark.parametrize("timeout_ms", [-5.0, 0, 0.0, float("nan"),
                                        float("inf"), True, "250"])
def test_timeout_ms_must_be_a_finite_positive_number(timeout_ms):
    with pytest.raises(ValidationError, match="timeout_ms"):
        JuryConfig(timeout_ms=timeout_ms)
    with pytest.raises(ValidationError, match="timeout_ms"):
        JuryConfig.from_dict({"timeout_ms": timeout_ms})


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
    assert JuryConfig().build_observers() == {}
    on = JuryConfig(observe=True)
    observers = on.build_observers()
    assert sorted(observers) == ["forensics", "health", "metrics",
                                 "recorder", "sampler", "tracer"]
    assert observers["sampler"] is None, "obs_sample=1 means record all"
    assert on.build_observers()["tracer"] is not observers["tracer"], \
        "every build gets fresh observers"
    description = on.describe()
    assert description["observe"] is True
    assert JuryConfig().describe()["observe"] is False


def test_sampling_and_flight_config():
    from repro.obs.sampling import HeadSampler

    on = JuryConfig(observe=True, obs_sample=16)
    sampler = on.build_observers()["sampler"]
    assert isinstance(sampler, HeadSampler) and sampler.rate == 16
    assert on.describe()["obs_sample"] == 16

    for bad in ({"obs_sample": 0}, {"obs_sample": True},
                {"obs_sample": 2.5}):
        with pytest.raises(ValidationError, match="obs_sample"):
            JuryConfig(observe=True, **bad)
    # A sampler with nothing to sample is refused, not dropped.
    with pytest.raises(ValidationError, match="obs_sample.*observe"):
        JuryConfig(obs_sample=16)
    with pytest.raises(ValidationError, match="obs_sample.*observe"):
        JuryConfig.from_dict({"obs_sample": 16})

    payload = on.replace(k=2).to_dict()
    import json
    rebuilt = JuryConfig.from_dict(json.loads(json.dumps(payload)))
    assert rebuilt == on.replace(k=2)


def test_flight_and_sampler_wire_through_the_deployment():
    jury = Jury.build(JuryConfig(k=K, n=N, switches=6, seed=25,
                                 observe=True, obs_sample=8))
    observer = jury.validator.observer
    assert jury.observer is observer
    assert observer.sampler is not None and observer.sampler.rate == 8
    assert observer.recorder is not None
    payload = jury.report()
    assert sorted(payload) == ["alarms", "flight", "health", "metrics",
                               "trace"]
    assert payload["flight"]["format"] == "jury-flight"
    plain = Jury.build(JuryConfig(k=K, n=N, switches=6, seed=26))
    assert plain.observer is None and plain.slo is None
    assert plain.report() == {}
    with pytest.raises(ValidationError, match="observe=True"):
        plain.prometheus_text()


#: The observability fields ``observe`` replaced, with a value each.
RETIRED_OBSERVABILITY_KEYS = [
    ("trace", True), ("metrics", True), ("diagnose", True),
    ("health", True), ("flight", True), ("flight_capacity", 32),
    ("snapshot_interval_ms", 100.0)]


@pytest.mark.parametrize("key,value", RETIRED_OBSERVABILITY_KEYS)
def test_retired_observability_keys_are_refused(key, value):
    with pytest.raises(ValidationError,
                       match=f"unknown config key '{key}'"):
        JuryConfig.from_dict({key: value})
    with pytest.raises(TypeError, match=key):
        JuryConfig(**{key: value})
    assert key not in JuryConfig().to_dict()
    assert key not in JuryConfig().describe()


def test_observe_builds_exactly_the_five_subscribers_with_defaults():
    from repro.obs.diagnose import AlarmForensics
    from repro.obs.health import ReplicaHealthTracker, default_slo_rules
    from repro.obs.observer import Observer
    from repro.obs.recorder import FlightRecorder

    assert len(dataclasses.fields(JuryConfig)) == 18
    jury = Jury.build(JuryConfig(k=K, n=N, switches=6, seed=27,
                                 observe=True))
    observer = jury.observer
    kinds = {"tracer": Tracer, "metrics": MetricsRegistry,
             "forensics": AlarmForensics, "health": ReplicaHealthTracker,
             "recorder": FlightRecorder}
    assert Observer._SUBSCRIBERS == tuple(kinds)
    for name, kind in kinds.items():
        assert type(getattr(observer, name)) is kind
    assert observer.sampler is None
    assert observer.recorder.capacity == FlightRecorder().capacity == 256
    assert [rule.name for rule in jury.slo.rules] == [
        rule.name for rule in default_slo_rules()]


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


def test_build_rejects_non_config_and_vanilla():
    with pytest.raises(ValidationError):
        Jury.build({"k": 2})
    with pytest.raises(ValidationError):
        Jury.build(JuryConfig(k=None))


def test_build_wires_observability_through_the_stack():
    jury = Jury.build(JuryConfig(k=K, n=N, switches=6, seed=23,
                                 observe=True))
    observer = jury.observer
    assert isinstance(observer.tracer, Tracer)
    assert jury.validator.tracer is observer.tracer
    assert jury.validator.metrics is observer.metrics
    for replicator in jury.replicators.values():
        assert replicator.observer is observer
    payload = jury.report()
    snapshot = payload["metrics"]
    assert snapshot and not any(name.startswith("pipeline_")
                                for name in snapshot)
    assert payload["trace"]["format"] == "jury-trace"
    off = Jury.build(JuryConfig(k=K, n=N, switches=6, seed=24))
    assert off.observer is None and off.validator.tracer is None
    assert all(replicator.observer is None
               for replicator in off.replicators.values())
    assert off.report() == {}


# ----------------------------------------------------------------------
# Declarative round-trip: from_dict / to_dict
# ----------------------------------------------------------------------

def test_config_dict_round_trip():
    config = JuryConfig(k=4, n=5, switches=6, seed=9, timeout_ms=250.0,
                        policies=("default",), observe=True,
                        profile_overrides=(("collapse_threshold", 500),))
    payload = config.to_dict()
    assert payload["policies"] == ["default"]  # JSON-able lists
    assert payload["profile_overrides"] == [["collapse_threshold", 500]]
    import json
    rebuilt = JuryConfig.from_dict(json.loads(json.dumps(payload)))
    assert rebuilt == config


def test_from_dict_rejects_unknown_keys_with_did_you_mean():
    with pytest.raises(ValidationError, match="did you mean 'switches'"):
        JuryConfig.from_dict({"k": 2, "swiches": 4})
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
    """The frame backends, their worker profiling and the sharded-pipeline
    options are gone: the fields are unknown to the constructor and to the
    dict path alike."""
    for key, value in (("backend", "processes"), ("wall_profile", True),
                       ("pipeline", 2), ("queue_capacity", 1024),
                       ("batch_max", 512), ("flush_interval_ms", 0.0)):
        with pytest.raises(TypeError, match=key):
            JuryConfig(**{key: value})
        with pytest.raises(ValidationError,
                           match=f"unknown config key '{key}'"):
            JuryConfig.from_dict({key: value})
        assert key not in JuryConfig().to_dict()
        assert key not in JuryConfig().describe()


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
    with pytest.raises(TypeError, match="'k'"):
        JuryDeployment(exp.cluster, k=K, timeout_ms=250.0)
    with pytest.raises(TypeError, match="'config'"):
        JuryDeployment(exp.cluster)
