"""JURY — validating controller actions in software-defined networks.

A complete Python reproduction of JURY (Mahajan, Poddar, Dhawan, Mann —
DSN 2016), including every substrate the paper's evaluation depends on:
a discrete-event network simulator with OpenFlow soft switches, Hazelcast-
and Infinispan-like distributed stores, ONOS- and ODL-like controller
clusters, the workload generators, and a catalog of injectable faults.

Most users start from the config-driven facade::

    from repro import Jury, JuryConfig

    exp = Jury.experiment(JuryConfig(k=6, timeout_ms=250.0, observe=True))
    exp.warmup()
    ...
    exp.jury.detection_times()

See README.md for a tour, DESIGN.md for the system inventory,
docs/observability.md for the tracing/metrics layer, and EXPERIMENTS.md
for paper-vs-measured results.
"""

__version__ = "1.0.0"
__paper__ = ("JURY: Validating Controller Actions in Software-Defined "
             "Networks, DSN 2016")

#: The supported import surface. Resolved lazily (PEP 562) so that
#: ``import repro`` stays cheap — pulling in ``Jury`` or ``Validator``
#: loads only the modules that symbol actually needs.
_EXPORTS = {
    "Jury": ("repro.api", "Jury"),
    "JuryConfig": ("repro.config", "JuryConfig"),
    "JuryDeployment": ("repro.core.deployment", "JuryDeployment"),
    "Validator": ("repro.core.validator", "Validator"),
    "ValidationPipeline": ("repro.core.pipeline", "ValidationPipeline"),
    "Response": ("repro.core.responses", "Response"),
    "Alarm": ("repro.core.alarms", "Alarm"),
    "AlarmReason": ("repro.core.alarms", "AlarmReason"),
    "ValidationResult": ("repro.core.alarms", "ValidationResult"),
    "Tracer": ("repro.obs.trace", "Tracer"),
    "MetricsRegistry": ("repro.obs.metrics", "MetricsRegistry"),
    "AlarmExplanation": ("repro.obs.diagnose", "AlarmExplanation"),
    "AlarmForensics": ("repro.obs.diagnose", "AlarmForensics"),
    "ReplicaHealthTracker": ("repro.obs.health", "ReplicaHealthTracker"),
    "SloMonitor": ("repro.obs.health", "SloMonitor"),
    "ScenarioGen": ("repro.fuzz.scenario", "ScenarioGen"),
    "ScenarioSpec": ("repro.fuzz.scenario", "ScenarioSpec"),
    "DifferentialOracle": ("repro.fuzz.oracle", "DifferentialOracle"),
    "Shrinker": ("repro.fuzz.shrink", "Shrinker"),
}

__all__ = ["__version__", "__paper__", *sorted(_EXPORTS)]


def __getattr__(name: str):
    """Lazy attribute resolution for the public exports (PEP 562)."""
    try:
        module_name, symbol = _EXPORTS[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}") from None
    import importlib
    value = getattr(importlib.import_module(module_name), symbol)
    globals()[name] = value  # cache: subsequent lookups skip __getattr__
    return value


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))
