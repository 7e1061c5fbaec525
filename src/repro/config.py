"""The one configuration object behind every JURY construction path.

Deployment options used to accumulate as keyword arguments on three
different seams — ``JuryDeployment(...)``, ``build_experiment(...)``, and
the CLI's argparse plumbing — each forwarding a growing subset to the
next. :class:`JuryConfig` replaces that sprawl with a single frozen
dataclass; :meth:`repro.api.Jury.build` is the one entry point that
consumes it, and the keyword seams are gone.

The config is *declarative*: policy sets are named (resolved through
:data:`POLICY_SETS` only at build time), the timeout is a number unless an
explicit :class:`~repro.core.timeouts.TimeoutPolicy` object is supplied,
and observability is a pair of booleans. That keeps configs printable,
comparable, and safe to share between an experiment and its report.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

from repro.errors import ValidationError

#: Named administrator policy sets, resolved lazily at build time. The
#: callables import on demand so that constructing a config never pulls in
#: the policy/faults stack.
POLICY_SETS: Dict[str, Callable[[], object]] = {}


def register_policy_set(name: str, factory: Callable[[], object]) -> None:
    """Register a named policy set for :attr:`JuryConfig.policies`."""
    POLICY_SETS[name] = factory


def _default_policy_set():
    from repro.faults.injector import default_policy_engine
    return default_policy_engine()


register_policy_set("default", _default_policy_set)


@dataclass(frozen=True)
class JuryConfig:
    """Everything needed to deploy (and optionally host) a JURY instance.

    Validation core:

    * ``k`` — secondaries per trigger (``2k + 2`` expected responses).
    * ``timeout_ms`` / ``timeout`` — θτ as a number, or an explicit
      :class:`~repro.core.timeouts.TimeoutPolicy` overriding it.
    * ``pipeline`` — ``None`` for the sequential validator, else the shard
      count of the :class:`~repro.core.pipeline.ValidationPipeline`.
    * ``policies`` — named policy sets (see :data:`POLICY_SETS`);
      ``policy_engine`` is the explicit-object escape hatch.
    * ``state_aware`` / ``taint_classification`` — the ablation switches.

    Observability: ``trace`` wires a :class:`~repro.obs.Tracer` through the
    full validation path; ``metrics`` a
    :class:`~repro.obs.MetricsRegistry`; ``diagnose`` attaches alarm
    forensics; ``health`` replica health scoring + SLO monitoring;
    ``snapshot_interval_ms`` a periodic export sink ticked after every
    engine step; ``obs_sample`` head-samples the observer stack 1-in-N;
    ``flight``/``flight_capacity`` the always-on flight recorder. All
    default off (the zero-cost path).

    Hosting shape (used when :meth:`repro.api.Jury.build` must assemble
    the testbed too): ``kind``, ``n``, ``switches``, ``topology``,
    ``seed``, ``with_northbound``.
    """

    #: ``None`` means a vanilla (non-JURY) cluster when hosting a full
    #: experiment; :meth:`repro.api.Jury.build` itself requires a k.
    k: Optional[int] = 6
    timeout_ms: Optional[float] = None
    timeout: Optional[object] = None
    pipeline: Optional[int] = None
    seed: int = 0
    policies: Tuple[str, ...] = ()
    policy_engine: Optional[object] = None
    state_aware: bool = True
    taint_classification: bool = True
    keep_results: bool = True
    queue_capacity: int = 1024
    batch_max: int = 512
    flush_interval_ms: float = 0.0
    #: Crash recovery (repro.core.checkpoint): automatically snapshot the
    #: validator/pipeline every this-many decided triggers. ``None`` off.
    #: The deployment hands snapshots to its ``on_checkpoint`` callback
    #: (or just keeps the newest one) for restore after a crash.
    checkpoint_every: Optional[int] = None

    # Observability.
    trace: bool = False
    metrics: bool = False
    #: Alarm forensics: attach an AlarmExplanation to every alarm
    #: (repro.obs.diagnose).
    diagnose: bool = False
    #: Replica health scoring + SLO monitoring (repro.obs.health).
    health: bool = False
    #: Periodic metrics/health snapshots at engine-step ends, every
    #: this-many simulated ms (repro.obs.export.SnapshotSink). ``None`` off.
    snapshot_interval_ms: Optional[float] = None
    #: Head-sample the observer stack 1-in-N per trigger (repro.obs.sampling).
    #: ``1`` observes everything; alarmed decisions are always recorded in
    #: full regardless of the head decision. Pure function of the trigger
    #: id, so sampled traces stay deterministic across engines and replays.
    obs_sample: int = 1
    #: Always-on flight recorder: fixed-size ring of recent decision/alarm/
    #: checkpoint events, dumped on anomaly triggers (repro.obs.recorder).
    flight: bool = False
    #: Ring capacity (events retained) when ``flight`` is on.
    flight_capacity: int = 256

    # Hosting shape.
    kind: str = "onos"
    n: int = 7
    switches: int = 24
    topology: str = "linear"
    with_northbound: bool = False
    profile_overrides: Optional[Tuple[Tuple[str, object], ...]] = None

    # ------------------------------------------------------------------
    def __post_init__(self):
        if self.k is not None and self.k < 0:
            raise ValidationError(f"k must be >= 0: {self.k}")
        if self.pipeline is not None and self.pipeline < 1:
            raise ValidationError(
                f"pipeline shard count must be >= 1: {self.pipeline}")
        if (self.snapshot_interval_ms is not None
                and self.snapshot_interval_ms <= 0):
            raise ValidationError(
                f"snapshot_interval_ms must be positive: "
                f"{self.snapshot_interval_ms}")
        if isinstance(self.obs_sample, bool) or not isinstance(
                self.obs_sample, int) or self.obs_sample < 1:
            raise ValidationError(
                f"obs_sample must be an integer >= 1: {self.obs_sample!r}")
        if isinstance(self.flight_capacity, bool) or not isinstance(
                self.flight_capacity, int) or self.flight_capacity < 1:
            raise ValidationError(
                f"flight_capacity must be an integer >= 1: "
                f"{self.flight_capacity!r}")
        if self.checkpoint_every is not None and (
                isinstance(self.checkpoint_every, bool)
                or not isinstance(self.checkpoint_every, int)
                or self.checkpoint_every < 1):
            raise ValidationError(
                f"checkpoint_every must be an integer >= 1 or None: "
                f"{self.checkpoint_every!r}")
        unknown = [name for name in self.policies if name not in POLICY_SETS]
        if unknown:
            raise ValidationError(
                f"unknown policy set(s): {', '.join(unknown)} "
                f"(registered: {', '.join(sorted(POLICY_SETS))})")

    def replace(self, **changes) -> "JuryConfig":
        """A copy with the given fields changed (configs are frozen)."""
        return dataclasses.replace(self, **changes)

    # ------------------------------------------------------------------
    # Declarative round-trip (scenario specs, --config files, fuzz)
    # ------------------------------------------------------------------
    #: Fields that hold live objects rather than declarative values; they
    #: cannot round-trip through JSON and are rejected by to_dict/from_dict.
    _OBJECT_FIELDS = ("timeout", "policy_engine")

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "JuryConfig":
        """Build a validated config from a plain dict (JSON-shaped).

        The single construction path for every serialized config source —
        scenario specs, CLI ``--config file.json``, the fuzz generator.
        Unknown keys fail with a did-you-mean suggestion (same contract as
        the policy linter's P603 vocabulary check); list values for tuple
        fields are normalised, so ``json.load`` output works directly.
        """
        if not isinstance(payload, dict):
            raise ValidationError(
                f"config payload must be a mapping, got "
                f"{type(payload).__name__}")
        known = {f.name for f in dataclasses.fields(cls)}
        kwargs: Dict[str, object] = {}
        for key, value in payload.items():
            if key not in known:
                import difflib
                guess = difflib.get_close_matches(str(key), sorted(known),
                                                  n=1, cutoff=0.6)
                hint = f" (did you mean {guess[0]!r}?)" if guess else ""
                raise ValidationError(
                    f"unknown config key {key!r}{hint}")
            if key in cls._OBJECT_FIELDS and value is not None:
                raise ValidationError(
                    f"config key {key!r} holds a live object and cannot "
                    f"be loaded from a dict; use its declarative "
                    f"counterpart")
            if key == "policies" and isinstance(value, list):
                value = tuple(value)
            if key == "profile_overrides" and isinstance(value, list):
                value = tuple((k, v) for k, v in value)
            kwargs[key] = value
        return cls(**kwargs)

    def to_dict(self) -> Dict[str, object]:
        """Declarative JSON-able dict; exact inverse of :meth:`from_dict`.

        Raises :class:`~repro.errors.ValidationError` when the config
        carries live objects (explicit timeout policy, policy engine) —
        those have no serial form by design.
        """
        carried = [name for name in self._OBJECT_FIELDS
                   if getattr(self, name) is not None]
        if carried:
            raise ValidationError(
                f"config holds non-serializable object field(s): "
                f"{', '.join(carried)}")
        payload: Dict[str, object] = {}
        for field_info in dataclasses.fields(self):
            value = getattr(self, field_info.name)
            if field_info.name in self._OBJECT_FIELDS:
                continue
            if isinstance(value, tuple):
                value = [list(item) if isinstance(item, tuple) else item
                         for item in value]
            payload[field_info.name] = value
        return payload

    # ------------------------------------------------------------------
    # Build-time resolution
    # ------------------------------------------------------------------
    @property
    def effective_timeout_ms(self) -> float:
        """The configured θτ in ms (paper defaults per controller kind)."""
        if self.timeout_ms is not None:
            return self.timeout_ms
        return 250.0 if self.kind == "onos" else 1200.0

    def build_timeout(self):
        """The :class:`TimeoutPolicy` this config describes."""
        if self.timeout is not None:
            return self.timeout
        from repro.core.timeouts import StaticTimeout
        return StaticTimeout(self.effective_timeout_ms)

    def build_policy_engine(self):
        """Resolve ``policy_engine`` / named ``policies`` to one engine."""
        if self.policy_engine is not None:
            return self.policy_engine
        if not self.policies:
            return None
        engines = [POLICY_SETS[name]() for name in self.policies]
        if len(engines) == 1:
            return engines[0]
        from repro.policy import PolicyEngine
        merged = []
        for engine in engines:
            merged.extend(engine.policies)
        return PolicyEngine(merged)

    def build_tracer(self):
        if not self.trace:
            return None
        from repro.obs.trace import Tracer
        return Tracer()

    def build_metrics(self):
        if not self.metrics:
            return None
        from repro.obs.metrics import MetricsRegistry
        return MetricsRegistry()

    def build_forensics(self):
        if not self.diagnose:
            return None
        from repro.obs.diagnose import AlarmForensics
        return AlarmForensics()

    def build_health(self):
        if not self.health:
            return None
        from repro.obs.health import ReplicaHealthTracker
        return ReplicaHealthTracker()

    def build_sampler(self):
        if self.obs_sample <= 1:
            return None
        from repro.obs.sampling import HeadSampler
        return HeadSampler(self.obs_sample)

    def build_flight_recorder(self):
        if not self.flight:
            return None
        from repro.obs.recorder import FlightRecorder
        return FlightRecorder(capacity=self.flight_capacity)

    def profile_overrides_dict(self) -> dict:
        return dict(self.profile_overrides or ())

    def describe(self) -> Dict[str, object]:
        """JSON-able summary for reports and CLI payloads."""
        return {
            "k": self.k,
            "timeout_ms": self.effective_timeout_ms,
            "pipeline": self.pipeline,
            "seed": self.seed,
            "policies": list(self.policies)
            + (["<explicit>"] if self.policy_engine is not None else []),
            "state_aware": self.state_aware,
            "taint_classification": self.taint_classification,
            "trace": self.trace,
            "metrics": self.metrics,
            "diagnose": self.diagnose,
            "health": self.health,
            "snapshot_interval_ms": self.snapshot_interval_ms,
            "checkpoint_every": self.checkpoint_every,
            "obs_sample": self.obs_sample,
            "flight": self.flight,
            "kind": self.kind,
            "n": self.n,
            "switches": self.switches,
            "topology": self.topology,
        }
