"""JURY deployment: wires replicators, modules, and the validator to a cluster.

Usage::

    cluster, store = build_onos_cluster(sim, n=7)
    cluster.connect_topology(topology)
    jury = Jury.build(JuryConfig(k=6, timeout_ms=129.0), cluster=cluster)
    cluster.start()
    ...
    jury.detection_times()

The deployment owns the byte counters for JURY's network overhead accounting
(§VII-B.2): replicated triggers and validator traffic, kept separate from
the store's inter-controller counter.

Construction is config-driven: one :class:`~repro.config.JuryConfig`
describes the validation core plus observability, and
:meth:`repro.api.Jury.build` is the public entry point. Direct
``JuryDeployment(cluster, k=..., ...)`` keyword construction was removed
(PR 7) — passing kwargs without ``config=`` raises immediately with the
replacement spelled out.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.config import JuryConfig
from repro.controllers.cluster import ControllerCluster
from repro.controllers.northbound import NorthboundApi
from repro.core.module import JuryModule
from repro.core.pipeline import ValidationPipeline
from repro.core.replicator import Replicator
from repro.core.timeouts import TimeoutPolicy
from repro.core.validator import Validator
from repro.errors import ValidationError
from repro.net.channel import ByteCounter, ControlChannel
from repro.obs.observer import Observer
from repro.obs.trace import active_tracer
from repro.sim.latency import LatencyModel, Uniform


class JuryDeployment:
    """Everything JURY adds to an HA cluster."""

    def __init__(
        self,
        cluster: ControllerCluster,
        k: Optional[int] = None,
        timeout_ms: float = 150.0,
        timeout: Optional[TimeoutPolicy] = None,
        policy_engine=None,
        validator_latency: Optional[LatencyModel] = None,
        replicate_handshakes: bool = True,
        state_aware: bool = True,
        taint_classification: bool = True,
        pipeline: Optional[int] = None,
        config: Optional[JuryConfig] = None,
    ):
        if config is None:
            raise ValidationError(
                "JuryDeployment(cluster, k=..., ...) keyword construction "
                "was removed; build a JuryConfig and call "
                "Jury.build(config, cluster=cluster)")
        k = config.k
        if k is None:
            raise ValidationError(
                "JuryDeployment needs a k (config.k=None means a vanilla "
                "cluster and is only valid for Jury.experiment)")
        if k < 0 or k > cluster.size - 1:
            raise ValidationError(
                f"k={k} is not in [0, n-1] for a cluster of {cluster.size}")
        if not cluster.proxies:
            raise ValidationError(
                "connect_topology() before deploying JURY — the replicators "
                "attach to the per-switch OVS proxies")
        self.config = config
        self.cluster = cluster
        self.sim = cluster.sim
        self.k = k
        self.replicate_handshakes = config.replicate_handshakes
        self.rng = self.sim.fork_rng("jury-deployment")
        self.controller_ids: List[str] = cluster.controller_ids()
        self.replication_counter = ByteCounter("jury-replication")
        self.validator_counter = ByteCounter("jury-validator")
        #: Observability, shared by replicators and the validation engine.
        #: ``None`` (config.trace/metrics off) is the zero-cost path.
        self.tracer = active_tracer(config.build_tracer())
        self.metrics = config.build_metrics()
        self.forensics = config.build_forensics()
        self.health = config.build_health()
        self.sampler = config.build_sampler()
        self.recorder = config.build_flight_recorder()
        self.slo = None
        if self.health is not None:
            from repro.obs.health import SloMonitor
            self.slo = SloMonitor()
        self.snapshot_sink = None
        if config.snapshot_interval_ms is not None:
            from repro.obs.export import SnapshotSink
            self.snapshot_sink = SnapshotSink(
                config.snapshot_interval_ms,
                registry=self.metrics, health=self.health)

        timeout_policy = config.build_timeout()
        engine = config.build_policy_engine()
        #: Crash recovery: the deployment keeps the newest automatic
        #: snapshot (config.checkpoint_every) in ``last_checkpoint``;
        #: reassign ``validator.on_checkpoint`` to divert them elsewhere.
        self.last_checkpoint = None
        on_checkpoint = (self._keep_checkpoint
                         if config.checkpoint_every is not None else None)
        observers = dict(tracer=self.tracer, metrics=self.metrics,
                         forensics=self.forensics, health=self.health,
                         sampler=self.sampler, recorder=self.recorder)
        if config.pipeline is not None:
            # Sharded validator; same public surface, so modules/harness
            # code is oblivious to the swap.
            self.validator = ValidationPipeline(
                self.sim, k, shards=config.pipeline,
                timeout=timeout_policy,
                policy_engine=engine,
                mastership_lookup=cluster.master_of,
                state_aware=config.state_aware,
                taint_classification=config.taint_classification,
                keep_results=config.keep_results,
                queue_capacity=config.queue_capacity,
                batch_max=config.batch_max,
                flush_interval_ms=config.flush_interval_ms,
                snapshot_sink=self.snapshot_sink,
                checkpoint_every=config.checkpoint_every,
                on_checkpoint=on_checkpoint, **observers)
        else:
            self.validator = Validator(
                self.sim, k,
                timeout=timeout_policy,
                policy_engine=engine,
                mastership_lookup=cluster.master_of,
                state_aware=config.state_aware,
                taint_classification=config.taint_classification,
                keep_results=config.keep_results,
                checkpoint_every=config.checkpoint_every,
                on_checkpoint=on_checkpoint, **observers)
            if self.snapshot_sink is not None:
                # The sequential engine takes no sink keyword: the sink
                # joins its observer, which ticks it after every step.
                self.validator.observer = Observer.build(
                    sink=self.snapshot_sink, **observers)

        latency = (config.validator_latency
                   if config.validator_latency is not None
                   else Uniform(0.2, 0.8))
        self.modules: Dict[str, JuryModule] = {}
        for controller in cluster.controllers.values():
            module = JuryModule(self, controller)
            module.validator_channel = ControlChannel(
                self.sim, module, self.validator, latency=latency,
                name=f"validator-{controller.id}",
                counter=self.validator_counter)
            self.modules[controller.id] = module

        self.replicators: Dict[int, Replicator] = {
            dpid: Replicator(self, proxy)
            for dpid, proxy in cluster.proxies.items()
        }

    # ------------------------------------------------------------------
    def _keep_checkpoint(self, checkpoint) -> None:
        self.last_checkpoint = checkpoint

    # ------------------------------------------------------------------
    def attach_new_proxies(self) -> int:
        """Attach replicators to proxies wired after deployment.

        Returns how many new replicators were created. Used when a switch
        connects at runtime (e.g. the database-locking fault scenario).
        """
        added = 0
        for dpid, proxy in self.cluster.proxies.items():
            if dpid not in self.replicators:
                self.replicators[dpid] = Replicator(self, proxy)
                added += 1
        return added

    def attach_northbound(self, api: NorthboundApi) -> None:
        """Splice REST-trigger interception into a northbound API."""
        original_deliver = api._direct_deliver
        interceptor = next(iter(self.replicators.values()), None)
        if interceptor is None:
            return

        def intercepting_deliver(controller_id, request):
            interceptor.intercept_rest(controller_id, request)
            original_deliver(controller_id, request)

        api.deliver = intercepting_deliver

    # ------------------------------------------------------------------
    # Validation facade (uniform across sequential/sharded engines)
    # ------------------------------------------------------------------
    def detection_times(self, external_only: bool = True) -> List[float]:
        """Per-trigger detection latencies (ms) from the validation engine."""
        return self.validator.detection_times(external_only=external_only)

    def false_positive_rate(self) -> float:
        """Alarmed fraction of decided triggers."""
        return self.validator.false_positive_rate()

    @property
    def alarms(self):
        return self.validator.alarms

    # ------------------------------------------------------------------
    # Observability exports
    # ------------------------------------------------------------------
    def trace_payload(self) -> Dict[str, object]:
        """The recorded trace as a JSON-able payload (requires trace=True)."""
        if self.tracer is None:
            raise ValidationError(
                "tracing is off — build with JuryConfig(trace=True)")
        return self.tracer.to_payload()

    def metrics_snapshot(self) -> Dict[str, object]:
        """Push metrics plus a fresh scrape of engine/deployment counters."""
        if self.metrics is None:
            raise ValidationError(
                "metrics are off — build with JuryConfig(metrics=True)")
        from repro.obs.metrics import collect_deployment
        collect_deployment(self.metrics, self)
        return self.metrics.snapshot()

    def diagnose_payload(self) -> Dict[str, object]:
        """All alarm explanations as a JSON-able diagnosis payload."""
        if self.forensics is None:
            raise ValidationError(
                "diagnosis is off — build with JuryConfig(diagnose=True)")
        from repro.obs.diagnose import export_explanations
        return export_explanations(self.forensics.explanations())

    def health_snapshot(self) -> Dict[str, object]:
        """Replica health reports plus SLO statuses at the current time."""
        if self.health is None:
            raise ValidationError(
                "health scoring is off — build with JuryConfig(health=True)")
        payload = self.health.snapshot(self.sim.now)
        if self.slo is not None and self.metrics is not None:
            from repro.obs.metrics import collect_deployment
            collect_deployment(self.metrics, self)
            statuses = self.slo.evaluate(self.metrics, self.sim.now)
            self._record_slo(statuses)
            payload["slo"] = [status.to_dict() for status in statuses]
        return payload

    def _record_slo(self, statuses) -> None:
        """Feed SLO evaluations to the flight recorder; dump on breach."""
        recorder = self.recorder
        if recorder is None:
            return
        now = self.sim.now
        breached = False
        for status in statuses:
            if not status.ok:
                breached = True
                recorder.record(now, "slo", ("slo", status.name),
                                verdict="breached",
                                detail=f"value={status.value:.6g} "
                                       f"threshold={status.threshold:.6g}")
        if breached:
            recorder.trigger("slo-breach", now)

    def flight_payload(self) -> Dict[str, object]:
        """Flight-recorder ring + dumps as a JSON-able payload."""
        if self.recorder is None:
            raise ValidationError(
                "flight recording is off — build with JuryConfig(flight=True)")
        return self.recorder.payload(now=self.sim.now, metrics=self.metrics)

    def prometheus_text(self) -> str:
        """Metrics/health/SLO state in the Prometheus text format."""
        if self.metrics is None and self.health is None:
            raise ValidationError(
                "nothing to export — build with JuryConfig(metrics=True) "
                "and/or JuryConfig(health=True)")
        from repro.obs.export import prometheus_text
        reports = None
        statuses = None
        if self.metrics is not None:
            from repro.obs.metrics import collect_deployment
            collect_deployment(self.metrics, self)
        if self.health is not None:
            reports = self.health.evaluate(self.sim.now)
            if self.slo is not None and self.metrics is not None:
                statuses = self.slo.evaluate(self.metrics, self.sim.now)
                self._record_slo(statuses)
        return prometheus_text(registry=self.metrics,
                               health_reports=reports,
                               slo_statuses=statuses)

    # ------------------------------------------------------------------
    # Aggregate stats for the evaluation harness
    # ------------------------------------------------------------------
    def total_shadow_triggers(self) -> int:
        """Shadow executions across all secondaries."""
        return sum(m.shadow_triggers for m in self.modules.values())

    def decapsulation_samples(self) -> List[float]:
        """All recorded decapsulation costs (ms) across modules (Fig 4i)."""
        samples: List[float] = []
        for module in self.modules.values():
            samples.extend(module.encap_stats.samples_ms)
        return samples

    def overhead_mbps(self, window_ms: float) -> Dict[str, float]:
        """JURY's network overheads over a window: replication + validator."""
        return {
            "replication": self.replication_counter.mbps(window_ms),
            "validator": self.validator_counter.mbps(window_ms),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"JuryDeployment(k={self.k}, n={self.cluster.size}, "
                f"decided={self.validator.triggers_decided})")
