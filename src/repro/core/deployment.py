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
describes the validation core plus whether it is observed, and
:meth:`repro.api.Jury.build` is the public entry point;
``JuryDeployment(cluster, config)`` is all it calls.
"""

from __future__ import annotations

from typing import Dict, List

from repro.config import JuryConfig
from repro.controllers.cluster import ControllerCluster
from repro.controllers.northbound import NorthboundApi
from repro.core.module import JuryModule
from repro.core.replicator import Replicator
from repro.core.validator import Validator
from repro.errors import ValidationError
from repro.net.channel import ByteCounter, ControlChannel
from repro.sim.latency import Uniform


class JuryDeployment:
    """Everything JURY adds to an HA cluster."""

    def __init__(self, cluster: ControllerCluster, config: JuryConfig):
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
        self.rng = self.sim.fork_rng("jury-deployment")
        self.controller_ids: List[str] = cluster.controller_ids()
        self.replication_counter = ByteCounter("jury-replication")
        self.validator_counter = ByteCounter("jury-validator")

        timeout_policy = config.build_timeout()
        engine = config.build_policy_engine()
        #: Crash recovery: the deployment keeps the newest automatic
        #: snapshot (config.checkpoint_every) in ``last_checkpoint``;
        #: reassign ``validator.on_checkpoint`` to divert them elsewhere.
        self.last_checkpoint = None
        on_checkpoint = (self._keep_checkpoint
                         if config.checkpoint_every is not None else None)
        self.validator = Validator(
            self.sim, k,
            timeout=timeout_policy,
            policy_engine=engine,
            mastership_lookup=cluster.master_of,
            state_aware=config.state_aware,
            taint_classification=config.taint_classification,
            keep_results=config.keep_results,
            checkpoint_every=config.checkpoint_every,
            on_checkpoint=on_checkpoint, **config.build_observers())
        #: The validator's observer seam, shared by the replicators: every
        #: observer ``config.observe`` attached, or None when it is off.
        self.observer = self.validator.observer
        self.slo = None
        #: ``(rule, time)`` of every SLO breach fed to the flight recorder.
        self._slo_breaches: set = set()
        if self.observer is not None:
            from repro.obs.health import SloMonitor
            self.slo = SloMonitor()

        # Module → validator channel delay (ms).
        latency = Uniform(0.2, 0.8)
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
    # Validation facade
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
    def report(self) -> Dict[str, object]:
        """The observability sections of a report, or ``{}`` when
        ``config.observe`` is off.

        ``alarms`` (explanations), ``health`` (replicas plus ``slo``),
        ``metrics``, ``flight`` and ``trace``. SLOs are evaluated once,
        before the flight section is taken, so the ring records any breach
        they find.
        """
        observer = self.observer
        if observer is None:
            return {}
        from repro.obs.diagnose import export_explanations
        from repro.obs.metrics import collect_deployment
        now = self.sim.now
        metrics = observer.metrics
        collect_deployment(metrics, self)
        alarms = export_explanations(observer.forensics.explanations())
        replicas = observer.health.snapshot(now)
        statuses = self.slo.evaluate(metrics, now)
        self._record_slo(statuses)
        replicas["slo"] = [status.to_dict() for status in statuses]
        return {"alarms": alarms, "health": replicas,
                "metrics": metrics.snapshot(),
                "flight": observer.recorder.payload(now=now, metrics=metrics),
                "trace": observer.tracer.to_payload()}

    def _record_slo(self, statuses) -> None:
        """Feed each SLO breach to the flight recorder once per rule and
        evaluation time, and dump if one is new: reading a report twice
        at one instant must not change it."""
        recorder = self.observer.recorder
        now = self.sim.now
        fresh = [status for status in statuses if not status.ok
                 and (status.name, now) not in self._slo_breaches]
        for status in fresh:
            self._slo_breaches.add((status.name, now))
            recorder.record(now, "slo", ("slo", status.name),
                            verdict="breached",
                            detail=f"value={status.value:.6g} "
                                   f"threshold={status.threshold:.6g}")
        if fresh:
            recorder.trigger("slo-breach", now)

    def prometheus_text(self) -> str:
        """Metrics/health/SLO state in the Prometheus text format."""
        observer = self.observer
        if observer is None:
            raise ValidationError(
                "nothing to export — build with JuryConfig(observe=True)")
        from repro.obs.export import prometheus_text
        from repro.obs.metrics import collect_deployment
        now = self.sim.now
        collect_deployment(observer.metrics, self)
        reports = observer.health.evaluate(now)
        statuses = self.slo.evaluate(observer.metrics, now)
        self._record_slo(statuses)
        return prometheus_text(registry=observer.metrics,
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
