"""The public construction facade: one config in, one deployment out.

:class:`Jury` is the single entry point the redesigned API exposes::

    from repro import Jury, JuryConfig

    config = JuryConfig(k=4, timeout_ms=250.0, pipeline=4, trace=True)

    # Attach to a cluster you already assembled:
    jury = Jury.build(config, cluster=cluster)

    # ...or let JURY host the whole testbed (simulator, topology,
    # controllers, optional northbound) the way the paper's testbed does:
    exp = Jury.experiment(config)
    exp.warmup(); exp.begin_window(); exp.run(10_000)
    exp.jury.detection_times()

With ``diagnose=True`` / ``health=True`` in the config, the returned
deployment also exposes the forensics facades — ``diagnose_payload()``
(per-alarm explanations), ``health_snapshot()`` (replica scores plus SLO
status), and ``prometheus_text()`` (the full exposition document).

Everything the legacy seams offered — ``build_experiment(...)`` keyword
soup, ``JuryDeployment(cluster, k=..., ...)`` — routes through here now;
the shims were removed (PR 7) and raise immediately with the replacement
spelled out.
"""

from __future__ import annotations

from typing import Optional

from repro.config import JuryConfig
from repro.errors import ValidationError, WorkloadError


class Jury:
    """Namespace for the config-driven construction paths."""

    @staticmethod
    def build(config: JuryConfig, cluster=None):
        """Deploy JURY per ``config`` and return the :class:`JuryDeployment`.

        With ``cluster=None`` the full testbed (simulator, topology,
        controller cluster, northbound if requested) is assembled from the
        config's hosting-shape fields; the deployment then carries an
        ``experiment`` backref for driving the simulation. With an explicit
        cluster, only JURY itself is deployed onto it.
        """
        if not isinstance(config, JuryConfig):
            raise ValidationError(
                f"Jury.build takes a JuryConfig, not {type(config).__name__}")
        if cluster is not None:
            from repro.core.deployment import JuryDeployment
            return JuryDeployment(cluster, config=config)
        if config.k is None:
            raise ValidationError(
                "config.k=None builds a vanilla cluster — use "
                "Jury.experiment(config) for that")
        experiment = Jury.experiment(config)
        deployment = experiment.jury
        deployment.experiment = experiment
        return deployment

    @staticmethod
    def experiment(config: JuryConfig):
        """Assemble the full testbed described by ``config``.

        Returns a :class:`~repro.harness.experiment.Experiment`;
        ``config.k=None`` yields a vanilla (non-JURY) cluster for baseline
        runs.
        """
        if not isinstance(config, JuryConfig):
            raise ValidationError(
                f"Jury.experiment takes a JuryConfig, not "
                f"{type(config).__name__}")
        # Local imports: the api module is importable without dragging in
        # the whole simulation stack (repro/__init__ re-exports it lazily).
        from repro.controllers.northbound import NorthboundApi
        from repro.controllers.odl import build_odl_cluster
        from repro.controllers.onos import build_onos_cluster
        from repro.controllers.profile import odl_profile, onos_profile
        from repro.core.deployment import JuryDeployment
        from repro.harness.experiment import Experiment
        from repro.net.topology import linear_topology, three_tier_topology
        from repro.sim.simulator import Simulator

        sim = Simulator(seed=config.seed)
        if config.topology == "linear":
            topo = linear_topology(sim, config.switches)
        elif config.topology == "three_tier":
            topo = three_tier_topology(sim)
        else:
            raise WorkloadError(f"unknown topology {config.topology!r}")

        overrides = config.profile_overrides_dict()
        if config.kind == "onos":
            profile = onos_profile(**overrides)
            cluster, store = build_onos_cluster(sim, n=config.n, profile=profile)
        elif config.kind == "odl":
            profile = odl_profile(**overrides)
            cluster, store = build_odl_cluster(sim, n=config.n, profile=profile)
        else:
            raise WorkloadError(f"unknown controller kind {config.kind!r}")

        cluster.connect_topology(topo)

        jury: Optional[JuryDeployment] = None
        if config.k is not None:
            jury = JuryDeployment(cluster, config=config)

        northbound = None
        if config.with_northbound:
            northbound = NorthboundApi(cluster)
            if jury is not None:
                jury.attach_northbound(northbound)

        return Experiment(sim, topo, cluster, store,
                          jury=jury, northbound=northbound)
