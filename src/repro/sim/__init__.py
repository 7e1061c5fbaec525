"""Discrete-event simulation kernel.

Every subsystem in this reproduction (switches, links, controllers, the
distributed store, JURY's replicator and validator) is driven by a single
:class:`~repro.sim.simulator.Simulator` instance. Time is measured in
*simulated milliseconds* — the same unit the paper reports detection times in.

Public API::

    from repro.sim import Simulator, Fixed, Uniform, Exponential

    sim = Simulator(seed=7)
    sim.schedule(5.0, callback, arg)
    sim.run(until=1000.0)
"""

from repro.sim.events import Event
from repro.sim.latency import (
    Exponential,
    Fixed,
    LatencyModel,
    LogNormal,
    Uniform,
)
from repro.sim.simulator import Simulator
from repro.sim.station import ServiceStation, StationStats

__all__ = [
    "Event",
    "Exponential",
    "Fixed",
    "LatencyModel",
    "LogNormal",
    "ServiceStation",
    "Simulator",
    "StationStats",
    "Uniform",
]
