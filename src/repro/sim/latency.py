"""Latency models.

Every delay in the simulation — link propagation, controller service time,
store synchronization — is drawn from a :class:`LatencyModel`. Models are
sampled with an explicit ``random.Random`` so components can own independent
RNG streams (see :meth:`repro.sim.simulator.Simulator.fork_rng`).

All values are simulated milliseconds.
"""

from __future__ import annotations

import math
import random
from abc import ABC, abstractmethod

from repro.errors import SimulationError


class LatencyModel(ABC):
    """A distribution over non-negative delays in milliseconds."""

    @abstractmethod
    def sample(self, rng: random.Random) -> float:
        """Draw one delay."""

    @abstractmethod
    def mean(self) -> float:
        """Expected delay, used by calibration code and tests."""


class Fixed(LatencyModel):
    """A deterministic delay."""

    def __init__(self, value: float):
        if value < 0:
            raise SimulationError(f"negative latency: {value}")
        self.value = float(value)

    def sample(self, rng: random.Random) -> float:
        return self.value

    def mean(self) -> float:
        return self.value

    def __repr__(self) -> str:
        return f"Fixed({self.value})"


class Uniform(LatencyModel):
    """Uniform delay over ``[low, high]``."""

    def __init__(self, low: float, high: float):
        if low < 0 or high < low:
            raise SimulationError(f"invalid uniform range [{low}, {high}]")
        self.low = float(low)
        self.high = float(high)

    def sample(self, rng: random.Random) -> float:
        return rng.uniform(self.low, self.high)

    def mean(self) -> float:
        return (self.low + self.high) / 2.0

    def __repr__(self) -> str:
        return f"Uniform({self.low}, {self.high})"


class Exponential(LatencyModel):
    """Exponential delay with the given mean.

    The memoryless choice for queueing-style service and inter-arrival times.
    """

    def __init__(self, mean: float):
        if mean <= 0:
            raise SimulationError(f"exponential mean must be positive: {mean}")
        self._mean = float(mean)

    def sample(self, rng: random.Random) -> float:
        return rng.expovariate(1.0 / self._mean)

    def mean(self) -> float:
        return self._mean

    def __repr__(self) -> str:
        return f"Exponential(mean={self._mean})"


class LogNormal(LatencyModel):
    """Log-normal delay, parameterized by its *median* and shape ``sigma``.

    Long-tailed: a good fit for JVM controller response times, where GC pauses
    and lock contention produce occasional large outliers — exactly the tail
    the paper's 95th-percentile validation timeouts are designed around.
    """

    def __init__(self, median: float, sigma: float = 0.5):
        if median <= 0:
            raise SimulationError(f"log-normal median must be positive: {median}")
        if sigma <= 0:
            raise SimulationError(f"log-normal sigma must be positive: {sigma}")
        self.median = float(median)
        self.sigma = float(sigma)
        self._mu = math.log(median)

    def sample(self, rng: random.Random) -> float:
        return rng.lognormvariate(self._mu, self.sigma)

    def mean(self) -> float:
        return math.exp(self._mu + self.sigma**2 / 2.0)

    def __repr__(self) -> str:
        return f"LogNormal(median={self.median}, sigma={self.sigma})"
