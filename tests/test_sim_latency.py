"""Tests for the latency models."""

import random

import pytest

from repro.errors import SimulationError
from repro.sim.latency import Exponential, Fixed, LogNormal, Uniform


@pytest.fixture
def rng():
    return random.Random(99)


def test_fixed_is_deterministic(rng):
    model = Fixed(2.5)
    assert all(model.sample(rng) == 2.5 for _ in range(10))
    assert model.mean() == 2.5


def test_fixed_rejects_negative():
    with pytest.raises(SimulationError):
        Fixed(-1.0)


def test_uniform_bounds(rng):
    model = Uniform(1.0, 3.0)
    samples = [model.sample(rng) for _ in range(500)]
    assert all(1.0 <= s <= 3.0 for s in samples)
    assert model.mean() == 2.0


def test_uniform_rejects_inverted_range():
    with pytest.raises(SimulationError):
        Uniform(3.0, 1.0)
    with pytest.raises(SimulationError):
        Uniform(-1.0, 1.0)


def test_exponential_mean(rng):
    model = Exponential(4.0)
    samples = [model.sample(rng) for _ in range(20000)]
    assert model.mean() == 4.0
    assert abs(sum(samples) / len(samples) - 4.0) < 0.2
    assert all(s >= 0 for s in samples)


def test_exponential_rejects_nonpositive():
    with pytest.raises(SimulationError):
        Exponential(0.0)


def test_lognormal_median_and_tail(rng):
    model = LogNormal(median=10.0, sigma=0.8)
    samples = sorted(model.sample(rng) for _ in range(20000))
    median = samples[len(samples) // 2]
    assert abs(median - 10.0) < 1.0
    # Long tail: the 99th percentile is several times the median.
    p99 = samples[int(0.99 * len(samples))]
    assert p99 > 3 * median
    assert model.mean() > 10.0  # mean above median for log-normal


def test_lognormal_rejects_bad_params():
    with pytest.raises(SimulationError):
        LogNormal(median=0.0)
    with pytest.raises(SimulationError):
        LogNormal(median=1.0, sigma=0.0)


def test_same_rng_state_same_samples():
    model = Uniform(0.0, 1.0)
    a = [model.sample(random.Random(5)) for _ in range(3)]
    b = [model.sample(random.Random(5)) for _ in range(3)]
    assert a == b
