"""Unit and property tests for duration distributions."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.distributions import Exponential, Fixed, LogNormal, Shifted, Uniform


def test_fixed_always_same():
    dist = Fixed(3.5)
    rng = random.Random(1)
    assert all(dist.sample(rng) == 3.5 for _ in range(10))
    assert dist.mean() == 3.5


def test_fixed_rejects_negative():
    with pytest.raises(ValueError):
        Fixed(-1.0)


def test_uniform_bounds():
    dist = Uniform(1.0, 2.0)
    rng = random.Random(2)
    samples = [dist.sample(rng) for _ in range(1000)]
    assert all(1.0 <= s <= 2.0 for s in samples)
    assert abs(sum(samples) / len(samples) - 1.5) < 0.05


def test_uniform_validation():
    with pytest.raises(ValueError):
        Uniform(2.0, 1.0)
    with pytest.raises(ValueError):
        Uniform(-1.0, 1.0)


def test_exponential_mean():
    dist = Exponential(5.0)
    rng = random.Random(3)
    samples = [dist.sample(rng) for _ in range(20000)]
    assert abs(sum(samples) / len(samples) - 5.0) < 0.2


def test_exponential_validation():
    with pytest.raises(ValueError):
        Exponential(0.0)


def test_lognormal_median_calibration():
    dist = LogNormal(median=7.0, sigma=0.3)
    rng = random.Random(4)
    samples = sorted(dist.sample(rng) for _ in range(20001))
    median = samples[len(samples) // 2]
    assert abs(median - 7.0) < 0.3


def test_lognormal_sigma_zero_degenerates():
    dist = LogNormal(median=4.0, sigma=0.0)
    assert dist.sample(random.Random(0)) == 4.0


def test_lognormal_heavier_tail_with_bigger_sigma():
    rng_a, rng_b = random.Random(5), random.Random(5)
    tight = LogNormal(median=10.0, sigma=0.1)
    heavy = LogNormal(median=10.0, sigma=1.0)
    def p99(d, rng):
        return sorted(d.sample(rng) for _ in range(5000))[4949]
    assert p99(heavy, rng_b) > p99(tight, rng_a)


def test_shifted_adds_floor():
    dist = Shifted(10.0, Fixed(2.0))
    assert dist.sample(random.Random(0)) == 12.0
    assert dist.mean() == 12.0


@given(st.floats(min_value=0.01, max_value=1e6),
       st.floats(min_value=0.0, max_value=3.0))
@settings(max_examples=50)
def test_lognormal_samples_positive(median, sigma):
    dist = LogNormal(median=median, sigma=sigma)
    rng = random.Random(0)
    assert all(dist.sample(rng) > 0 for _ in range(20))


@given(st.floats(min_value=0.0, max_value=1e3))
@settings(max_examples=50)
def test_fixed_sample_equals_value(value):
    assert Fixed(value).sample(random.Random(0)) == value


@pytest.mark.parametrize("dist", [
    Shifted(1.18, LogNormal(median=1.05, sigma=0.18)),  # RAMCLOUD wire
    Shifted(4.0, LogNormal(median=3.2, sigma=0.65)),    # REDIS wire
    LogNormal(median=2.0, sigma=0.5),
    LogNormal(median=2.0, sigma=0.0),
    Shifted(1.0, LogNormal(median=2.0, sigma=0.0)),
    Shifted(0.5, Uniform(1.0, 2.0)),
    Shifted(0.5, Shifted(0.25, Exponential(3.0))),
    Fixed(2.0), Uniform(1.0, 4.0), Exponential(5.0),
], ids=repr)
def test_sampler_draws_exactly_what_sample_draws(dist):
    """``sampler(rng)`` is a faster spelling of ``sample(rng)``, not a
    different model: same floats, bit for bit, and the same number of
    draws taken from the rng (twin-seeded generators stay in step)."""
    direct, compiled = random.Random(99), random.Random(99)
    draw = dist.sampler(compiled)
    for _ in range(10_000):
        assert draw() == dist.sample(direct)
    assert direct.getstate() == compiled.getstate()
