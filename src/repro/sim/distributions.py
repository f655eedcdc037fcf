"""Latency/duration distributions.

The paper's latency figures are distribution-shaped (CCDFs), so the
substitution for real hardware must model not just medians but tails:

- RAMCloud/InfiniBand latency is tight out to the 99th percentile
  (paper §5.4) → :class:`LogNormal` with small sigma.
- Redis/TCP latency "degrades rapidly above the 80th percentile"
  (paper §5.4) → :class:`LogNormal` with large sigma, optionally
  :class:`Shifted` to add a fixed propagation floor.

All sampling goes through the simulator's ``random.Random`` so runs are
reproducible.
"""

from __future__ import annotations

import functools
import math
import random
import typing

#: ``random.gauss``'s constant, the same float
_TWOPI = 2.0 * math.pi


class Distribution:
    """Base class: ``sample(rng)`` returns a non-negative float."""

    def sample(self, rng: random.Random) -> float:
        raise NotImplementedError

    def sampler(self, rng: random.Random) -> typing.Callable[[], float]:
        """A zero-argument callable drawing from this distribution on
        ``rng``: the same draws, in the same order, giving the same
        floats as ``sample(rng)``.  Per-message callers (net/latency.py)
        fetch it once; shapes whose ``sample`` is a chain of method
        calls override it with the flat expression."""
        return functools.partial(self.sample, rng)

    def mean(self) -> float:
        """Analytic mean where available (used by tests)."""
        raise NotImplementedError


class Fixed(Distribution):
    """Always the same value (deterministic links, CPU costs)."""

    def __init__(self, value: float):
        if value < 0:
            raise ValueError(f"negative duration: {value}")
        self.value = value

    def sample(self, rng: random.Random) -> float:
        return self.value

    def mean(self) -> float:
        return self.value

    def __repr__(self) -> str:
        return f"Fixed({self.value})"


class Uniform(Distribution):
    """Uniform in [low, high]."""

    def __init__(self, low: float, high: float):
        if not 0 <= low <= high:
            raise ValueError(f"bad uniform range [{low}, {high}]")
        self.low = low
        self.high = high

    def sample(self, rng: random.Random) -> float:
        return rng.uniform(self.low, self.high)

    def mean(self) -> float:
        return (self.low + self.high) / 2

    def __repr__(self) -> str:
        return f"Uniform({self.low}, {self.high})"


class Exponential(Distribution):
    """Exponential with the given mean (memoryless arrivals)."""

    def __init__(self, mean: float):
        if mean <= 0:
            raise ValueError(f"mean must be positive: {mean}")
        self._mean = mean

    def sample(self, rng: random.Random) -> float:
        return rng.expovariate(1.0 / self._mean)

    def mean(self) -> float:
        return self._mean

    def __repr__(self) -> str:
        return f"Exponential({self._mean})"


class LogNormal(Distribution):
    """Lognormal parameterized by its *median* and shape ``sigma``.

    ``median`` is exp(mu), which is far easier to calibrate against the
    paper's reported medians than mu itself.  Larger sigma = heavier
    tail; sigma=0 degenerates to Fixed(median).
    """

    def __init__(self, median: float, sigma: float):
        if median <= 0:
            raise ValueError(f"median must be positive: {median}")
        if sigma < 0:
            raise ValueError(f"sigma must be non-negative: {sigma}")
        self.median = median
        self.sigma = sigma
        self._mu = math.log(median)

    def sample(self, rng: random.Random) -> float:
        if self.sigma == 0:
            return self.median
        # exp(gauss) ≡ lognormvariate, but gauss uses the pair-caching
        # Box–Muller sampler — about half the cost of normalvariate's
        # rejection loop, and latency draws happen once per simulated
        # message on the calibrated profiles.
        return math.exp(rng.gauss(self._mu, self.sigma))

    def mean(self) -> float:
        return math.exp(self._mu + self.sigma ** 2 / 2)

    def __repr__(self) -> str:
        return f"LogNormal(median={self.median}, sigma={self.sigma})"


class Shifted(Distribution):
    """A distribution plus a constant floor (propagation delay)."""

    def __init__(self, floor: float, inner: Distribution):
        if floor < 0:
            raise ValueError(f"negative floor: {floor}")
        self.floor = floor
        self.inner = inner

    def sample(self, rng: random.Random) -> float:
        return self.floor + self.inner.sample(rng)

    def sampler(self, rng: random.Random) -> typing.Callable[[], float]:
        floor, inner = self.floor, self.inner
        if type(inner) is LogNormal and inner.sigma > 0:
            # The calibrated wire model, one draw per simulated message:
            # ``floor + exp(rng.gauss(mu, sigma))`` in one frame, with
            # gauss's pair-caching Box–Muller inlined.  It reads and
            # writes ``rng.gauss_next`` exactly as ``gauss`` does, so the
            # floats and the stream's state are the same.
            exp, log, sqrt, cos, sin = (math.exp, math.log, math.sqrt,
                                        math.cos, math.sin)
            uniform, mu, sigma = rng.random, inner._mu, inner.sigma

            def draw() -> float:
                z = rng.gauss_next
                if z is None:
                    x2pi = uniform() * _TWOPI
                    g2rad = sqrt(-2.0 * log(1.0 - uniform()))
                    z = cos(x2pi) * g2rad
                    rng.gauss_next = sin(x2pi) * g2rad
                else:
                    rng.gauss_next = None
                return floor + exp(mu + z * sigma)
            return draw
        draw = inner.sampler(rng)
        return lambda: floor + draw()

    def mean(self) -> float:
        return self.floor + self.inner.mean()

    def __repr__(self) -> str:
        return f"Shifted({self.floor} + {self.inner!r})"
