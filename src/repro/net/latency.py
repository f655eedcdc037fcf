"""One-way latency models.

The default distribution applies to every (src, dst) pair; overrides
express asymmetric topologies, e.g. wide-area links between regions in
the geo-replication example or a slow path to one backup.
"""

from __future__ import annotations

import random
import typing

from repro.sim.distributions import Distribution, Fixed


class LatencyModel:
    """Maps (src, dst) host-name pairs to one-way delay distributions."""

    def __init__(self, default: Distribution | None = None):
        self.default = default or Fixed(2.0)
        self._overrides: dict[tuple[str, str], Distribution] = {}
        #: distribution → its compiled zero-argument sampler on
        #: ``_rng`` (one per default/override, built on first use)
        self._samplers: dict[Distribution, typing.Callable[[], float]] = {}
        self._rng: random.Random | None = None
        #: the default's sampler: the whole of ``sample`` while no
        #: per-pair override exists (one cluster-wide model, hot path)
        self._default_sampler: typing.Callable[[], float] | None = None

    def set_pair(self, src: str, dst: str, dist: Distribution,
                 symmetric: bool = True) -> None:
        """Override the latency for src→dst (and dst→src if symmetric)."""
        self._overrides[(src, dst)] = dist
        if symmetric:
            self._overrides[(dst, src)] = dist

    def distribution(self, src: str, dst: str) -> Distribution:
        return self._overrides.get((src, dst), self.default)

    def sample(self, rng: random.Random, src: str, dst: str) -> float:
        if rng is not self._rng:
            # First use (or another generator): samplers bind their rng.
            self._samplers.clear()
            self._rng = rng
            self._default_sampler = self._sampler(self.default)
        if not self._overrides:  # common case: one cluster-wide model
            return self._default_sampler()
        return self._sampler(self.distribution(src, dst))()

    def _sampler(self, dist: Distribution) -> typing.Callable[[], float]:
        sampler = self._samplers.get(dist)
        if sampler is None:
            sampler = self._samplers[dist] = dist.sampler(self._rng)
        return sampler
