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
        #: called after every ``set_pair``: hosts keep each link's
        #: sampler (``Host._links``), so the network hangs its "drop
        #: the cached links" hook here
        self.on_change: list[typing.Callable[[], None]] = []

    def set_pair(self, src: str, dst: str, dist: Distribution,
                 symmetric: bool = True) -> None:
        """Override the latency for src→dst (and dst→src if symmetric)."""
        self._overrides[(src, dst)] = dist
        if symmetric:
            self._overrides[(dst, src)] = dist
        for hook in self.on_change:
            hook()

    def distribution(self, src: str, dst: str) -> Distribution:
        return self._overrides.get((src, dst), self.default)

    def sampler(self, rng: random.Random, src: str,
                dst: str) -> typing.Callable[[], float]:
        """The zero-argument sampler of src→dst's distribution, bound to
        ``rng``: what a host keeps per link, so a send costs one call.
        Valid until the next ``set_pair`` (see ``on_change``)."""
        if rng is not self._rng:
            # First use (or another generator): samplers bind their rng.
            self._samplers.clear()
            self._rng = rng
        dist = self.distribution(src, dst)
        sampler = self._samplers.get(dist)
        if sampler is None:
            sampler = self._samplers[dist] = dist.sampler(rng)
        return sampler

    def sample(self, rng: random.Random, src: str, dst: str) -> float:
        return self.sampler(rng, src, dst)()
