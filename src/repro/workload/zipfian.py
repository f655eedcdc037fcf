"""Zipfian key-choosers (the YCSB algorithm).

Implements the Gray et al. "Quickly generating billion-record synthetic
databases" sampler that YCSB's ``ZipfianGenerator`` uses: after an O(N)
zeta-constant precomputation, each sample is O(1).  ``theta=0.99`` and
1M items are the YCSB-A/B defaults the paper cites (§5.3).

``ScrambledZipfian`` additionally hashes the rank so that popularity is
spread over the key space (YCSB's default behaviour) — without it, the
hottest keys would be consecutive ids.
"""

from __future__ import annotations

import functools
import random

from repro.kvstore.hashing import _splitmix64


@functools.cache
def _zeta(n: int, theta: float) -> float:
    """Σ 1/i^θ for i in 1..n, summed in that order.  Memoized per
    process: every stream over one key space needs the same O(n)
    constant, and the memo returns the very float a fresh sum would."""
    return sum(1.0 / (i ** theta) for i in range(1, n + 1))


class UniformGenerator:
    """Uniform key chooser over [0, item_count)."""

    def __init__(self, item_count: int):
        if item_count < 1:
            raise ValueError("item_count must be >= 1")
        self.item_count = item_count

    def next(self, rng: random.Random) -> int:
        return rng.randrange(self.item_count)


class ZipfianGenerator:
    """Zipfian-distributed ranks: P(rank k) ∝ 1/k^theta."""

    def __init__(self, item_count: int, theta: float = 0.99):
        if item_count < 1:
            raise ValueError("item_count must be >= 1")
        if not 0 < theta < 1:
            raise ValueError(f"theta must be in (0, 1): {theta}")
        self.item_count = item_count
        self.theta = theta
        self.zeta_n = _zeta(item_count, theta)
        self.zeta_2 = _zeta(min(2, item_count), theta)
        self.alpha = 1.0 / (1.0 - theta)
        if item_count <= 2:
            # The Gray approximation degenerates below 3 items; fall
            # back to exact inverse-CDF sampling (cheap at this size).
            self.eta = 0.0
            self._exact_cdf = self._build_exact_cdf()
        else:
            self.eta = ((1 - (2.0 / item_count) ** (1 - theta))
                        / (1 - self.zeta_2 / self.zeta_n))
            self._exact_cdf = None

    def _build_exact_cdf(self) -> list[float]:
        acc, cdf = 0.0, []
        for i in range(1, self.item_count + 1):
            acc += (1.0 / i ** self.theta) / self.zeta_n
            cdf.append(acc)
        cdf[-1] = 1.0
        return cdf

    def next(self, rng: random.Random) -> int:
        """Sample a rank in [0, item_count); 0 is the hottest."""
        u = rng.random()
        if self._exact_cdf is not None:
            for rank, threshold in enumerate(self._exact_cdf):
                if u <= threshold:
                    return rank
            return self.item_count - 1  # pragma: no cover - float edge
        uz = u * self.zeta_n
        if uz < 1.0:
            return 0
        if uz < 1.0 + 0.5 ** self.theta:
            return 1
        rank = int(self.item_count
                   * (self.eta * u - self.eta + 1.0) ** self.alpha)
        return min(rank, self.item_count - 1)


class ScrambledZipfian:
    """Zipfian popularity spread across the id space via hashing."""

    def __init__(self, item_count: int, theta: float = 0.99):
        self.item_count = item_count
        self._zipf = ZipfianGenerator(item_count, theta)

    def next(self, rng: random.Random) -> int:
        rank = self._zipf.next(rng)
        return _splitmix64(rank) % self.item_count
