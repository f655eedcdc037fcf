"""YCSB workload mixes (Cooper et al., SoCC'10), as used in §5.3.

- YCSB-A: 50% reads / 50% updates, Zipfian θ=0.99.
- YCSB-B: 95% reads /  5% updates, Zipfian θ=0.99.

The paper measures *write* latency under these mixes (Figure 7) on 1M
objects with 100 B values; our generators default to the same but every
knob is a parameter so CI-speed benches can shrink the key space.
"""

from __future__ import annotations

import dataclasses
import random

from repro.kvstore.operations import Operation, Read, Write
from repro.workload.zipfian import ScrambledZipfian, UniformGenerator, _zeta


@dataclasses.dataclass(frozen=True)
class YcsbWorkload:
    """A read/update mix over a keyed value space."""

    name: str
    read_fraction: float
    item_count: int = 1_000_000
    value_size: int = 100
    theta: float = 0.99
    #: "zipfian" or "uniform"
    distribution: str = "zipfian"
    #: key-space prefix: keys are ``{key_prefix}user{id}``.  The empty
    #: default changes nothing; per-tenant open-loop traffic gives each
    #: tenant its own prefix so tenants get disjoint (independently
    #: zipfian) key spaces on the same cluster.
    key_prefix: str = ""

    def __post_init__(self) -> None:
        if not 0.0 <= self.read_fraction <= 1.0:
            raise ValueError("read_fraction must be in [0, 1]")
        if self.distribution not in ("zipfian", "uniform"):
            raise ValueError(f"unknown distribution {self.distribution!r}")

    def generator(self) -> "YcsbOpStream":
        return YcsbOpStream(self)


class YcsbOpStream:
    """A stateful stream of operations for one workload."""

    def __init__(self, workload: YcsbWorkload):
        self.workload = workload
        if workload.distribution == "zipfian":
            self._chooser = ScrambledZipfian(workload.item_count,
                                             workload.theta)
        else:
            self._chooser = UniformGenerator(workload.item_count)
        self._value = "v" * workload.value_size

    def key(self, rng: random.Random) -> str:
        return f"{self.workload.key_prefix}user{self._chooser.next(rng)}"

    def next_op(self, rng: random.Random) -> Operation:
        key = self.key(rng)
        if rng.random() < self.workload.read_fraction:
            return Read(key)
        return Write(key, self._value)


def scaled(workload: YcsbWorkload, item_count: int) -> YcsbWorkload:
    """The same mix over a smaller key space (CI-speed benches)."""
    return dataclasses.replace(workload, item_count=item_count)


def shard_load_profile(workload: YcsbWorkload, shard_map) -> dict[str, float]:
    """Expected fraction of operations each shard receives.

    Closed-form, not sampled: walks every key's popularity under the
    workload's distribution (the Gray/YCSB zipfian rank weights through
    the scramble, or uniform), routes ``user{id}`` through the
    :class:`~repro.cluster.shard_map.ShardMap` and accumulates.  This
    is what makes the harness *shard-aware*: a skewed-workload bench
    can report the offered per-shard load (what routing deals each
    master) next to the measured per-shard throughput (what each
    master kept up with), and a rebalancing run can verify the map
    converged toward the profile's ideal.  O(item_count); keys routing
    nowhere (a mid-migration gap) are accumulated under ``None``.
    """
    from repro.kvstore.hashing import _splitmix64, key_hash

    n = workload.item_count
    shares: dict[str, float] = {}
    if workload.distribution == "uniform":
        for item in range(n):
            owner = shard_map.master_for_hash(
                key_hash(f"{workload.key_prefix}user{item}"))
            shares[owner] = shares.get(owner, 0.0) + 1.0 / n
        return shares
    theta = workload.theta
    zeta_n = _zeta(n, theta)
    for rank in range(1, n + 1):
        item = _splitmix64(rank - 1) % n
        owner = shard_map.master_for_hash(
            key_hash(f"{workload.key_prefix}user{item}"))
        weight = (1.0 / rank ** theta) / zeta_n
        shares[owner] = shares.get(owner, 0.0) + weight
    return shares


YCSB_A = YcsbWorkload(name="YCSB-A", read_fraction=0.5)
YCSB_B = YcsbWorkload(name="YCSB-B", read_fraction=0.95)
#: sequential-writer microbenchmark shape (Figures 5, 6, 12)
YCSB_WRITE_ONLY = YcsbWorkload(name="write-only", read_fraction=0.0,
                               distribution="uniform")
