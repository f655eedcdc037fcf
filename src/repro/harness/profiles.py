"""Hardware profiles: the simulator's substitute for Table 1.

The paper measures on two clusters (Table 1): an InfiniBand RAMCloud
cluster with kernel-bypass networking, and a 10 GbE CloudLab cluster
for Redis over TCP.  Each profile below packages the per-host NIC
serialization costs, one-way wire latency distribution, and server CPU
costs that calibrate the simulator to those environments.

Calibration targets (paper §5.1/§5.4):

- RAMCloud: unreplicated 100 B write ≈ 6.9 µs median; sync to backups
  adds ≈ 6.9 µs (original = 13.8 µs); latency tight to the 99th
  percentile; witness record ≈ 1 µs of server CPU (1270k records/s).
- Redis: non-durable SET ≈ 26 µs; TCP syscalls ≈ 2.5 µs each; fsync on
  NVMe 50–100 µs; latency degrades rapidly above the 80th percentile.

``TEST_PROFILE`` zeroes every cost and fixes latency at 2 µs one-way:
protocol-correctness tests use it so RTT arithmetic is exact.
"""

from __future__ import annotations

import dataclasses
import typing

from repro.sim.distributions import Distribution, Fixed, LogNormal, Shifted


@dataclasses.dataclass(frozen=True)
class HostCosts:
    """Per-message NIC/dispatch serialization on one host (µs).

    ``shared`` = one thread handles both directions (RAMCloud's
    dispatch thread): total messages/s is bounded by 1/(tx+rx) under
    symmetric load, which is the masters' bottleneck in Figure 6.
    """

    tx: float = 0.0
    rx: float = 0.0
    shared: bool = False


@dataclasses.dataclass(frozen=True)
class ClusterProfile:
    """Everything the builder needs to cost a cluster."""

    name: str
    #: factory for the one-way wire latency distribution
    latency: typing.Callable[[], Distribution]
    client: HostCosts = HostCosts()
    master: HostCosts = HostCosts()
    backup: HostCosts = HostCosts()
    witness: HostCosts = HostCosts()
    #: the configuration manager is off the data path (clients hit it
    #: at connect and on shard-map refreshes), but costing it keeps the
    #: stale-map retry measurements honest
    coordinator: HostCosts = HostCosts()
    #: master worker-pool size and per-op execution time
    master_workers: int = 3
    execute_time: float = 0.0
    #: backup CPU time to process one replication RPC
    backup_process_time: float = 0.0
    #: witness CPU time to process one record RPC
    witness_record_time: float = 0.0


#: exact-RTT profile for correctness tests: 2 µs one-way, zero costs
TEST_PROFILE = ClusterProfile(
    name="test",
    latency=lambda: Fixed(2.0),
)

#: InfiniBand + kernel bypass (Table 1 left column).  One-way wire
#: latency has a tight lognormal tail (paper: "latency is consistent
#: out to the 99th percentile").  Calibrated so that:
#:   unreplicated write ≈ 6.9 µs, original (f=3) ≈ 13.8 µs median.
RAMCLOUD_PROFILE = ClusterProfile(
    name="ramcloud",
    latency=lambda: Shifted(1.18, LogNormal(median=1.05, sigma=0.18)),
    client=HostCosts(tx=0.30, rx=0.12),
    master=HostCosts(tx=0.45, rx=0.55, shared=True),
    backup=HostCosts(tx=0.10, rx=0.10),
    witness=HostCosts(tx=0.10, rx=0.10),
    coordinator=HostCosts(tx=0.30, rx=0.12),
    master_workers=3,
    execute_time=1.10,
    backup_process_time=0.20,
    witness_record_time=1.00,
)

#: 10 GbE TCP (Table 1 right column): ~2.5 µs syscall per send/recv on
#: both sides, heavy tail above the ~80th percentile (paper §5.4), and
#: NVMe fsyncs drawn by the redislike AOF on the server host's disk.
REDIS_PROFILE = ClusterProfile(
    name="redis",
    latency=lambda: Shifted(4.0, LogNormal(median=3.2, sigma=0.65)),
    client=HostCosts(tx=2.5, rx=2.5),
    master=HostCosts(tx=2.5, rx=2.5, shared=True),  # single-threaded
    backup=HostCosts(tx=2.5, rx=2.5),
    witness=HostCosts(tx=2.5, rx=2.5),
    coordinator=HostCosts(tx=2.5, rx=2.5),
    master_workers=1,  # Redis is single-threaded
    execute_time=1.0,
    witness_record_time=1.0,
)
