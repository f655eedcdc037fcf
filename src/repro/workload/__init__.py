"""Workload generators.

The paper evaluates with sequential/random 100 B writes and with the
YCSB-A and YCSB-B mixes over a highly-skewed Zipfian key distribution
(θ=0.99, 1M objects — §5.3).  This package implements the YCSB
generators from scratch:

- :class:`~repro.workload.zipfian.ZipfianGenerator` — the Gray et al.
  algorithm YCSB uses (constant-time sampling after an O(N) zeta
  precomputation), plus the scrambled variant that decorrelates rank
  from key id.
- :class:`~repro.workload.ycsb.YcsbWorkload` — A/B mixes (50/50 and
  95/5 read/update) producing operations for the kvstore vocabulary.
- :mod:`~repro.workload.clients` — closed-loop and pipelined client
  processes that drive a cluster and feed the latency/throughput
  recorders.
- :mod:`~repro.workload.openloop` — open-loop Poisson traffic
  (diurnal / flash-crowd schedules, multi-tenant) whose offered rate
  is decoupled from the completion rate — the overload harness.
"""

from repro.workload.zipfian import ScrambledZipfian, UniformGenerator, ZipfianGenerator
from repro.workload.ycsb import (
    YCSB_A,
    YCSB_B,
    YCSB_WRITE_ONLY,
    YcsbWorkload,
    shard_load_profile,
)
from repro.workload.clients import (
    ClosedLoopClient,
    PipelinedClient,
    ShardLoad,
    run_closed_loop,
    run_pipelined_loop,
    run_sharded_ycsb,
)
from repro.workload.openloop import (
    ArrivalSchedule,
    ConstantRate,
    FlashCrowd,
    KeySetWorkload,
    OpenLoopEngine,
    TenantSpec,
)

__all__ = [
    "ArrivalSchedule",
    "ClosedLoopClient",
    "ConstantRate",
    "FlashCrowd",
    "KeySetWorkload",
    "OpenLoopEngine",
    "PipelinedClient",
    "ScrambledZipfian",
    "ShardLoad",
    "TenantSpec",
    "UniformGenerator",
    "YCSB_A",
    "YCSB_B",
    "YCSB_WRITE_ONLY",
    "YcsbWorkload",
    "ZipfianGenerator",
    "run_closed_loop",
    "run_pipelined_loop",
    "run_sharded_ycsb",
    "shard_load_profile",
]
