"""Cluster coordination substrate.

Large-scale systems in the paper's mold (§2) pair many master-backup
data servers with one consensus-replicated configuration manager.  This
package is that manager:

- :class:`~repro.cluster.coordinator.Coordinator` — owns the tablet
  map, master/backup/witness assignments, witness list versions,
  master epochs (zombie fencing), RIFL client ids; orchestrates master
  recovery (§3.3), witness replacement (§3.6) and data migration.
- :class:`~repro.cluster.failure_detector.FailureDetector` — optional
  ping-based crash detection that triggers recovery automatically.
- :class:`~repro.cluster.shard_map.ShardMap` — immutable, sorted
  key-hash → tablet → master routing snapshot for sharded multi-master
  clusters; clients cache it and bisect instead of scanning tablets.
- :class:`~repro.cluster.rebalancer.Rebalancer` — load-driven tablet
  splitting/rebalancing: pulls per-tablet load windows from masters,
  splits hot tablets at a load-weighted hash point and drives
  ``Coordinator.migrate`` so skewed (Zipfian) traffic cannot pin one
  master.

The coordinator itself runs on a single host here; the paper assumes it
is made fault tolerant with a consensus protocol (see
``repro.consensus`` for the Raft substrate that would host it).
"""

from repro.cluster.coordinator import Coordinator
from repro.cluster.failure_detector import FailureDetector
from repro.cluster.rebalancer import Rebalancer, RebalancerStats
from repro.cluster.shard_map import ShardMap

__all__ = ["Coordinator", "FailureDetector", "Rebalancer",
           "RebalancerStats", "ShardMap"]
