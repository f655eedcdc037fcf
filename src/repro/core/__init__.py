"""CURP: Consistent Unordered Replication Protocol (the paper's core).

The protocol separates *durability* from *ordering* (§2): clients make
updates durable in 1 RTT by recording them on ``f`` witnesses in
parallel with the update RPC to the master; the master executes
speculatively and replies before backups acknowledge; ordering is
recovered lazily via commutativity.  The pieces:

- :class:`~repro.core.config.CurpConfig` — protocol knobs (f, sync
  batch size, witness geometry, heuristics) and the
  :class:`~repro.core.config.ReplicationMode` selector that also drives
  the paper's baselines.
- :class:`~repro.core.witness_cache.WitnessCache` — the set-associative
  request store of §4.2/§B.1 (a pure data structure, benchmarked
  stand-alone for Figure 11).
- :class:`~repro.core.witness.WitnessEndpoint` — a witness host: the
  Figure 4 RPCs (record/gc/getRecoveryData/start/end) plus the
  ``probe`` RPC that enables consistent reads from backups (§A.1),
  routed by master id to one
  :class:`~repro.core.witness.WitnessServer` per served master.
- :mod:`~repro.core.curp` — the protocol pieces every backend (this
  master, Redis, Raft) shares: the client's record fan-out, the
  witness gc round and the unsynced suffix.
- :class:`~repro.core.master.CurpMaster` — speculative execution,
  unsynced-window commutativity checks, batched backup syncs, witness
  garbage collection, hot-key preemptive syncs (§3.2.3, §4.3-4.5).
- :class:`~repro.core.client.CurpClient` — the 1-RTT fast path, the
  sync slow path, retry/refresh logic, and the nearby-read protocol.
- :mod:`~repro.core.recovery` — crash recovery: restore from backups,
  replay from one immutable witness, RIFL filtering (§3.3, §4.6).
"""

from repro.core.config import CurpConfig, ReplicationMode, StorageProfile
from repro.core.witness_cache import WitnessCache
from repro.core.witness import WitnessEndpoint, WitnessServer
from repro.core.master import CurpMaster
from repro.core.client import CurpClient, UpdateOutcome

__all__ = [
    "CurpClient",
    "CurpConfig",
    "CurpMaster",
    "ReplicationMode",
    "StorageProfile",
    "UpdateOutcome",
    "WitnessCache",
    "WitnessEndpoint",
    "WitnessServer",
]
