"""Wire-format dataclasses for CURP RPCs.

Mirrors the witness API of Figure 4 plus the master-facing RPCs the
protocol text describes (update, read, sync) and the coordinator-facing
control RPCs (§3.6).
"""

from __future__ import annotations

import dataclasses
import typing


@dataclasses.dataclass(frozen=True)
class UpdateArgs:
    """Client → master: execute an update operation."""

    op: typing.Any
    rpc_id: typing.Any
    #: piggybacked RIFL acknowledgment (first incomplete seq)
    ack_seq: int
    #: the witness list version the client believes current (§3.6)
    witness_list_version: int


@dataclasses.dataclass(frozen=True)
class UpdateReply:
    result: typing.Any
    #: True when the update is already durable on backups (the client
    #: may skip witnesses entirely, §3.2.3)
    synced: bool


@dataclasses.dataclass(frozen=True)
class ReadArgs:
    key: str
    #: §A.3: reads preparing a conditional update may return unsynced
    #: values without waiting for durability — the commit-time version
    #: check catches any value that failed to survive
    allow_unsynced: bool = False
    #: return (value, version) instead of just the value
    return_version: bool = False
    #: watchdog data-path probes bypass admission shedding: they
    #: measure whether the worker pool drains (by timing out when it
    #: does not), and a RETRY_LATER would hide a wedged pool behind
    #: ordinary overload pushback
    probe: bool = False


@dataclasses.dataclass(frozen=True)
class RecordArgs:
    """Client → witness: record(masterID, keyHashes, rpcId, request)."""

    master_id: str
    key_hashes: tuple[int, ...]
    rpc_id: typing.Any
    request: typing.Any


#: witness record outcomes (plain strings cross the wire)
RECORD_ACCEPTED = "ACCEPTED"
RECORD_REJECTED = "REJECTED"

#: AppError code for admission-control pushback: the master's bounded
#: queue is full; the ``info`` dict carries a ``retry_after`` hint (µs)
#: that clients honor with jittered exponential backoff — and *without*
#: a cluster-view refresh (overload is not a routing problem)
RETRY_LATER = "RETRY_LATER"


@dataclasses.dataclass(frozen=True)
class GcArgs:
    """Master → witness: drop synced requests."""

    master_id: str
    pairs: tuple[tuple[int, typing.Any], ...]


@dataclasses.dataclass(frozen=True)
class TxnResolveArgs:
    """Client → master, fire-and-forget: a cross-shard transaction
    (§B.2) committed on every participant, so the shard's pending-txn
    bookkeeping for it can be dropped.  Purely advisory — the client
    carries the undo data, so a lost or duplicated notification is
    harmless."""

    txn_id: typing.Any


@dataclasses.dataclass(frozen=True)
class ProbeArgs:
    """Reader client → witness: do these key hashes commute with every
    saved request? (§A.1 consistent reads from backups)."""

    master_id: str
    key_hashes: tuple[int, ...]


PROBE_COMMUTE = "COMMUTE"
PROBE_CONFLICT = "CONFLICT"


@dataclasses.dataclass(frozen=True)
class GetRecoveryDataArgs:
    master_id: str


@dataclasses.dataclass(frozen=True)
class AbsorbPartitionArgs:
    """Partitioned recovery (§4.6 + RAMCloud fast recovery): a
    surviving master absorbs one partition of a dead master's tablets —
    installs the backed-up entries for those ranges, replays the
    witness requests that hash into them, and syncs the result to its
    own backups before acking."""

    #: the crashed master whose data is being absorbed
    dead_master_id: str
    #: recovery epoch (observability; fencing already happened)
    epoch: int
    #: the [lo, hi) hash ranges this partition covers
    ranges: tuple[tuple[int, int], ...]
    #: backed-up log entries for the partition, any order (installed
    #: sorted by index; effects outside ``ranges`` are skipped)
    entries: tuple
    #: witness-recovered speculative requests for the partition
    requests: tuple


@dataclasses.dataclass(frozen=True)
class StartArgs:
    master_id: str
    #: the master's owned key-hash ranges at start time.  A witness that
    #: knows them rejects records for keys the master does not own (a
    #: stale-routed client mid-migration, §3.6) instead of silently
    #: pinning a slot no gc path can reach.  ``None`` = no filtering
    #: (hand-built unit-test witnesses keep accepting everything).
    owned_ranges: tuple[tuple[int, int], ...] | None = None


@dataclasses.dataclass(frozen=True)
class SetRangesArgs:
    """Coordinator → witness: the master's ownership changed (migration
    cutover, tablet split).  Unlike ``start`` this does *not* clear the
    cache: records for still-owned keys stay; records whose key hash
    left the master's ranges are evicted — they are safe to drop
    because the migration protocol syncs the source before cutover, so
    every completed update in the migrated range is already durable."""

    master_id: str
    owned_ranges: tuple[tuple[int, int], ...]


@dataclasses.dataclass(frozen=True)
class LoadReport:
    """Master → coordinator reply: one load-accounting window.

    ``tablet_ops`` buckets the window's operations by the master's
    owned tablets; ``hash_ops`` is the per-key-hash histogram the
    rebalancer uses to pick a weighted split point.  The window resets
    when the report is pulled, so consecutive reports measure disjoint
    intervals."""

    master_id: str
    #: ((lo, hi), ops) per owned tablet, this window
    tablet_ops: tuple[tuple[tuple[int, int], int], ...]
    #: (key_hash, ops) histogram for the window, sorted by hash
    hash_ops: tuple[tuple[int, int], ...]
    #: total operations serviced this window
    window_ops: int


@dataclasses.dataclass(frozen=True)
class BackupReadArgs:
    """Reader client → backup: read a key from replicated state (§A.1)."""

    key: str


@dataclasses.dataclass(frozen=True)
class RecordedRequest:
    """What a witness actually stores: enough to replay the update
    during recovery (the operation and its exactly-once identity)."""

    op: typing.Any
    rpc_id: typing.Any


@dataclasses.dataclass(frozen=True)
class MasterInfo:
    """One master's placement as known by the coordinator."""

    master_id: str
    host: str
    backups: tuple[str, ...]
    witnesses: tuple[str, ...]
    witness_list_version: int
    epoch: int


@dataclasses.dataclass(frozen=True)
class ClusterView:
    """Configuration snapshot clients cache (§3.6).

    ``tablets`` maps key-hash ranges [lo, hi) to master ids.  When the
    coordinator attaches a :class:`~repro.cluster.shard_map.ShardMap`
    (typed loosely to keep this module import-free), routing goes
    through its sorted-bounds lookup; the linear tablet scan remains as
    the fallback for hand-built views in unit tests.
    """

    tablets: tuple[tuple[int, int, str], ...]
    masters: dict[str, MasterInfo]
    version: int
    shard_map: typing.Any = None

    def master_for_hash(self, key_hash_value: int) -> str | None:
        if self.shard_map is not None:
            return self.shard_map.master_for_hash(key_hash_value)
        for lo, hi, master_id in self.tablets:
            if lo <= key_hash_value < hi:
                return master_id
        return None
