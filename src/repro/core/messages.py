"""Wire-format dataclasses for CURP RPCs.

Mirrors the witness API of Figure 4 plus the master-facing RPCs the
protocol text describes (update, read, sync) and the coordinator-facing
control RPCs (§3.6).

The four frames of every update (``UpdateArgs``, ``UpdateReply``,
``RecordArgs``, ``RecordedRequest``) and the read frame (``ReadArgs``)
are slotted rather than frozen: a frozen ``__init__`` costs twice as
much, and nothing mutates or hashes a frame once it is sent.
"""

from __future__ import annotations

import dataclasses
import typing


@dataclasses.dataclass(slots=True)
class UpdateArgs:
    """Client → master: execute an update operation."""

    op: typing.Any
    rpc_id: typing.Any
    #: piggybacked RIFL acknowledgment (first incomplete seq)
    ack_seq: int
    #: the witness list version the client believes current (§3.6)
    witness_list_version: int


@dataclasses.dataclass(slots=True)
class UpdateReply:
    result: typing.Any
    #: True when the update is already durable on backups (the client
    #: may skip witnesses entirely, §3.2.3)
    synced: bool


@dataclasses.dataclass(slots=True)
class ReadArgs:
    key: str
    #: ``key_hash(key)``, computed once by the sender: the master
    #: checks ownership with it instead of hashing the key again
    key_hash: int
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


@dataclasses.dataclass(slots=True)
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
    """The one tablet hand-over: a master takes over ``ranges`` from
    another — a migration's source (§3.6) or a dead master whose
    tablets partitioned recovery spreads (§4.6 + RAMCloud fast
    recovery).  It appends the handed log entries to its own log,
    replays the witness requests that hash into the ranges, and syncs
    the result to its own backups before acking."""

    #: the [lo, hi) hash ranges this partition covers
    ranges: tuple[tuple[int, int], ...]
    #: the other master's log entries for the ranges, any order
    #: (appended sorted by index; effects outside ``ranges`` are
    #: skipped)
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


@dataclasses.dataclass(slots=True)
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
    """Configuration snapshot clients cache (§3.6): every master's
    placement, and the one routing table, the coordinator's
    :class:`~repro.cluster.shard_map.ShardMap` for this version (typed
    loosely to keep this module import-free)."""

    masters: dict[str, MasterInfo]
    version: int
    shard_map: typing.Any
