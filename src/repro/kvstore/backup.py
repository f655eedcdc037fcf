"""Backup servers: ordered log replication targets.

A backup accepts ``replicate`` RPCs from its master, appends the
entries (idempotently — the master may resend on retry), and serves the
whole log to a recovery master.  Backup storage is durable: it survives
host crash + restart, modelling RAMCloud's flush-to-disk path.

The entries live in a :class:`~repro.kvstore.wal.SegmentedWal` — a
segment-rotated log with an index summary per segment — and every IO
on them is charged to the host's disk
(:class:`~repro.sim.resources.VirtualDisk`, ``host.disk``).  With a
:class:`~repro.core.config.StorageProfile` enabled, replicate acks wait
for the append (and any rotation) to drain through the disk, a
background cleaner compacts low-live-ratio segments (competing with the
update path for the same disk), and recovery reads are charged per
stored entry.  Disabled (the default), every cost is zero and no task
is spawned: the pre-storage golden traces are byte-identical.

Zombie fencing (§4.7): the coordinator bumps the master *epoch* when it
starts recovering a crashed master and fences every backup with the new
epoch.  Replication from the deposed master (a zombie that never really
died) carries the old epoch and is rejected, so the zombie can never
complete another sync — and therefore can never let a client complete
an operation — after recovery begins.
"""

from __future__ import annotations

import dataclasses
import typing

from repro.kvstore.hashing import key_hash
from repro.kvstore.log import TOMBSTONE, LogEntry
from repro.kvstore.wal import BackupStats, SegmentedWal
from repro.rpc import AppError, RpcTransport

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.core.config import StorageProfile
    from repro.net.host import Host

#: disk time (µs) to rewrite one surviving payload while cleaning a
#: segment (write amplification = survivors rewritten / payloads
#: reclaimed)
COMPACTION_WRITE_TIME = 0.5

@dataclasses.dataclass(frozen=True)
class ReplicateArgs:
    master_id: str
    epoch: int
    entries: tuple[LogEntry, ...]


@dataclasses.dataclass(frozen=True)
class PartitionReadArgs:
    """Partitioned recovery: scan this backup's share of the dead
    master's log — the entries with index in ``[index_lo, index_hi)``
    — once, bucketed into one entry tuple per recovery partition (a
    tuple of [lo, hi) hash ranges).

    The stripe is an *index* window because segment layout is
    per-backup: each backup reads its own segments that overlap the
    window (whole segments — boundary overshoot is the modeled read
    amplification), skips segments whose hash summary misses every
    partition, and serves all k recovery masters from the single scan.
    """

    index_lo: int
    index_hi: int
    partitions: tuple[tuple[tuple[int, int], ...], ...]


class BackupServer:
    """One backup replica for one master's log."""

    def __init__(self, host: "Host", master_id: str,
                 process_time: float = 0.0,
                 transport: RpcTransport | None = None,
                 storage: "StorageProfile | None" = None):
        # Imported here, not at module top: repro.core's package init
        # imports this module, so a top-level import would cycle when
        # repro.kvstore loads first.
        from repro.core.config import StorageProfile
        self.host = host
        self.sim = host.sim
        self.master_id = master_id
        #: smallest master epoch still allowed to replicate
        self.min_epoch = 0
        #: per-message handling cost (models backup CPU, from profiles)
        self.process_time = process_time
        #: virtual-time storage cost model (disabled ⇒ all costs zero)
        self.storage = storage if storage is not None else StorageProfile()
        self.stats = BackupStats()
        self.wal = SegmentedWal(self.storage.segment_size, self.stats)
        # May share the host's endpoint with a colocated witness
        # (Figure 2); method names are disjoint.
        self.transport = transport or RpcTransport(host)
        self.transport.register("replicate", self._handle_replicate)
        self.transport.register("reset_log", self._handle_reset_log)
        self.transport.register("fence", self._handle_fence)
        self.transport.register("get_backup_data", self._handle_get_data)
        self.transport.register("backup_read", self._handle_backup_read)
        self.transport.register("get_segment_index",
                                self._handle_segment_index)
        self.transport.register("read_partitions",
                                self._handle_read_partitions)
        # Control-path liveness for the cluster watchdog.  Guarded: a
        # colocated witness sharing this transport may have registered
        # it first (and vice versa).
        if "ping" not in self.transport._handlers:
            self.transport.register("ping", lambda args, ctx: "PONG")
        # Backup storage is durable: no on_crash hook clears it.  The
        # cleaner task, though, dies with the host and is respawned on
        # restart (a fresh incarnation gets a fresh generator).
        if self.storage.enabled and self.storage.compaction_interval > 0:
            self._spawn_cleaner()
            host.on_restart(self._spawn_cleaner)

    # ------------------------------------------------------------------
    # RPC handlers
    # ------------------------------------------------------------------
    def _handle_replicate(self, args: ReplicateArgs, ctx):
        if args.master_id != self.master_id:
            raise AppError("WRONG_MASTER", {"expected": self.master_id})
        if args.epoch < self.min_epoch:
            # Deposed master (zombie): refuse, so its clients can never
            # complete an operation through the sync path.
            raise AppError("FENCED", {"min_epoch": self.min_epoch})
        delay = self.process_time
        if self.storage.enabled:
            delay += self._append_delay(args.entries)
        if delay > 0:
            # Charge the CPU + disk time without a process per replicate
            # RPC; ``ctx.answer`` drops the work if the host crashes in
            # the delay.
            self.sim.schedule_callback(delay, ctx.answer, self._store,
                                       args.entries)
            return RpcTransport.DEFERRED
        return self._store(args.entries)

    def _append_delay(self, entries: typing.Sequence[LogEntry]) -> float:
        """Disk time for the fresh appends in ``entries`` (duplicates
        of already-stored indices cost nothing: the backup acks them
        from its index without touching the disk)."""
        new = sum(1 for e in entries if self.wal.get(e.index) is None)
        if new == 0:
            return 0.0
        cost = (new * self.storage.append_time
                + self.wal.rotations_for(new) * self.storage.rotation_time)
        return self.host.disk.charge(cost)

    def _store(self, entries: typing.Sequence[LogEntry]) -> int:
        """Append ``entries`` (resends are no-ops); the last index."""
        held = self.wal.entries     # ``wal.get`` inlined: no frame per entry
        for entry in entries:
            existing = held[entry.index] if entry.index < len(held) else None
            if existing is not None:
                if existing != entry:
                    # A cleaned entry was slimmed in place; the master
                    # resending the original (same identity) is not
                    # divergence.
                    if not (self.wal.is_compacted(entry.index)
                            and existing.rpc_id == entry.rpc_id):
                        raise AppError("LOG_DIVERGENCE",
                                       {"index": entry.index})
                continue  # duplicate resend: don't re-apply effects
            self.wal.append(entry)
        return self.last_index

    def _handle_reset_log(self, args: ReplicateArgs, ctx):
        """Adopt the caller's log wholesale (recovery, §4.6).

        A crash mid-sync can leave backups with diverging tails (some
        received the last partial batch, others did not; none of it was
        acknowledged to clients).  The recovery master resolves this by
        installing its restored+replayed log on every backup.  With
        storage enabled the rewrite is charged as fresh appends —
        re-replication is the disk-bound half of recovery.
        """
        if args.master_id != self.master_id:
            raise AppError("WRONG_MASTER", {"expected": self.master_id})
        if args.epoch < self.min_epoch:
            raise AppError("FENCED", {"min_epoch": self.min_epoch})
        delay = 0.0
        if self.storage.enabled and args.entries:
            n = len(args.entries)
            cost = (n * self.storage.append_time
                    + (n // self.storage.segment_size)
                    * self.storage.rotation_time)
            delay = self.host.disk.charge(cost)
        if delay > 0:
            self.sim.schedule_callback(delay, ctx.answer, self._reset_apply,
                                       args)
            return RpcTransport.DEFERRED
        return self._reset_apply(args)

    def _reset_apply(self, args: ReplicateArgs) -> int:
        self.wal.reset()
        return self._store(args.entries)

    def _handle_fence(self, args: int, ctx):
        """Coordinator: reject replication below this epoch from now on."""
        self.min_epoch = max(self.min_epoch, args)
        return self.min_epoch

    def _handle_get_data(self, args, ctx):
        """Recovery master fetches the full ordered log.  With storage
        enabled this is a whole-log disk scan — the cost partitioned
        recovery stripes across the backup set instead."""
        if self.storage.enabled:
            count = len(self.wal)
            delay = self.host.disk.charge(count * self.storage.read_entry_time)
            if delay > 0:
                self.stats.recovery_entries_read += count
                self.sim.schedule_callback(delay, ctx.answer,
                                           self.wal.all_entries)
                return RpcTransport.DEFERRED
        return self.wal.all_entries()

    def _handle_segment_index(self, args, ctx):
        """Segment metadata summary (in-memory; no disk charge).  The
        recovery coordinator uses it to assign segments to backups and
        skip segments outside the ranges being recovered."""
        return self.wal.segment_index()

    def _handle_read_partitions(self, args: PartitionReadArgs, ctx):
        """Read this backup's stripe of the log *once* and bucket the
        entries per recovery partition (RAMCloud's recovery shape: each
        backup scans its share a single time however many recovery
        masters are replaying).  Reply waits for the scan to drain
        through the disk."""
        segments, skipped = self._stripe_segments(args)
        count = sum(len(s.indices) for s in segments)
        self.stats.recovery_entries_read += count
        self.stats.segments_skipped += skipped
        delay = 0.0
        if self.storage.enabled:
            delay = self.host.disk.charge(count * self.storage.read_entry_time)
        if delay > 0:
            # The stripe is read at reply time: the cleaner may have
            # rewritten entries while the scan was "on disk".
            self.sim.schedule_callback(delay, ctx.answer, self._read_stripe,
                                       args)
            return RpcTransport.DEFERRED
        return self._read_stripe(args)

    def _stripe_segments(self, args: PartitionReadArgs):
        """This backup's segments that overlap the index window and
        could hold data for any requested partition, and how many
        overlapping segments the per-segment hash summary skipped."""
        all_ranges = tuple(r for ranges in args.partitions for r in ranges)
        chosen = []
        skipped = 0
        for info, segment in zip(self.wal.segment_index(),
                                 (s for s in self.wal.segments if s.indices)):
            if info.last_index < args.index_lo \
                    or info.first_index >= args.index_hi:
                continue
            if not info.overlaps(all_ranges):
                skipped += 1
                continue
            chosen.append(segment)
        return chosen, skipped

    def _read_stripe(self, args: PartitionReadArgs):
        """Scan the stripe: one entry tuple per requested partition.
        An entry goes to each partition one of its effects hashes into;
        a completion-only entry (a rejected conditional write, or one
        compaction emptied) names no key, so it goes to every partition,
        and each recovery master's ``absorb_partition`` appends it to
        its own log with its ``rpc_id`` and result."""
        segments, _skipped = self._stripe_segments(args)
        buckets: list[list[LogEntry]] = [[] for _ in args.partitions]
        for segment in segments:
            for index in segment.indices:
                if not args.index_lo <= index < args.index_hi:
                    continue  # boundary overshoot: scanned, not returned
                entry = self.wal.entries[index]
                if not entry.effects:
                    for bucket in buckets:
                        bucket.append(entry)
                    continue
                hashes = [key_hash(key) for key, _v, _ver in entry.effects]
                for bucket, ranges in zip(buckets, args.partitions):
                    if any(lo <= h < hi for h in hashes
                           for lo, hi in ranges):
                        bucket.append(entry)
        return tuple(tuple(bucket) for bucket in buckets)

    def _handle_backup_read(self, args, ctx):
        """§A.1: read replicated (synced) state; the *reader* is
        responsible for checking freshness against a witness."""
        return self.value_of(args.key)

    def value_of(self, key: str) -> typing.Any:
        """The key's value in this backup's log (None = never written,
        or deleted): the newest stored entry's effect on it, found by
        scanning the log backwards — a backup keeps nothing per key."""
        for entry in filter(None, reversed(self.wal.entries)):
            for effect_key, value, _version in entry.effects:
                if effect_key == key:
                    return None if value is TOMBSTONE else value
        return None

    # ------------------------------------------------------------------
    # background cleaning
    # ------------------------------------------------------------------
    def _spawn_cleaner(self) -> None:
        self.host.spawn(self._cleaner_loop(),
                        name=f"wal-cleaner-{self.master_id}")

    def _cleaner_loop(self):
        """Periodic compaction: rewrite sealed segments whose live
        ratio fell below the threshold, charging read amplification
        (whole-segment scan) + write amplification (survivor rewrite)
        on the same disk the replicate path is appending to."""
        profile = self.storage
        while True:
            yield self.sim.timeout(profile.compaction_interval)
            for segment in self.wal.cleanable(profile.compaction_live_ratio):
                cost = (len(segment.indices) * profile.read_entry_time
                        + self.wal.live_payloads(segment)
                        * COMPACTION_WRITE_TIME)
                delay = self.host.disk.charge(cost)
                if delay > 0:
                    yield self.sim.timeout(delay)
                self.wal.compact(segment)

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------
    @property
    def last_index(self) -> int:
        return self.wal.last_index

    def entry_count(self) -> int:
        return len(self.wal)
