"""The CURP master (§3.2.3, §4.3–4.5) and the paper's baselines.

One class implements all four replication modes of the evaluation
(CURP / SYNC "Original" / ASYNC / UNREPLICATED) so that every mode pays
identical execution and dispatch costs and benchmark deltas isolate the
protocol itself.

CURP-mode data path for an update:

1. RIFL filter (duplicate → answer from the completion record).
2. Commutativity check: does the operation touch any *unsynced* object
   (log position > last synced position, §4.3)?
3. Execute and append to the log.
4. No conflict → reply immediately, ``synced=False`` (speculative,
   1 RTT for the client) and let the batched sync pick the entry up.
   Conflict → sync through this entry first, reply ``synced=True``
   (client skips witnesses/sync RPC even if a witness rejected,
   §3.2.3).
5. Backup syncs run in a single background process, batched up to
   ``min_sync_batch`` (§4.4); each completed sync garbage-collects the
   synced requests from all witnesses (§4.5) and handles any
   uncollected-garbage suspects the witnesses report back.

Workers: a small pool executes operations; in SYNC mode the worker is
*held* through the backup round trip, modelling RAMCloud's polling
loops that §4.4 blames for wasted cycles — this is what caps the
"Original" throughput line in Figures 6 and 12.
"""

from __future__ import annotations

import dataclasses
import typing

from repro.core.config import CurpConfig, ReplicationMode
from repro.core.messages import (
    AbsorbPartitionArgs,
    GcArgs,
    LoadReport,
    ReadArgs,
    RecordedRequest,
    RETRY_LATER,
    TxnResolveArgs,
    UpdateArgs,
    UpdateReply,
)
from repro.kvstore.backup import ReplicateArgs
from repro.kvstore.hashing import key_hash
from repro.kvstore.operations import (
    Operation,
    Read,
    TxnCompensate,
    TxnPrepare,
)
from repro.kvstore.store import KVStore
from repro.rifl import DuplicateState, ResultRegistry
from repro.rpc import AppError, RpcError, RpcTimeout, RpcTransport
from repro.sim.events import QuorumEvent

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.net.host import Host
    from repro.rifl.lease import LeaseServer
    from repro.sim.resources import Resource

FULL_RANGE: tuple[tuple[int, int], ...] = ((0, 2 ** 64),)

#: wire-size model for the §5.2 traffic accounting, calibrated to the
#: paper's 100 B-object workloads: a replicated log entry carries the
#: value plus key and metadata; a gc pair is (64-bit hash, RpcId).
ENTRY_WIRE_BYTES = 140
GC_PAIR_WIRE_BYTES = 20
RPC_HEADER_BYTES = 60

#: how often (µs) a master with a lease server checks for expired
#: client leases (§4.8 modification 2)
LEASE_CHECK_INTERVAL = 50_000.0


@dataclasses.dataclass
class MasterStats:
    """Counters the benchmarks and tests read."""

    updates: int = 0
    reads: int = 0
    speculative_replies: int = 0
    conflict_syncs: int = 0
    syncs: int = 0
    synced_entries: int = 0
    #: gc RPCs actually sent to witnesses — NOT (key hash, RpcId) pairs
    gc_rpcs: int = 0
    #: (key hash, RpcId) pairs shipped for collection (per round, not
    #: multiplied by the witness fan-out)
    gc_pairs: int = 0
    #: gc rounds (each sends one RPC per witness)
    gc_flushes: int = 0
    stale_suspects_handled: int = 0
    duplicates_filtered: int = 0
    hot_key_syncs: int = 0
    #: updates shed with RETRY_LATER at the admission bound
    #: (config.overload.max_queue_depth; 0 unless overload.enabled)
    shed_updates: int = 0
    #: reads shed with RETRY_LATER at the admission bound
    shed_reads: int = 0
    #: cumulative ops bucketed by owned tablet (lo, hi) — harvested from
    #: the per-hash window whenever the coordinator pulls a load report
    tablet_ops: dict = dataclasses.field(default_factory=dict)
    #: load-report windows served to the coordinator's rebalancer
    load_reports: int = 0
    #: cross-shard transaction slices prepared OK (§B.2 saga prepare)
    txns_prepared: int = 0
    #: compensation operations executed (saga unwind of an aborted txn)
    txns_compensated: int = 0
    #: txn_resolve notifications that cleared pending-txn bookkeeping
    txns_resolved: int = 0


class CurpMaster:
    """One master server: executes, orders and replicates updates."""

    def __init__(self, host: "Host", master_id: str, config: CurpConfig,
                 backups: typing.Sequence[str] = (),
                 witnesses: typing.Sequence[str] = (),
                 witness_list_version: int = 0, epoch: int = 0,
                 lease_server: "LeaseServer | None" = None,
                 n_workers: int = 3, execute_time: float = 0.0,
                 owned_ranges: typing.Sequence[tuple[int, int]] = FULL_RANGE,
                 active: bool = True):
        from repro.sim.resources import Resource

        self.host = host
        self.sim = host.sim
        self.master_id = master_id
        self.config = config
        self.backups = list(backups)
        self.witnesses = list(witnesses)
        self.witness_list_version = witness_list_version
        self.epoch = epoch
        self.lease_server = lease_server
        self.owned_ranges = list(owned_ranges)
        #: False until recovery finishes installing this master
        self.active = active
        #: True once a backup fenced us: a newer master exists (§4.7)
        self.deposed = False

        self.store = KVStore()
        self.registry = ResultRegistry()
        #: log position through which backups have acknowledged
        self.synced_position = 0
        self.execute_time = execute_time
        self.workers: "Resource" = Resource(host.sim, capacity=n_workers,
                                            name=f"{master_id}-workers")
        self.stats = MasterStats()

        #: per-key-hash op counts for the current load-report window
        #: (pure bookkeeping: no events, so golden traces are unchanged)
        self._load_by_hash: dict[int, int] = {}

        self._sync_active = False
        self._flush_armed = False
        #: (target position, event) pairs awaiting a sync
        self._sync_waiters: list[tuple[int, typing.Any]] = []
        #: (position, key_hashes, rpc_id) of speculative updates whose
        #: witness records must be garbage collected once synced
        self._pending_gc: list[tuple[int, tuple[int, ...], typing.Any]] = []

        self.transport = RpcTransport(host)
        self.transport.register("update", self._handle_update)
        self.transport.register("read", self._handle_read)
        self.transport.register("sync", self._handle_sync)
        self.transport.register("update_witness_config",
                                self._handle_update_witness_config)
        self.transport.register("update_backup_config",
                                self._handle_update_backup_config)
        self.transport.register("migrate_out", self._handle_migrate_out)
        self.transport.register("migrate_in", self._handle_migrate_in)
        self.transport.register("absorb_partition",
                                self._handle_absorb_partition)
        self.transport.register("load_report", self._handle_load_report)
        self.transport.register("split_range", self._handle_split_range)
        self.transport.register("merge_ranges", self._handle_merge_ranges)
        self.transport.register("ping", lambda args, ctx: "PONG")
        self.transport.register("depose", self._handle_depose)
        self.transport.register("txn_resolve", self._handle_txn_resolve)
        host.on_crash(self._on_crash)

        if lease_server is not None:
            host.spawn(self._lease_expiry_loop(), name="lease-gc")

    # ------------------------------------------------------------------
    # ownership
    # ------------------------------------------------------------------
    def owns_hash(self, key_hash_value: int) -> bool:
        return self.owns_hashes((key_hash_value,))

    def owns_hashes(self, hashes: typing.Iterable[int]) -> bool:
        """True iff every hash (an op's ``touched_hashes()``) is owned."""
        ranges = self.owned_ranges
        for key_hash_value in hashes:
            for lo, hi in ranges:
                if lo <= key_hash_value < hi:
                    break
            else:
                return False
        return True

    # ------------------------------------------------------------------
    # update path
    # ------------------------------------------------------------------
    def _check_serviceable(self) -> None:
        if not self.active:
            raise AppError("NOT_READY", {"master": self.master_id})
        if self.deposed:
            raise AppError("DEPOSED", {"master": self.master_id})

    def _shedding(self) -> bool:
        """Admission control: True when overload defenses are on and the
        worker pool's wait queue is at the bound.  Pure reads of
        existing state — disabled, this is one attribute check and the
        golden traces never see a difference."""
        overload = self.config.overload
        return (overload.enabled
                and self.workers.queue_length >= overload.max_queue_depth)

    def _pushback_info(self) -> dict:
        return {"retry_after": self.config.overload.retry_after,
                "master": self.master_id,
                "queued": self.workers.queue_length}

    def _handle_update(self, args: UpdateArgs, ctx):
        self._check_serviceable()
        op: Operation = args.op
        if not op.is_update:
            raise AppError("BAD_REQUEST", "reads must use the read RPC")
        if not self.owns_hashes(op.touched_hashes()):
            # The client routed with a stale shard map: make it refetch
            # the map from the coordinator and retry.  Routing wins
            # over the witness-version check below — a mis-routed
            # client needs a new map, not this master's witness list.
            raise AppError("WRONG_SHARD", {"master": self.master_id})
        if args.witness_list_version != self.witness_list_version:
            # §3.6: the client recorded on a stale witness list; its
            # records would not be replayed. Make it refetch and retry.
            raise AppError("WRONG_WITNESS_VERSION",
                           {"current": self.witness_list_version})
        # RIFL: piggybacked ack then duplicate filtering.
        self.registry.process_ack(args.rpc_id.client_id, args.ack_seq)
        state, saved = self.registry.check(args.rpc_id)
        if state is DuplicateState.COMPLETED:
            self.stats.duplicates_filtered += 1
            record = self.registry.get(args.rpc_id)
            synced = (record is None
                      or record.log_position <= self.synced_position)
            return UpdateReply(result=saved, synced=synced)
        if state is DuplicateState.STALE:
            # The client already acknowledged this RPC; §4.8 says ignore.
            raise AppError("STALE_RPC", {"rpc_id": str(args.rpc_id)})
        # Admission control (overload.enabled only): shed *after* the
        # duplicate filter — a retry of an already-executed op answers
        # from its completion record above at no worker cost — and
        # *before* the worker queue, so a flash crowd meets a cheap
        # pushback reply instead of an unbounded queue whose delay
        # eventually exceeds every client's patience (collapse).
        if self._shedding():
            self.stats.shed_updates += 1
            raise AppError(RETRY_LATER, self._pushback_info())
        # Per-tablet load accounting (rebalancer input): counters only,
        # no events — virtual-time behaviour is untouched.
        load = self._load_by_hash
        for h in op.key_hashes():
            load[h] = load.get(h, 0) + 1
        self._on_worker(self._update_executed, op, args.rpc_id, ctx)
        return RpcTransport.DEFERRED

    # ------------------------------------------------------------------
    # operation lifecycle: worker grant -> timed execute -> reply
    # ------------------------------------------------------------------
    # Continuation-passing, so an operation costs no generator process
    # (docs/PERFORMANCE.md).  Continuations crossing an async boundary
    # carry the host incarnation: a crash mid-operation must kill the
    # lifecycle, exactly as Host.crash interrupts a process.
    def _on_worker(self, executed: typing.Callable[..., None],
                   *args: typing.Any) -> None:
        """Run ``executed(*args, incarnation)`` on a pool worker after
        ``execute_time``; the continuation owns releasing the worker."""
        incarnation = self.host.incarnation
        if self.workers.try_acquire():
            self._worker_granted(None, executed, args, incarnation)
        else:
            self.workers.request().when_done(self._worker_granted,
                                             executed, args, incarnation)

    def _worker_granted(self, _grant, executed, args: tuple,
                        incarnation: int) -> None:
        if self._gone(incarnation):
            return
        if self.execute_time > 0:
            self.sim.schedule_callback(self.execute_time, executed,
                                       *args, incarnation)
        else:
            executed(*args, incarnation)

    def _gone(self, incarnation: int) -> bool:
        """True when the host crashed since the continuation was armed."""
        return not self.host.alive or self.host.incarnation != incarnation

    def _update_executed(self, op: Operation, rpc_id, ctx,
                         incarnation: int) -> None:
        if self._gone(incarnation):
            return
        mode = self.config.mode
        hot = False
        try:
            # Commutativity + hot-key checks look at state *before* the
            # operation mutates it.
            conflict = False
            for key in op.touched_keys():
                if self.store.is_unsynced(key, self.synced_position):
                    conflict = True
                    break
            if self.config.hot_key_window > 0:
                now = self.sim.now
                for key in op.mutated_keys():
                    last = self.store.last_update_time_of(key)
                    if last is not None \
                            and now - last <= self.config.hot_key_window:
                        hot = True
                        break
            result, entry = self.store.execute(op, rpc_id=rpc_id,
                                               now=self.sim.now)
            assert entry is not None
            self.registry.record(rpc_id, result, log_position=entry.index)
            self.stats.updates += 1
            self._note_txn_op(op, result)

            if mode is ReplicationMode.UNREPLICATED:
                self.synced_position = self.store.log.end
                ctx.reply(UpdateReply(result=result, synced=True))
                self.workers.release()
                return
            if mode is ReplicationMode.SYNC:
                # Hold the worker through the backup round trip; it is
                # released by the continuation — the polling cost §4.4
                # blames for the "Original" ceiling.
                self._request_sync(entry.index).when_done(
                    self._update_synced_reply, result, ctx, incarnation)
                return
            # CURP / ASYNC
            if self.config.uses_witnesses:
                self._pending_gc.append(
                    (entry.index, op.key_hashes(), rpc_id))
            if conflict:
                self.stats.conflict_syncs += 1
                self._request_sync(entry.index).when_done(
                    self._update_synced_reply, result, ctx, incarnation)
                return
            self.stats.speculative_replies += 1
            ctx.reply(UpdateReply(result=result, synced=False))
        except Exception as error:  # noqa: BLE001 - serialize to caller
            ctx.reply_exception(error)
            self.workers.release()
            return
        self.workers.release()
        # Post-reply sync scheduling (speculative path only).
        unsynced = self.store.log.end - self.synced_position
        if hot:
            self.stats.hot_key_syncs += 1
            self._kick_sync()
        elif unsynced >= self.config.min_sync_batch:
            self._kick_sync()
        else:
            self._arm_flush_timer()

    def _update_synced_reply(self, event, result, ctx,
                             incarnation: int) -> None:
        """Sync-then-reply continuation (SYNC mode and conflict path)."""
        if self._gone(incarnation):
            return
        if event.ok:
            ctx.reply(UpdateReply(result=result, synced=True))
        else:
            ctx.reply_exception(event.exception)
        self.workers.release()

    # ------------------------------------------------------------------
    # read path
    # ------------------------------------------------------------------
    def _handle_read(self, args: ReadArgs, ctx):
        self._check_serviceable()
        h = key_hash(args.key)
        if not self.owns_hash(h):
            raise AppError("WRONG_SHARD", {"master": self.master_id})
        if self._shedding() and not args.probe:
            self.stats.shed_reads += 1
            raise AppError(RETRY_LATER, self._pushback_info())
        self._load_by_hash[h] = self._load_by_hash.get(h, 0) + 1
        self._on_worker(self._read_executed, args, ctx)
        return RpcTransport.DEFERRED

    def _read_executed(self, args: ReadArgs, ctx, incarnation: int) -> None:
        """Linearizable read at the master.

        Reads *touch* their key (§3.2.3): returning an unsynced value
        would externalize state that might not survive a crash, so an
        unsynced key forces a sync first.  Exception (§A.3):
        ``allow_unsynced`` reads — preparation for a conditional update
        — skip the wait, because the commit's version check revalidates
        them; the version floor raised during recovery guarantees a
        lost value's version is never reissued.
        """
        if self._gone(incarnation):
            return
        try:
            self.stats.reads += 1
            if not args.allow_unsynced and \
                    self.store.is_unsynced(args.key, self.synced_position):
                # The worker is held through the sync.
                self._request_sync(
                    self.store.last_position_of(args.key)).when_done(
                    self._read_after_sync, args, ctx, incarnation)
                return
            self._read_reply(args, ctx)
        except Exception as error:  # noqa: BLE001 - serialize to caller
            ctx.reply_exception(error)
        self.workers.release()

    def _read_after_sync(self, event, args: ReadArgs, ctx,
                         incarnation: int) -> None:
        if self._gone(incarnation):
            return
        try:
            if event.ok:
                self._read_reply(args, ctx)
            else:
                ctx.reply_exception(event.exception)
        finally:
            self.workers.release()

    def _read_reply(self, args: ReadArgs, ctx) -> None:
        value, _ = self.store.execute(Read(args.key))
        if args.return_version:
            ctx.reply((value, self.store.version(args.key)))
        else:
            ctx.reply(value)

    # ------------------------------------------------------------------
    # client slow path
    # ------------------------------------------------------------------
    def _handle_sync(self, args, ctx):
        """Client couldn't record on all witnesses: make state durable."""
        self._check_serviceable()
        self._request_sync(self.store.log.end).when_done(
            self._sync_rpc_done, ctx, self.host.incarnation)
        return RpcTransport.DEFERRED

    def _sync_rpc_done(self, event, ctx, incarnation: int) -> None:
        if self._gone(incarnation):
            return
        if event.ok:
            ctx.reply("SYNCED")
        else:
            ctx.reply_exception(event.exception)

    # ------------------------------------------------------------------
    # cross-shard transactions (§B.2)
    # ------------------------------------------------------------------
    def _handle_txn_resolve(self, args: TxnResolveArgs, ctx):
        """Fire-and-forget commit notification: the client's cross-shard
        transaction committed on every shard, so this shard's pending
        bookkeeping can go.  Deliberately no serviceability check — the
        map is advisory (the client carries the undo data), so clearing
        it is harmless in any master state, and a lost notification
        merely leaves a stale entry behind."""
        if self.store.resolve_txn(args.txn_id):
            self.stats.txns_resolved += 1
        return "OK"

    def _note_txn_op(self, op: Operation, result) -> None:
        """Count saga prepares/compensations (two cheap isinstance
        checks per update; no events, golden traces unchanged)."""
        if isinstance(op, TxnPrepare):
            if result[0] == "OK":
                self.stats.txns_prepared += 1
        elif isinstance(op, TxnCompensate):
            self.stats.txns_compensated += 1

    # ------------------------------------------------------------------
    # sync machinery
    # ------------------------------------------------------------------
    def _request_sync(self, target: int):
        """Event that triggers once synced_position >= target."""
        done = self.sim.event()
        if not self.config.uses_backups:
            # No backups: everything is trivially "synced".
            self.synced_position = self.store.log.end
            done.succeed()
            return done
        if self.synced_position >= target:
            done.succeed()
            return done
        self._sync_waiters.append((target, done))
        self._kick_sync()
        return done

    def _kick_sync(self) -> None:
        if (self._sync_active or self.deposed or not self.host.alive
                or not self.config.uses_backups):
            return
        if self.synced_position >= self.store.log.end:
            return
        self._sync_active = True
        self.host.spawn(self._sync_process(), name="sync")

    def _sync_process(self):
        """Background replication loop: one outstanding sync at a time
        (matching RAMCloud), batching whatever accumulated (§4.4)."""
        try:
            while (self.synced_position < self.store.log.end
                   and not self.deposed):
                entries = tuple(self.store.log.entries_after(
                    self.synced_position))
                args = ReplicateArgs(master_id=self.master_id,
                                     epoch=self.epoch, entries=entries)
                wire_size = RPC_HEADER_BYTES + ENTRY_WIRE_BYTES * len(entries)
                # Acks land in the join straight from response
                # delivery; durability needs all f of them, so the
                # first error fails the round (fail_fast).
                join = QuorumEvent(self.sim, len(self.backups),
                                   fail_fast=True)
                for index, backup in enumerate(self.backups):
                    self.transport.call_cb(
                        backup, "replicate", args,
                        join.child_result, index,
                        timeout=self.config.rpc_timeout,
                        request_size=wire_size)
                try:
                    yield join
                except AppError as error:
                    if error.code == "FENCED":
                        self._become_deposed()
                        return
                    raise
                except RpcTimeout:
                    # A backup is unreachable; durability requires all f
                    # acks, so retry (the coordinator replaces dead
                    # backups out of band).
                    continue
                self.synced_position = entries[-1].index
                self.stats.syncs += 1
                self.stats.synced_entries += len(entries)
                self._wake_sync_waiters()
                # One gc RPC per witness per completed sync round (§4.5).
                yield from self._gc_witnesses()
                # Between rounds, honour the minimum batch (§4.4/C.1):
                # unless someone is blocked waiting, don't start another
                # sync until min_sync_batch operations accumulated (the
                # idle-flush timer covers stragglers).
                if (not self._sync_waiters
                        and self.store.log.end - self.synced_position
                        < self.config.min_sync_batch):
                    break
        finally:
            self._sync_active = False
        if self.synced_position < self.store.log.end:
            self._arm_flush_timer()

    def _wake_sync_waiters(self) -> None:
        still_waiting = []
        for target, event in self._sync_waiters:
            if target <= self.synced_position:
                event.succeed()
            else:
                still_waiting.append((target, event))
        self._sync_waiters = still_waiting

    def _handle_depose(self, epoch: int, ctx) -> str:
        """Coordinator → replaced master, after a recovery goes live.

        Backup fencing (§4.7) already guarantees no zombie sync can
        complete, but a zombie that cannot *reach* its backups (e.g. a
        one-way partition — the very fault that got it replaced) never
        sees FENCED and would keep shedding clients with retryable
        pushback forever.  This direct notice makes it answer DEPOSED
        so clients refresh their view and find the new master.  The
        epoch guard keeps a delayed depose from killing a newer master
        recovered back onto the same host."""
        if epoch > self.epoch and not self.deposed:
            self._become_deposed()
        return "OK"

    def _become_deposed(self) -> None:
        """A backup fenced us: a recovery replaced this master (§4.7)."""
        self.deposed = True
        waiters, self._sync_waiters = self._sync_waiters, []
        for _target, event in waiters:
            event.fail(AppError("DEPOSED", {"master": self.master_id}))

    def _take_durable_gc_pairs(self) -> list[tuple[int, typing.Any]]:
        """Split _pending_gc on durability: return the (key hash,
        rpc_id) pairs whose log entries are synced, keep the rest."""
        pairs: list[tuple[int, typing.Any]] = []
        remaining = []
        for position, hashes, rpc_id in self._pending_gc:
            if position <= self.synced_position:
                for key_hash_value in hashes:
                    pairs.append((key_hash_value, rpc_id))
            else:
                remaining.append((position, hashes, rpc_id))
        self._pending_gc = remaining
        return pairs

    def _gc_witnesses(self):
        """Generator, one gc round: drop newly-synced requests from all
        witnesses (§3.5, §4.5) with one RPC each and handle the
        uncollected-garbage suspects they report back.  Unreachable
        witnesses are skipped (the coordinator replaces them out of
        band)."""
        pairs = self._take_durable_gc_pairs()
        witnesses = self.witnesses
        if not pairs or not witnesses:
            return
        args = GcArgs(master_id=self.master_id, pairs=tuple(pairs))
        wire_size = RPC_HEADER_BYTES + GC_PAIR_WIRE_BYTES * len(pairs)
        self.stats.gc_rpcs += len(witnesses)
        self.stats.gc_pairs += len(pairs)
        self.stats.gc_flushes += 1
        join = QuorumEvent(self.sim, len(witnesses))
        for index, witness in enumerate(witnesses):
            self.transport.call_cb(witness, "gc", args,
                                   join.child_result, index,
                                   timeout=self.config.rpc_timeout,
                                   request_size=wire_size)
        results = yield join
        for stale in results:
            if isinstance(stale, BaseException):
                continue  # witness down/replaced; coordinator handles it
            for request in stale:
                self._handle_stale_suspect(request)

    def _handle_stale_suspect(self, request: RecordedRequest) -> None:
        """§4.5: a witness reports an uncollected record (its client
        probably crashed before reaching us).  Retry it through RIFL,
        let the normal sync+gc cycle collect it."""
        record = self.registry.get(request.rpc_id)
        if record is not None and record.log_position > self.synced_position:
            # Executed but not durable yet: every witness holds its own
            # copy of an orphan, and another one's report has just
            # re-executed it — its sync + gc round collects them all.
            return
        self.stats.stale_suspects_handled += 1
        state, _ = self.registry.check(request.rpc_id)
        if state is DuplicateState.NEW and self.owns_hashes(
                request.op.touched_hashes()):
            result, entry = self.store.execute(request.op,
                                               rpc_id=request.rpc_id,
                                               now=self.sim.now)
            if entry is not None:
                self.registry.record(request.rpc_id, result,
                                     log_position=entry.index)
                self._pending_gc.append(
                    (entry.index, request.op.key_hashes(), request.rpc_id))
                self._arm_flush_timer()
        else:
            # Already executed (or foreign): the data is durable, so the
            # slot can be collected right away — waiting for the next
            # sync could leave the orphan pinned forever on an idle
            # master.
            pairs = tuple((key_hash_value, request.rpc_id)
                          for key_hash_value in request.op.key_hashes())
            self.host.spawn(self._send_gc_round(pairs), name="orphan-gc")

    def _send_gc_round(self, pairs):
        """One explicit gc round (outside the sync loop)."""
        args = GcArgs(master_id=self.master_id, pairs=pairs)
        self.stats.gc_pairs += len(pairs)
        self.stats.gc_flushes += 1
        for witness in list(self.witnesses):
            self.stats.gc_rpcs += 1
            try:
                stale = yield self.transport.call(
                    witness, "gc", args, timeout=self.config.rpc_timeout)
            except RpcError:
                continue
            for request in stale:
                self._handle_stale_suspect(request)

    def _arm_flush_timer(self) -> None:
        """One-shot: flush stragglers that never fill a batch."""
        if (self._flush_armed or not self.config.uses_backups
                or self.deposed or not self.host.alive):
            return
        self._flush_armed = True
        incarnation = self.host.incarnation

        def check() -> None:
            self._flush_armed = False
            if (not self.host.alive or self.host.incarnation != incarnation
                    or self.deposed):
                return
            if self.synced_position < self.store.log.end:
                self._kick_sync()
        self.sim.schedule_callback(self.config.idle_sync_delay, check)

    # ------------------------------------------------------------------
    # reconfiguration (§3.6)
    # ------------------------------------------------------------------
    def _handle_update_witness_config(self, args, ctx):
        """Coordinator installed a new witness list: sync first so the
        requests recorded only on the old witnesses are durable, then
        adopt the new list and version.

        ``args`` is ``(witnesses, version)`` or ``(witnesses, version,
        witnesses_reset)``.  ``witnesses_reset=False`` (migration: the
        same witnesses continue with their caches intact, only the
        version moves) keeps the pending-gc bookkeeping — their slots
        still exist and still need collecting.  The default ``True``
        matches witness *replacement*, where the old slots are gone."""
        witnesses, version, *rest = args
        witnesses_reset = rest[0] if rest else True
        def work():
            yield self._request_sync(self.store.log.end)
            self.witnesses = list(witnesses)
            self.witness_list_version = version
            if witnesses_reset:
                self._pending_gc.clear()  # old witnesses' slots are gone
            return "OK"
        return work()

    def _handle_update_backup_config(self, args, ctx):
        """Coordinator replaced a backup: bring the newcomer up to date
        with the full log before switching over."""
        new_backups = list(args)
        def work():
            fresh = [b for b in new_backups if b not in self.backups]
            entries = tuple(self.store.log.all_entries())
            for backup in fresh:
                # reset_log, not replicate: the newcomer may carry a
                # stale log from an earlier life.
                replicate = ReplicateArgs(master_id=self.master_id,
                                          epoch=self.epoch, entries=entries)
                yield from self._call_until_ok(backup, "reset_log", replicate)
            self.backups = new_backups
            return "OK"
        return work()

    def _call_until_ok(self, dst: str, method: str, args):
        while True:
            try:
                value = yield self.transport.call(
                    dst, method, args, timeout=self.config.rpc_timeout)
                return value
            except RpcTimeout:
                continue

    def _handle_migrate_out(self, args, ctx):
        """Final step of migration: stop owning [lo, hi), hand objects
        over.  The coordinator already synced+reset witnesses (§3.6)."""
        lo, hi = args
        def work():
            yield self._request_sync(self.store.log.end)
            moved = []
            for key in list(self.store.keys()):
                h = key_hash(key)
                if lo <= h < hi:
                    moved.append((key, self.store.read(key),
                                  self.store.version(key)))
            storage = self.config.storage
            if storage.enabled and storage.migrate_entry_time > 0 and moved:
                # Segment-transfer cost: reading the tablet's objects
                # out of the log-structured store and shipping them is
                # not free once storage is modeled (docs/STORAGE.md).
                yield self.sim.timeout(
                    len(moved) * storage.migrate_entry_time)
            self.owned_ranges = _subtract_range(self.owned_ranges, (lo, hi))
            return tuple(moved)
        return work()

    def _handle_migrate_in(self, args, ctx):
        lo, hi, objects = args
        def work():
            for key, value, version in objects:
                self.store.install(key, value, version, now=self.sim.now)
            if (lo, hi) not in self.owned_ranges:
                # Idempotent: a coordinator retry after a lost reply
                # must not create a duplicate tablet (the shard map
                # rejects overlapping tablets).
                self.owned_ranges.append((lo, hi))
            yield self._request_sync(self.store.log.end)
            return "OK"
        return work()

    def _handle_absorb_partition(self, args: AbsorbPartitionArgs, ctx):
        """Partitioned recovery: absorb one partition of a dead
        master's tablets (RAMCloud's recovery-master role).

        Install the backed-up entries for the partition's ranges in log
        order, record their RIFL completions, take ownership, replay
        the witness-recovered speculative requests through the RIFL
        filter, and sync to *this* master's backups before acking —
        re-replication makes the absorbed data durable again, and the
        coordinator only cuts routing over on the ack.  Idempotent for
        coordinator retries: installs preserve versions and the replay
        is filtered by the completion records the first attempt wrote.
        """
        self._check_serviceable()

        def work():
            storage = self.config.storage
            entries = sorted(args.entries, key=lambda e: e.index)
            if storage.enabled and storage.replay_entry_time > 0 and entries:
                # Replay CPU — the term that partitioning across k
                # recovery masters divides by k.
                yield self.sim.timeout(
                    len(entries) * storage.replay_entry_time)
            installed = 0
            for entry in entries:
                for key, value, version in entry.effects:
                    h = key_hash(key)
                    if any(lo <= h < hi for lo, hi in args.ranges):
                        self.store.install(key, value, version,
                                           now=self.sim.now)
                        installed += 1
                if entry.rpc_id is not None:
                    state, _ = self.registry.check(entry.rpc_id)
                    if state is DuplicateState.NEW:
                        self.registry.record(
                            entry.rpc_id, entry.result,
                            log_position=self.store.log.end)
            # Anti-ABA (RAMCloud's safeVersion): speculative writes the
            # dead master lost consumed versions beyond what its
            # backups saw; never reissue them for absorbed keys.
            self.store.raise_version_floor(
                self.store.max_version_seen + 10_000)
            for lo, hi in args.ranges:
                if (lo, hi) not in self.owned_ranges:
                    self.owned_ranges.append((lo, hi))
            replayed, filtered = self.replay_witness_requests(args.requests)
            if self.config.uses_backups:
                yield self._request_sync(self.store.log.end)
            return {"installed": installed, "replayed": replayed,
                    "filtered": filtered}
        return work()

    def replay_witness_requests(
            self, requests: typing.Iterable[RecordedRequest]
            ) -> tuple[int, int]:
        """The §4.6 witness replay: execute each recorded request this
        master owns and has not already completed; returns
        ``(replayed, filtered)``."""
        replayed = 0
        filtered = 0
        self.registry.begin_recovery()  # §4.8: ignore piggybacked acks
        try:
            for request in requests:
                op = request.op
                if not self.owns_hashes(op.touched_hashes()):
                    filtered += 1  # migrated-away keys (§3.6 replay filter)
                    continue
                state, _ = self.registry.check(request.rpc_id)
                if state is not DuplicateState.NEW:
                    filtered += 1  # already durable in the backup log
                    continue
                result, entry = self.store.execute(op, rpc_id=request.rpc_id,
                                                   now=self.sim.now)
                if entry is not None:
                    self.registry.record(request.rpc_id, result,
                                         log_position=entry.index)
                replayed += 1
        finally:
            self.registry.end_recovery()
        return replayed, filtered

    # ------------------------------------------------------------------
    # load accounting + tablet bookkeeping (rebalancer-facing)
    # ------------------------------------------------------------------
    def _handle_load_report(self, args, ctx) -> LoadReport:
        """One load window: per-tablet totals + the per-hash histogram
        the rebalancer splits on.  Pulling the report resets the window
        (and folds it into the cumulative ``stats.tablet_ops``).

        The reset is deliberate even though the reply might be lost in
        flight: load windows are advisory, and a hot master that loses
        one report re-accumulates from live traffic within a single
        rebalancer interval — the rebalancer just acts one round
        later.  Acknowledged-delivery bookkeeping would buy nothing
        but complexity here."""
        window, self._load_by_hash = self._load_by_hash, {}
        per_tablet = {tablet: 0 for tablet in self.owned_ranges}
        hash_ops = []
        total = 0
        for key_hash_value, count in sorted(window.items()):
            for tablet in self.owned_ranges:
                if tablet[0] <= key_hash_value < tablet[1]:
                    per_tablet[tablet] += count
                    hash_ops.append((key_hash_value, count))
                    total += count
                    break
            # hashes outside every owned range (just migrated out) are
            # dropped: they are the new owner's load now
        for tablet, count in per_tablet.items():
            self.stats.tablet_ops[tablet] = (
                self.stats.tablet_ops.get(tablet, 0) + count)
        self.stats.load_reports += 1
        return LoadReport(master_id=self.master_id,
                          tablet_ops=tuple(per_tablet.items()),
                          hash_ops=tuple(hash_ops),
                          window_ops=total)

    def _handle_split_range(self, args, ctx) -> str:
        """Split owned tablet [lo, hi) at ``split`` (pure bookkeeping:
        ownership of every hash is unchanged, so no data moves and no
        sync is needed — the split only creates the boundary a
        subsequent ``migrate_out`` cuts along)."""
        lo, hi, split = args
        if (lo, hi) not in self.owned_ranges:
            if ((lo, split) in self.owned_ranges
                    and (split, hi) in self.owned_ranges):
                return "OK"  # idempotent coordinator retry
            raise AppError("BAD_SPLIT", {"range": (lo, hi),
                                         "owned": tuple(self.owned_ranges)})
        if not lo < split < hi:
            raise AppError("BAD_SPLIT", {"range": (lo, hi), "split": split})
        index = self.owned_ranges.index((lo, hi))
        self.owned_ranges[index:index + 1] = [(lo, split), (split, hi)]
        return "OK"

    def _handle_merge_ranges(self, args, ctx) -> tuple[tuple[int, int], ...]:
        """Coalesce adjacent owned ranges (the inverse bookkeeping of
        split; keeps long split/migrate histories from growing the
        ownership list without bound)."""
        self.owned_ranges = _coalesce_ranges(self.owned_ranges)
        return tuple(self.owned_ranges)

    # ------------------------------------------------------------------
    # lease expiry (§4.8 modification 2)
    # ------------------------------------------------------------------
    def _lease_expiry_loop(self):
        while True:
            yield self.sim.timeout(LEASE_CHECK_INTERVAL)
            if self.deposed or self.lease_server is None:
                return
            expired = [cid for cid in self.lease_server.expired_clients()]
            if not expired:
                continue
            # Sync *before* dropping records: a witness replay of this
            # client's requests must still be filtered afterwards.
            yield self._request_sync(self.store.log.end)
            for client_id in expired:
                self.registry.expire_client(client_id)
                self.lease_server.drop(client_id)

    # ------------------------------------------------------------------
    # crash
    # ------------------------------------------------------------------
    def _on_crash(self) -> None:
        """Masters are volatile: everything but the backups' logs and
        the witnesses' NVM dies with the process."""
        self.active = False
        waiters, self._sync_waiters = self._sync_waiters, []
        del waiters  # their continuations see the incarnation change
        self._sync_active = False

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------
    @property
    def unsynced_count(self) -> int:
        return self.store.log.end - self.synced_position


def _coalesce_ranges(ranges: typing.Sequence[tuple[int, int]]
                     ) -> list[tuple[int, int]]:
    """Sort [lo, hi) ranges and merge the adjacent/overlapping ones."""
    merged: list[tuple[int, int]] = []
    for lo, hi in sorted(ranges):
        if merged and lo <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], hi))
        else:
            merged.append((lo, hi))
    return merged


def _subtract_range(ranges: list[tuple[int, int]],
                    cut: tuple[int, int]) -> list[tuple[int, int]]:
    """Remove [cut_lo, cut_hi) from a list of [lo, hi) ranges."""
    cut_lo, cut_hi = cut
    result: list[tuple[int, int]] = []
    for lo, hi in ranges:
        if cut_hi <= lo or hi <= cut_lo:
            result.append((lo, hi))
            continue
        if lo < cut_lo:
            result.append((lo, cut_lo))
        if cut_hi < hi:
            result.append((cut_hi, hi))
    return result
