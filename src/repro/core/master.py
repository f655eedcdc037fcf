"""The CURP master (§3.2.3, §4.3–4.5) and the paper's baselines.

One class implements all four replication modes of the evaluation
(CURP / SYNC "Original" / ASYNC / UNREPLICATED) so that every mode pays
identical execution and dispatch costs and benchmark deltas isolate the
protocol itself.

CURP-mode data path for an update:

1. RIFL intake (``ResultRegistry.admit``: a duplicate is answered from
   its completion record).
2. Commutativity check: does the operation touch any *unsynced* object
   (log position > last synced position, §4.3)?
3. Execute and append to the log.
4. No conflict → reply immediately, ``synced=False`` (speculative,
   1 RTT for the client) and let the batched sync pick the entry up.
   Conflict → sync through this entry first, reply ``synced=True``
   (client skips witnesses/sync RPC even if a witness rejected,
   §3.2.3).  A client whose record a witness rejected sends a ``sync``
   RPC naming its RpcId; the master syncs through that update's entry
   only, answering at once if it is already durable (§3.2.1).
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
from repro.core.curp import RPC_HEADER_BYTES, gc_round, replay, retry_orphans
from repro.core.messages import (
    AbsorbPartitionArgs,
    LoadReport,
    ReadArgs,
    RecordedRequest,
    RETRY_LATER,
    TxnResolveArgs,
    UpdateArgs,
    UpdateReply,
)
from repro.kvstore.backup import ReplicateArgs
from repro.kvstore.hashing import in_ranges, key_hash
from repro.kvstore.operations import (
    Operation,
    TxnCompensate,
    TxnPrepare,
)
from repro.kvstore.store import KVStore
from repro.rifl import DuplicateState, ResultRegistry
from repro.rpc import AppError, RpcError, RpcTimeout, RpcTransport
from repro.sim.events import QuorumEvent

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.kvstore.log import LogEntry
    from repro.net.host import Host
    from repro.sim.resources import Resource

FULL_RANGE: tuple[tuple[int, int], ...] = ((0, 2 ** 64),)

#: wire-size model for the §5.2 traffic accounting, calibrated to the
#: paper's 100 B-object workloads: a replicated log entry carries the
#: value plus key and metadata (gc pairs: ``core.curp``).
ENTRY_WIRE_BYTES = 140

#: CPU time (µs) for a master to append one handed entry on
#: ``absorb_partition`` (hash, insert, version bookkeeping) when
#: ``StorageProfile`` is enabled — a migration's only cost, and the
#: term that partitioning across k recovery masters divides by k
REPLAY_ENTRY_TIME = 1.0

#: distinct key hashes one load window may hold: a new hash beyond this
#: folds the window into ``stats.tablet_ops`` (as a pull does) and starts
#: a fresh one, so a master no rebalancer pulls keeps bounded
#: bookkeeping.  Larger than any rebalancer run's whole key space
#: (``bench_rebalance`` writes 1,975 keys), so no window a rebalancer
#: reads is cut short.
LOAD_WINDOW_HASHES = 4096


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
    #: or the window restarts
    tablet_ops: dict = dataclasses.field(default_factory=dict)
    #: load-report windows served to the coordinator's rebalancer
    load_reports: int = 0
    #: load windows folded unpulled at ``LOAD_WINDOW_HASHES`` hashes
    load_window_restarts: int = 0
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

        #: per-key-hash op counts for the current load-report window, at
        #: most ``LOAD_WINDOW_HASHES`` of them (pure bookkeeping: no
        #: events, so golden traces are unchanged)
        self._load_by_hash: dict[int, int] = {}

        self._sync_active = False
        self._flush_armed = False
        #: (target position, event) pairs awaiting a sync
        self._sync_waiters: list[tuple[int, typing.Any]] = []
        #: (position, touched hashes, rpc_id) of speculative updates whose
        #: witness records must be garbage collected once synced
        self._pending_gc: list[tuple[int, tuple[int, ...], typing.Any]] = []
        #: backup list → the coordinator retries joined to its reset in
        #: flight (``update_backup_config``)
        self._backup_resets: dict[tuple[str, ...], list[typing.Any]] = {}
        #: range → the entries ``migrate_out`` handed over and forgot: a
        #: coordinator retry, which finds the range gone, gets them again
        self._handed_over: dict[tuple[int, int], tuple[LogEntry, ...]] = {}

        self.transport = RpcTransport(host)
        self.transport.register("update", self._handle_update)
        self.transport.register("read", self._handle_read)
        self.transport.register("sync", self._handle_sync)
        self.transport.register("update_witness_config",
                                self._handle_update_witness_config)
        self.transport.register("update_backup_config",
                                self._handle_update_backup_config)
        self.transport.register("migrate_out", self._handle_migrate_out)
        self.transport.register("absorb_partition",
                                self._handle_absorb_partition)
        self.transport.register("load_report", self._handle_load_report)
        self.transport.register("split_range", self._handle_split_range)
        self.transport.register("merge_ranges", self._handle_merge_ranges)
        self.transport.register("ping", lambda args, ctx: "PONG")
        self.transport.register("depose", self._handle_depose)
        self.transport.register("txn_resolve", self._handle_txn_resolve)
        host.on_crash(self._on_crash)

    # ------------------------------------------------------------------
    # ownership
    # ------------------------------------------------------------------
    def owns_hash(self, key_hash_value: int) -> bool:
        return in_ranges((key_hash_value,), self.owned_ranges)

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
        if not in_ranges(op.touched_hashes(), self.owned_ranges):
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
        duplicate = self.registry.admit(args.rpc_id, args.ack_seq,
                                        self.synced_position)
        if duplicate is not None:
            self.stats.duplicates_filtered += 1
            if self.config.uses_witnesses:
                # the retry recorded afresh on the witnesses: the next
                # gc round collects those records with the original's
                self._pending_gc.append(
                    (self.registry.get(args.rpc_id).log_position,
                     op.touched_hashes(), args.rpc_id))
            return UpdateReply(*duplicate)
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
        for h in op.touched_hashes():
            if len(load) >= LOAD_WINDOW_HASHES and h not in load:
                load = self._restart_load_window()
            load[h] = load.get(h, 0) + 1
        self._on_worker(self._update_executed, op, args.rpc_id, ctx)
        return RpcTransport.DEFERRED

    def _execute_and_log(self, request: RecordedRequest) -> int:
        """Execute-and-log step of the shared §4.5 / §4.6 pieces
        (``core.curp``): 0 for a request this master does not own."""
        op = request.op
        if not in_ranges(op.touched_hashes(), self.owned_ranges):
            return 0
        result, entry = self.store.execute(op, rpc_id=request.rpc_id,
                                           now=self.sim.now)
        self.registry.record(request.rpc_id, result,
                             log_position=entry.index)
        return entry.index

    # ------------------------------------------------------------------
    # operation lifecycle: worker grant -> timed execute -> reply
    # ------------------------------------------------------------------
    # Continuation-passing, so an operation costs no generator process
    # (docs/PERFORMANCE.md).  Each continuation crossing an async
    # boundary first asks the request it serves whether its host
    # crashed since delivery (``ctx.gone()``): a crash mid-operation
    # must kill the lifecycle, exactly as Host.crash interrupts a
    # process.
    def _on_worker(self, executed: typing.Callable[..., None],
                   *args: typing.Any) -> None:
        """Run ``executed(*args)`` — the request last among ``args`` —
        on a pool worker after ``execute_time``; the continuation owns
        releasing the worker."""
        workers = self.workers
        if workers.in_use >= workers.capacity:
            workers.request().when_done(self._worker_granted, executed,
                                        args)
            return
        workers.in_use += 1     # a free worker: granted here, no event
        if self.execute_time > 0:
            self.sim.schedule_callback(self.execute_time, executed, *args)
        else:
            executed(*args)

    def _worker_granted(self, _grant, executed, args: tuple) -> None:
        if args[-1].gone():
            return
        if self.execute_time > 0:
            self.sim.schedule_callback(self.execute_time, executed, *args)
        else:
            executed(*args)

    def _update_executed(self, op: Operation, rpc_id, ctx) -> None:
        if ctx.gone():
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
                    self._update_synced_reply, result, ctx)
                return
            # CURP / ASYNC
            if self.config.uses_witnesses:
                self._pending_gc.append(
                    (entry.index, op.touched_hashes(), rpc_id))
            if conflict:
                self.stats.conflict_syncs += 1
                self._request_sync(entry.index).when_done(
                    self._update_synced_reply, result, ctx)
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

    def _update_synced_reply(self, event, result, ctx) -> None:
        """Sync-then-reply continuation (SYNC mode and conflict path)."""
        if ctx.gone():
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
        h = args.key_hash
        for lo, hi in self.owned_ranges:
            if lo <= h < hi:
                break
        else:
            raise AppError("WRONG_SHARD", {"master": self.master_id})
        if self._shedding() and not args.probe:
            self.stats.shed_reads += 1
            raise AppError(RETRY_LATER, self._pushback_info())
        load = self._load_by_hash
        if len(load) >= LOAD_WINDOW_HASHES and h not in load:
            load = self._restart_load_window()
        load[h] = load.get(h, 0) + 1
        self._on_worker(self._read_executed, args, ctx)
        return RpcTransport.DEFERRED

    def _read_executed(self, args: ReadArgs, ctx) -> None:
        """Linearizable read at the master.

        Reads *touch* their key (§3.2.3): returning an unsynced value
        would externalize state that might not survive a crash, so an
        unsynced key forces a sync first.  Exception (§A.3):
        ``allow_unsynced`` reads — preparation for a conditional update
        — skip the wait, because the commit's version check revalidates
        them; the version floor raised during recovery guarantees a
        lost value's version is never reissued.  One store probe
        answers both the unsynced check and the reply; a missing or
        deleted key reads as ``None`` at version 0, and a delete that is
        not yet durable holds the read like any unsynced write.
        """
        if ctx.gone():
            return
        try:
            self.stats.reads += 1
            key = args.key
            entry = self.store.lookup(key)
            if entry is None:
                value, version, entry = None, 0, self.store.tombstone(key)
            else:
                effects = entry.effects
                _key, value, version = (effects[0] if len(effects) == 1
                                        else entry.effect_on(key))
            position = 0 if entry is None else entry.index
            reply = (value, version) if args.return_version else value
            if args.allow_unsynced or position <= self.synced_position:
                ctx.reply(reply)
            else:
                # The worker is held through the sync, and the reply is
                # the state probed here: the newest when the read ran.
                self._request_sync(position).when_done(
                    self._read_after_sync, reply, ctx)
                return
        except Exception as error:  # noqa: BLE001 - serialize to caller
            ctx.reply_exception(error)
        self.workers.release()

    def _read_after_sync(self, event, reply, ctx) -> None:
        if ctx.gone():
            return
        try:
            if event.ok:
                ctx.reply(reply)
            else:
                ctx.reply_exception(event.exception)
        finally:
            self.workers.release()

    # ------------------------------------------------------------------
    # client slow path
    # ------------------------------------------------------------------
    def _handle_sync(self, rpc_id, ctx):
        """Client couldn't record on all witnesses: make its update
        durable — the log through that update's entry, answered at once
        if already durable, and ``UNKNOWN_RPC`` if this master does not
        hold it (``ResultRegistry.sync_target``)."""
        self._check_serviceable()
        self._request_sync(self.registry.sync_target(
            rpc_id, self.store.log.end)).when_done(self._sync_rpc_done, ctx)
        return RpcTransport.DEFERRED

    def _sync_rpc_done(self, event, ctx) -> None:
        if ctx.gone():
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
                yield from self._gc_witnesses(
                    self._take_durable_gc_pairs())
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

    def _gc_witnesses(self, pairs):
        """Generator, one gc round: drop durable requests from all
        witnesses (§3.5, §4.5) and handle the uncollected-garbage
        suspects they report back.  Unreachable witnesses are skipped
        (the coordinator replaces them out of band)."""
        witnesses = self.witnesses
        if not pairs or not witnesses:
            return
        self.stats.gc_rpcs += len(witnesses)
        self.stats.gc_pairs += len(pairs)
        self.stats.gc_flushes += 1
        results = yield gc_round(self.transport, witnesses, self.master_id,
                                 pairs, self.config.rpc_timeout)
        if any(results):  # a suspect, or a witness's error
            self.stats.stale_suspects_handled += retry_orphans(
                self.registry, results, self.synced_position,
                self._execute_orphan, lambda orphans: self.host.spawn(
                    self._gc_witnesses(orphans), name="orphan-gc"))

    def _execute_orphan(self, request: RecordedRequest) -> int:
        position = self._execute_and_log(request)
        if position:
            self._pending_gc.append((position, request.op.touched_hashes(),
                                     request.rpc_id))
            self._arm_flush_timer()
        return position

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
        with the full log before switching over.  One ``reset_log`` per
        newcomer; a failure fails the call, and the coordinator's
        bounded retry decides whether to try again.  A retry that comes
        while the reset is in flight (it can outlast ``rpc_timeout``)
        joins it."""
        new_backups = tuple(args)
        joined = self._backup_resets.get(new_backups)
        if joined is not None:
            joined.append(ctx)
            return RpcTransport.DEFERRED
        joined = self._backup_resets[new_backups] = []
        def work():
            fresh = [b for b in new_backups if b not in self.backups]
            entries = tuple(self.store.log.all_entries())
            storage = self.config.storage
            deadline = storage.bulk_deadline(
                self.config.rpc_timeout,
                len(entries) * storage.write_entry_time)
            # reset_log, not replicate: the newcomer may carry a stale
            # log from an earlier life.
            replicate = ReplicateArgs(master_id=self.master_id,
                                      epoch=self.epoch, entries=entries)
            try:
                for backup in fresh:
                    yield self.transport.call(backup, "reset_log",
                                              replicate, timeout=deadline)
            except RpcError as error:
                for waiter in joined:
                    waiter.reply_exception(error)
                raise
            finally:
                del self._backup_resets[new_backups]
            self.backups = list(new_backups)
            for waiter in joined:
                waiter.reply("OK")
            return "OK"
        return work()

    def _handle_migrate_out(self, args, ctx):
        """Final step of migration at the source: sync, stop owning
        [lo, hi) and return the log entries the destination's
        ``absorb_partition`` appends — each key's newest entry, a delete
        included (its version counter moves too), and the entry of
        every completion record this master still retains for the
        range, a completion-only one included (it names no key to place
        it by).  The coordinator already bumped the witness version
        (§3.6).  Its retry finds the range gone and gets the same
        entries: this master forgot them."""
        lo, hi = args
        def work():
            yield self._request_sync(self.store.log.end)
            if not in_ranges((lo,), self.owned_ranges):  # a retry
                return self._handed_over.get((lo, hi), ())
            self.owned_ranges = _subtract_range(self.owned_ranges, (lo, hi))
            handed = {entry.index: entry
                      for entry in self.store.newest_entries(lo, hi)}
            for record in self.registry.records():
                entry = self.store.log.entry(record.log_position)
                if not entry.effects or any(
                        lo <= key_hash(key) < hi
                        for key, _value, _version in entry.effects):
                    handed[entry.index] = entry
            entries = self._handed_over[lo, hi] = tuple(
                handed[index] for index in sorted(handed))
            return entries
        return work()

    def _handle_absorb_partition(self, args: AbsorbPartitionArgs, ctx):
        """Take over ``args.ranges`` from another master: a migration's
        source (§3.6) or a dead master's partition (RAMCloud's
        recovery-master role).

        Each handed entry, in log order, becomes one entry of this log
        — its in-range effects at their versions, its ``rpc_id`` and
        result — and the completion is recorded at that position, so
        it is as durable here as the data (§3.3).  Then take ownership,
        replay the witness-recovered requests through the RIFL filter,
        and sync to *this* master's backups before acking: the
        coordinator only cuts routing over on the ack.  Idempotent for
        coordinator retries: an effect the store already holds and an
        RpcId already logged here are not appended again.
        """
        self._check_serviceable()

        def work():
            entries = sorted(args.entries, key=lambda e: e.index)
            if self.config.storage.enabled and entries:
                # Replay CPU — the term that partitioning across k
                # recovery masters divides by k.
                yield self.sim.timeout(len(entries) * REPLAY_ENTRY_TIME)
            installed = 0
            for entry in entries:
                rpc_id = entry.rpc_id
                if rpc_id is not None and self.registry.check(
                        rpc_id)[0] is DuplicateState.COMPLETED:
                    rpc_id = None  # an earlier attempt logged it
                logged = self.store.install(
                    tuple(effect for effect in entry.effects
                          if in_ranges((key_hash(effect[0]),), args.ranges)),
                    rpc_id, entry.result, now=self.sim.now)
                if logged is None:
                    continue
                installed += len(logged.effects)
                if rpc_id is not None:
                    self.registry.record(rpc_id, entry.result,
                                         log_position=logged.index)
            # Anti-ABA (RAMCloud's safeVersion): speculative writes a
            # dead master lost consumed versions beyond what its
            # backups saw; never reissue them for absorbed keys (after
            # a migration the floor is merely higher than needed).
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
        """The §4.6 witness replay (``core.curp.replay``): execute each
        recorded request this master owns and has not already completed
        (migrated-away keys are the §3.6 replay filter); returns
        ``(replayed, filtered)``."""
        return replay(self.registry, requests, self._execute_and_log)

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
        per_tablet, hash_ops, total = self._fold_load_window()
        self.stats.load_reports += 1
        return LoadReport(master_id=self.master_id,
                          tablet_ops=tuple(per_tablet.items()),
                          hash_ops=tuple(sorted(hash_ops)),
                          window_ops=total)

    def _restart_load_window(self) -> dict[int, int]:
        """Fold a window that reached ``LOAD_WINDOW_HASHES`` distinct
        hashes unpulled, and return the fresh one."""
        self._fold_load_window()
        self.stats.load_window_restarts += 1
        return self._load_by_hash

    def _fold_load_window(self) -> tuple[dict, list, int]:
        """Close the current window: fold its per-tablet totals into
        ``stats.tablet_ops`` and start a fresh one.  Returns the
        window's per-tablet totals, its (unsorted) per-hash histogram
        and its op count."""
        window, self._load_by_hash = self._load_by_hash, {}
        per_tablet = {tablet: 0 for tablet in self.owned_ranges}
        hash_ops = []
        total = 0
        for key_hash_value, count in window.items():
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
        return per_tablet, hash_ops, total

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
    # crash
    # ------------------------------------------------------------------
    def _on_crash(self) -> None:
        """Masters are volatile: everything but the backups' logs and
        the witnesses' NVM dies with the process."""
        self.active = False
        waiters, self._sync_waiters = self._sync_waiters, []
        del waiters  # their continuations see ctx.gone()
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
