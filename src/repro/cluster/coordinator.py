"""The cluster configuration manager.

Owns everything the paper assigns to the "system configuration
manager" (§3.6): the tablet map, each master's backup and witness
lists, the monotonically increasing *WitnessListVersion* per master,
master epochs for zombie fencing (§4.7), and client leases (RIFL).

It both *builds* clusters (test/benchmark setup helpers that construct
master/backup/witness servers on hosts) and *operates* them at runtime
(crash recovery, witness replacement, backup replacement, migration) —
the runtime paths go through real RPCs so they exercise the same code a
wire implementation would.
"""

from __future__ import annotations

import dataclasses
import typing

from repro.core.config import CurpConfig
from repro.core.master import CurpMaster, FULL_RANGE
from repro.core.messages import (
    AbsorbPartitionArgs,
    ClusterView,
    GetRecoveryDataArgs,
    MasterInfo,
    SetRangesArgs,
    StartArgs,
)
from repro.core.recovery import (
    RecoveryFailed,
    build_recovery_master,
    plan_partitions,
    recover,
)
from repro.core.witness import WitnessEndpoint, WitnessServer
from repro.cluster.shard_map import ShardMap
from repro.kvstore.backup import BackupServer, PartitionReadArgs
from repro.rifl import LeaseServer
from repro.rpc import RpcError, RpcTransport, backoff_delay
from repro.sim.events import AllOf

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.net.host import Host
    from repro.net.network import Network


@dataclasses.dataclass
class ManagedMaster:
    """The coordinator's mutable record of one master."""

    master_id: str
    host: str
    backups: list[str]
    witnesses: list[str]
    witness_list_version: int
    epoch: int
    owned_ranges: list[tuple[int, int]]
    #: direct reference for test inspection (None after its host died)
    master: CurpMaster | None = None
    recovering: bool = False


class Coordinator:
    """Configuration manager for a CURP cluster."""

    def __init__(self, host: "Host", network: "Network", config: CurpConfig,
                 lease_duration: float = 10_000_000.0):
        self.host = host
        self.sim = host.sim
        self.network = network
        self.config = config
        self.lease_server = LeaseServer(host.sim, lease_duration=lease_duration)
        self.masters: dict[str, ManagedMaster] = {}
        self.backup_servers: dict[str, BackupServer] = {}
        self.witness_servers: dict[str, WitnessServer] = {}
        #: multi-tenant witness endpoints by host name: one host serving
        #: several masters' witness sets (``add_witness_endpoint``)
        self.witness_endpoints: dict[str, WitnessEndpoint] = {}
        #: spare hosts used to restore the replication factor when a
        #: backup dies during/before a master recovery
        self.backup_spares: list["Host"] = []
        self.config_version = 0
        #: lazily rebuilt routing snapshot; invalidated by version bumps
        self._shard_map: ShardMap | None = None
        self.transport = RpcTransport(host)
        self.transport.register("register_client", self._handle_register_client)
        self.transport.register("renew_lease", self._handle_renew_lease)
        self.transport.register("get_config", self._handle_get_config)

    # ------------------------------------------------------------------
    # client-facing RPCs
    # ------------------------------------------------------------------
    def _handle_register_client(self, args, ctx):
        return self.lease_server.register_client()

    def _handle_renew_lease(self, args, ctx):
        return self.lease_server.renew(args)

    def _handle_get_config(self, args, ctx):
        return self.current_view()

    @property
    def shard_map(self) -> ShardMap:
        """The routing snapshot for the current configuration version."""
        if (self._shard_map is None
                or self._shard_map.version != self.config_version):
            tablets = [(lo, hi, managed.master_id)
                       for managed in self.masters.values()
                       for lo, hi in managed.owned_ranges]
            self._shard_map = ShardMap.from_tablets(
                tablets, version=self.config_version)
        return self._shard_map

    def current_view(self) -> ClusterView:
        tablets = []
        masters = {}
        for managed in self.masters.values():
            for lo, hi in managed.owned_ranges:
                tablets.append((lo, hi, managed.master_id))
            masters[managed.master_id] = MasterInfo(
                master_id=managed.master_id, host=managed.host,
                backups=tuple(managed.backups),
                witnesses=tuple(managed.witnesses),
                witness_list_version=managed.witness_list_version,
                epoch=managed.epoch)
        return ClusterView(tablets=tuple(tablets), masters=masters,
                           version=self.config_version,
                           shard_map=self.shard_map)

    # ------------------------------------------------------------------
    # cluster building (setup-time, direct construction)
    # ------------------------------------------------------------------
    def create_master(self, master_id: str, master_host: "Host",
                      backup_hosts: typing.Sequence["Host"] = (),
                      witness_hosts: typing.Sequence["Host"] = (),
                      owned_ranges: typing.Sequence[tuple[int, int]] = FULL_RANGE,
                      backup_process_time: float = 0.0,
                      witness_record_time: float = 0.0,
                      **master_kwargs) -> CurpMaster:
        """Build a master with its backups and witnesses."""
        if master_id in self.masters:
            raise ValueError(f"duplicate master id {master_id}")
        if self.config.uses_backups and len(backup_hosts) != self.config.f:
            raise ValueError(f"mode {self.config.mode} with f={self.config.f} "
                             f"requires {self.config.f} backups, got "
                             f"{len(backup_hosts)}")
        witness_hosts = witness_hosts if self.config.uses_witnesses else ()
        transports = {}
        for backup_host in backup_hosts:
            server = BackupServer(backup_host, master_id=master_id,
                                  process_time=backup_process_time,
                                  storage=self.config.storage)
            self.backup_servers[backup_host.name] = server
            transports[backup_host.name] = server.transport
        for witness_host in witness_hosts:
            endpoint = self.witness_endpoints.get(witness_host.name)
            if endpoint is not None:
                # Multi-tenant endpoint: this master becomes one more
                # tenant behind the host's existing rx handler.
                endpoint.serve(master_id, tuple(owned_ranges))
                continue
            server = self.witness_servers.get(witness_host.name)
            if server is None:
                # A witness colocated with a backup (Figure 2) shares
                # the host's RPC endpoint; method names are disjoint.
                server = WitnessServer(
                    witness_host,
                    stale_threshold=self.config.gc_stale_threshold,
                    record_time=witness_record_time,
                    transport=transports.get(witness_host.name))
                self.witness_servers[witness_host.name] = server
            server.start_for(master_id, tuple(owned_ranges))
        master = CurpMaster(
            master_host, master_id, self.config,
            backups=[h.name for h in backup_hosts],
            witnesses=[h.name for h in witness_hosts],
            witness_list_version=0, epoch=0,
            lease_server=None,  # masters check leases via expiry RPCs in
                                # tests; wired explicitly where needed
            owned_ranges=owned_ranges, **master_kwargs)
        self.masters[master_id] = ManagedMaster(
            master_id=master_id, host=master_host.name,
            backups=[h.name for h in backup_hosts],
            witnesses=[h.name for h in witness_hosts],
            witness_list_version=0, epoch=0,
            owned_ranges=list(owned_ranges), master=master)
        self.config_version += 1
        return master

    def add_witness_host(self, witness_host: "Host",
                         record_time: float = 0.0) -> WitnessServer:
        """Register a standby witness server (for replacements)."""
        if witness_host.name in self.witness_endpoints:
            # Symmetric to the add_witness_endpoint guard: a new
            # WitnessServer would steal the host's message handler and
            # orphan every tenant behind the endpoint.
            raise ValueError(f"{witness_host.name} already hosts a "
                             f"multi-tenant witness endpoint")
        server = WitnessServer(
            witness_host, stale_threshold=self.config.gc_stale_threshold,
            record_time=record_time)
        self.witness_servers[witness_host.name] = server
        return server

    def add_witness_endpoint(self, witness_host: "Host",
                             record_time: float = 0.0) -> WitnessEndpoint:
        """Register a multi-tenant witness endpoint on ``witness_host``.

        Masters subsequently created (or recovered) with this host in
        their witness list are served as tenants of the one endpoint —
        the shared-host deployment that lets f witness hosts serve an
        entire multi-shard cluster.
        """
        if witness_host.name in self.witness_servers:
            raise ValueError(f"{witness_host.name} already hosts a "
                             f"single-tenant witness")
        overload = self.config.overload
        endpoint = WitnessEndpoint(
            witness_host, stale_threshold=self.config.gc_stale_threshold,
            record_time=record_time,
            # Per-tenant fair admission rides the overload defenses:
            # off (window_records=0) unless config.overload enables it.
            window_records=(overload.witness_window_records
                            if overload.enabled else 0))
        self.witness_endpoints[witness_host.name] = endpoint
        return endpoint

    # ------------------------------------------------------------------
    # master crash recovery (§3.3, §4.6)
    # ------------------------------------------------------------------
    def recover_master(self, master_id: str, new_host: "Host",
                       rpc_timeout: float = 2_000.0):
        """Generator: full recovery of a crashed master onto new_host."""
        managed = self.masters[master_id]
        if managed.recovering:
            raise RecoveryFailed(f"{master_id} already recovering")
        managed.recovering = True
        try:
            # 1. Fence: no zombie sync may complete from here on (§4.7).
            reachable = yield from self._fence_backups(managed, rpc_timeout)
            # 2+3. Restore from a backup, replay from a witness.  The
            # new master starts with the reachable backups; dead ones
            # are replaced from spares below.
            new_master = build_recovery_master(
                new_host, master_id, self.config, reachable,
                epoch=managed.epoch, owned_ranges=managed.owned_ranges)
            stats = yield from recover(new_master, reachable,
                                       managed.witnesses,
                                       rpc_timeout=rpc_timeout)
            managed.backups = list(reachable)
            # 4. Fresh witnesses (reset on the same hosts), new version.
            # Unreachable witness hosts are dropped from the list (the
            # clients then use the remaining ones; replace_witness
            # restores full strength later).  An empty list is safe:
            # clients fall back to the 2-RTT sync path.
            started_ranges = tuple(managed.owned_ranges)
            if self.config.uses_witnesses:
                live_witnesses = []
                for witness in managed.witnesses:
                    try:
                        yield self.transport.call(
                            witness, "start",
                            StartArgs(master_id=master_id,
                                      owned_ranges=started_ranges),
                            timeout=rpc_timeout)
                        live_witnesses.append(witness)
                    except RpcError:
                        continue
                managed.witnesses = live_witnesses
                managed.witness_list_version += 1
            new_master.witnesses = list(managed.witnesses)
            new_master.witness_list_version = managed.witness_list_version
            # 5. Go live.  Re-read the tablet bookkeeping first: a
            # migration that completed *during* this recovery already
            # moved ranges, and an activation with the stale pre-crash
            # list would let this master accept keys another master now
            # owns (split brain for stale-map clients).  If the ranges
            # did move since the witnesses were started, re-assert the
            # fresh snapshot on them too — they were started with
            # ``started_ranges`` and would otherwise filter records
            # against stale ownership forever.
            new_master.owned_ranges = list(managed.owned_ranges)
            new_master.active = True
            if (self.config.uses_witnesses
                    and tuple(managed.owned_ranges) != started_ranges):
                yield from self._set_witness_ranges(
                    managed.witnesses, master_id,
                    tuple(managed.owned_ranges), rpc_timeout,
                    best_effort=True)
            old_host = managed.host
            managed.host = new_host.name
            managed.master = new_master
            self.config_version += 1
            # Best-effort depose notice to the replaced host: fencing
            # already blocks its syncs, but a zombie that cannot reach
            # its backups (one-way partition) never learns it was
            # fenced and would shed clients with retryable pushback
            # forever.  Fire-and-forget — dead hosts just time out.
            if old_host != new_host.name:
                self.host.spawn(
                    self._depose_zombie(old_host, managed.epoch,
                                        rpc_timeout),
                    name=f"depose-{old_host}")
            # 6. Restore the replication factor from spares, if any died.
            missing = self.config.f - len(managed.backups)
            while missing > 0 and self.backup_spares:
                spare = self.backup_spares.pop(0)
                server = BackupServer(spare, master_id=master_id,
                                      storage=self.config.storage)
                server.min_epoch = managed.epoch
                self.backup_servers[spare.name] = server
                new_list = managed.backups + [spare.name]
                yield from self._call_until_ok(
                    managed.host, "update_backup_config", tuple(new_list),
                    rpc_timeout)
                managed.backups = new_list
                missing -= 1
            return stats
        finally:
            managed.recovering = False

    def _fence_backups(self, managed: ManagedMaster, rpc_timeout: float):
        """Generator: bump ``managed``'s epoch and fence its backups
        (§4.7); returns the ones that acked.  A sync needs *all* f
        backups to ack, so fencing any one live backup suffices; dead
        backups cannot ack either.  (BackupServer.min_epoch is durable,
        so a fenced backup stays fenced across restarts.)"""
        managed.epoch += 1
        reachable = []
        for backup in managed.backups:
            try:
                yield self.transport.call(backup, "fence", managed.epoch,
                                          timeout=rpc_timeout)
                reachable.append(backup)
            except RpcError:
                continue
        if not reachable:
            raise RecoveryFailed(
                f"could not fence any backup of {managed.master_id}")
        return reachable

    def _depose_zombie(self, old_host: str, epoch: int,
                       rpc_timeout: float):
        try:
            yield self.transport.call(old_host, "depose", epoch,
                                      timeout=rpc_timeout)
        except RpcError:
            pass  # dead, unreachable, or already deposed — all fine

    # ------------------------------------------------------------------
    # partitioned fast recovery (RAMCloud-style, docs/STORAGE.md)
    # ------------------------------------------------------------------
    def recover_master_partitioned(self, master_id: str,
                                   recovery_masters: typing.Sequence[str],
                                   rpc_timeout: float = 2_000.0):
        """Generator: recover a crashed master by partitioning its
        tablets across ``recovery_masters`` (surviving masters).

        The scalable half of the recovery story: the dead master's hash
        span is cut into one partition per recovery master (partitions
        spanned by a single witnessed multi-key request are merged),
        every reachable backup scans its *stripe* of the log exactly
        once — bucketing entries for all partitions in one pass, the
        reply gated by its virtual disk — and the recovery masters
        absorb their partitions in parallel: install, RIFL-filtered
        witness replay, re-replication to their own backups.  Recovery
        time therefore scales with backups × recovery masters, not
        with the dead master's data volume on one machine.

        Bookkeeping cuts over per partition as each absorb acks, so a
        mid-flight failure leaves the recovered partitions routable and
        the remainder still owned by the dead master's (retryable)
        entry.  When everything drains, the dead master is removed from
        the map and its witnesses are decommissioned.  Returns a dict
        of recovery statistics.
        """
        managed = self.masters[master_id]
        if managed.recovering:
            raise RecoveryFailed(f"{master_id} already recovering")
        if not recovery_masters:
            raise ValueError("need at least one recovery master")
        if len(set(recovery_masters)) != len(recovery_masters):
            raise ValueError("duplicate recovery master ids")
        targets = []
        for recovery_id in recovery_masters:
            if recovery_id == master_id:
                raise ValueError("cannot recover a master onto itself")
            targets.append(self.masters[recovery_id])
        managed.recovering = True
        try:
            # 1. Fence (§4.7), exactly as recover_master does.
            reachable = yield from self._fence_backups(managed, rpc_timeout)
            # 2. Witness harvest (freezes the chosen witness, §4.6).
            requests = None
            for witness in managed.witnesses:
                try:
                    requests = yield self.transport.call(
                        witness, "get_recovery_data",
                        GetRecoveryDataArgs(master_id=master_id),
                        timeout=rpc_timeout)
                    break
                except RpcError:
                    continue
            if requests is None and managed.witnesses:
                raise RecoveryFailed(f"no witness reachable among "
                                     f"{list(managed.witnesses)}")
            requests = tuple(requests or ())
            # 3. Log extent from one backup's segment index.
            index = None
            for backup in reachable:
                try:
                    index = yield self.transport.call(
                        backup, "get_segment_index", None,
                        timeout=rpc_timeout)
                    break
                except RpcError:
                    continue
            if index is None:
                raise RecoveryFailed("no backup reachable for the "
                                     "segment index")
            log_end = max((info.last_index for info in index), default=0)
            log_entries = sum(info.entry_count for info in index)
            # 4. Plan the partitions and read the stripes.
            partitions = plan_partitions(managed.owned_ranges,
                                         len(targets), requests)
            entry_buckets = yield from self._read_stripes(
                reachable, log_end, log_entries, partitions, rpc_timeout)
            # 5. Absorb in parallel; bookkeeping cuts over per
            # partition as each ack lands.
            outcomes: dict[int, typing.Any] = {}
            absorbers = []
            for i, partition in enumerate(partitions):
                absorbers.append(self.sim.process(self._absorb_partition(
                    managed, targets[i], partition, entry_buckets[i],
                    rpc_timeout, outcomes, i)))
            if absorbers:
                yield AllOf(self.sim, absorbers)
            failures = [error for error in outcomes.values()
                        if isinstance(error, Exception)]
            if failures:
                raise RecoveryFailed(
                    f"{len(failures)}/{len(partitions)} partitions failed "
                    f"to absorb: {failures[0]!r}")
            # 6. Fully drained: decommission the dead master's frozen
            # witnesses (best effort) and drop it from the map.
            for witness in managed.witnesses:
                try:
                    yield self.transport.call(
                        witness, "end",
                        GetRecoveryDataArgs(master_id=master_id),
                        timeout=rpc_timeout)
                except RpcError:
                    continue
            del self.masters[master_id]
            self.config_version += 1
            return {
                "partitions": len(partitions),
                "recovery_masters": [t.master_id
                                     for t in targets[:len(partitions)]],
                "log_end": log_end,
                "witness_requests": len(requests),
                "absorbed": {targets[i].master_id: stats
                             for i, stats in outcomes.items()},
            }
        finally:
            if master_id in self.masters:
                managed.recovering = False

    def _recovery_read_deadline(self, est_entries: int,
                                rpc_timeout: float) -> float:
        """Deadline for one recovery stripe read, derived from the
        backup's modeled disk service time (docs/STORAGE.md caveat).

        A stripe reply is gated on the disk draining the scan; with a
        slow ``read_entry_time`` that can exceed a fixed ``rpc_timeout``
        and the retry then *re-charges* the disk — each retry queues
        behind the previous scan and times out even harder (a retry
        storm that reads every stripe many times over).  So the
        deadline budgets the worst-case scan — every log entry, since
        a stripe may overlap all segments — doubled for disk time the
        scan queues behind (appends, the cleaner, a retried sibling
        stripe), floored at ``rpc_timeout`` for the pure network
        round-trip.  Purely a timeout bound: no extra rng, no effect
        when storage is disabled."""
        storage = self.config.storage
        if not storage.enabled or est_entries <= 0:
            return rpc_timeout
        return rpc_timeout + 2.0 * est_entries * storage.read_entry_time

    def _read_stripes(self, reachable: list[str], log_end: int,
                      log_entries: int, partitions, rpc_timeout: float):
        """Generator: read the dead master's log once across the
        backup set — each backup scans one index stripe, bucketing for
        every partition — retrying failed stripes on surviving backups.
        Returns one merged entry list per partition."""
        buckets: list[list] = [[] for _ in partitions]
        if log_end == 0 or not partitions:
            return buckets
        read_deadline = self._recovery_read_deadline(log_entries,
                                                     rpc_timeout)
        ranges = tuple(p.ranges for p in partitions)
        pool = list(reachable)
        count = len(pool)
        bounds = [1 + (log_end * i) // count for i in range(count)]
        bounds.append(log_end + 1)
        pending = [(bounds[i], bounds[i + 1]) for i in range(count)
                   if bounds[i] < bounds[i + 1]]
        while pending:
            if not pool:
                raise RecoveryFailed(
                    "every backup failed during partitioned stripe reads")
            outcomes: dict[tuple[int, int], typing.Any] = {}
            readers = []
            assignment = {}
            for i, window in enumerate(pending):
                backup = pool[i % len(pool)]
                assignment[window] = backup
                readers.append(self.sim.process(self._read_one_stripe(
                    backup, window, ranges, read_deadline, outcomes)))
            yield AllOf(self.sim, readers)
            failed = []
            dead = set()
            for window, backup in assignment.items():
                reply = outcomes.get(window)
                if reply is None:
                    failed.append(window)
                    dead.add(backup)
                    continue
                for bucket, stripe_entries in zip(buckets, reply):
                    bucket.extend(stripe_entries)
            pool = [b for b in pool if b not in dead]
            pending = failed
        return buckets

    def _read_one_stripe(self, backup: str, window: tuple[int, int],
                         ranges, deadline: float, outcomes: dict):
        """Process body: one stripe read; failure leaves no outcome."""
        try:
            outcomes[window] = yield self.transport.call(
                backup, "read_partitions",
                PartitionReadArgs(index_lo=window[0], index_hi=window[1],
                                  partitions=ranges),
                timeout=deadline)
        except RpcError:
            pass

    def _absorb_partition(self, managed: ManagedMaster,
                          target: ManagedMaster, partition, entries,
                          rpc_timeout: float, outcomes: dict, i: int):
        """Process body: recover one partition onto ``target``.

        The target's witnesses are widened *before* the absorb (as in
        migration: an early record for the new ranges is harmless, a
        rejected one after cutover would break the 1-RTT path), and the
        coordinator's tablet bookkeeping moves only after the absorb
        acks — the ack means the partition is installed, replayed, and
        re-replicated on the target's own backups.
        """
        try:
            if self.config.uses_witnesses:
                yield from self._set_witness_ranges(
                    target.witnesses, target.master_id,
                    tuple(target.owned_ranges) + tuple(partition.ranges),
                    rpc_timeout)
            stats = yield from self._call_until_ok(
                lambda: target.host, "absorb_partition",
                AbsorbPartitionArgs(
                    dead_master_id=managed.master_id, epoch=managed.epoch,
                    ranges=tuple(partition.ranges),
                    entries=tuple(entries),
                    requests=tuple(partition.requests)),
                rpc_timeout)
            for cut in partition.ranges:
                managed.owned_ranges = _subtract(managed.owned_ranges, cut)
                if cut not in target.owned_ranges:
                    target.owned_ranges.append(cut)
            self.config_version += 1
            if self.config.uses_witnesses:
                # Heal any witness that restarted (losing the widening)
                # while the absorb was in flight.
                yield from self._set_witness_ranges(
                    target.witnesses, target.master_id,
                    tuple(target.owned_ranges), rpc_timeout,
                    best_effort=True)
            outcomes[i] = stats
        except Exception as error:  # noqa: BLE001 - collected, reraised
            # by the caller as RecoveryFailed with the partition kept
            # on the dead master's (retryable) bookkeeping
            outcomes[i] = error

    # ------------------------------------------------------------------
    # witness replacement (§3.6)
    # ------------------------------------------------------------------
    def replace_witness(self, master_id: str, dead_witness: str,
                        new_witness_host: "Host",
                        rpc_timeout: float = 2_000.0):
        """Generator: decommission a crashed witness, install a fresh one.

        Order per §3.6: start the new witness, tell the master (which
        syncs to backups before acknowledging — that sync makes durable
        everything whose only record was on the dead witness), and only
        then publish the new list+version to clients.
        """
        managed = self.masters[master_id]
        if dead_witness not in managed.witnesses:
            raise ValueError(f"{dead_witness} is not a witness of {master_id}")
        if new_witness_host.name not in self.witness_servers:
            self.add_witness_host(new_witness_host)
        yield from self._call_until_ok(
            new_witness_host.name, "start",
            StartArgs(master_id=master_id,
                      owned_ranges=tuple(managed.owned_ranges)),
            rpc_timeout)
        new_list = [new_witness_host.name if w == dead_witness else w
                    for w in managed.witnesses]
        new_version = managed.witness_list_version + 1
        yield from self._call_until_ok(
            managed.host, "update_witness_config", (tuple(new_list), new_version),
            rpc_timeout)
        managed.witnesses = new_list
        managed.witness_list_version = new_version
        self.config_version += 1
        return new_list

    # ------------------------------------------------------------------
    # backup replacement (§3.6: unchanged from standard primary-backup)
    # ------------------------------------------------------------------
    def replace_backup(self, master_id: str, dead_backup: str,
                       new_backup_host: "Host",
                       rpc_timeout: float = 2_000.0):
        managed = self.masters[master_id]
        if dead_backup not in managed.backups:
            raise ValueError(f"{dead_backup} is not a backup of {master_id}")
        server = BackupServer(new_backup_host, master_id=master_id,
                              storage=self.config.storage)
        server.min_epoch = 0
        self.backup_servers[new_backup_host.name] = server
        new_list = [new_backup_host.name if b == dead_backup else b
                    for b in managed.backups]
        yield from self._call_until_ok(
            managed.host, "update_backup_config", tuple(new_list), rpc_timeout)
        managed.backups = new_list
        self.config_version += 1
        return new_list

    # ------------------------------------------------------------------
    # data migration (§3.6)
    # ------------------------------------------------------------------
    def migrate(self, src_master_id: str, dst_master_id: str,
                lo: int, hi: int, rpc_timeout: float = 2_000.0):
        """Generator: move key-hash range [lo, hi) between masters.

        Per §3.6 the source syncs before the final step; stale records
        for migrated keys are filtered during any later replay by the
        ownership check.  The source's witnesses keep their caches
        through the move — clearing them in place (the old protocol)
        opened a crash window where a speculative update acknowledged
        just before the clear lost its only trace — and only their
        *version* advances, forcing stale clients through the refresh
        path.  After cutover the witnesses on both sides learn the new
        ownership (``set_ranges``): the destination's accept the
        migrated range, the source's reject new records for keys that
        left and evict the old ones — safe, because ``migrate_out``
        synced the source, so every completed update in the range is
        already durable.

        Master-addressed steps re-resolve ``managed.host`` per attempt,
        so a source that crashes mid-migration and recovers onto a new
        host lets the retry loop converge instead of hammering the dead
        address until :class:`RecoveryFailed`.
        """
        src = self.masters[src_master_id]
        dst = self.masters[dst_master_id]
        # An abort anywhere before cutover rolls back (best effort —
        # stale-suspect aging reclaims whatever a crashed witness
        # misses, and a crashed source recovers with the coordinator's
        # unsubtracted bookkeeping): the destination's witnesses are
        # narrowed back, and if the source already executed
        # migrate_out, the range is handed straight back to it so
        # [lo, hi) can never end up owned by nobody.
        objects = None
        try:
            # Widen the destination's witnesses *first*: a record for
            # the migrating range arriving there early is harmless (the
            # dst master still answers WRONG_SHARD until cutover, so
            # nothing can complete through it), but rejecting records
            # after cutover because the witnesses lag would break the
            # 1-RTT path.
            if self.config.uses_witnesses:
                yield from self._set_witness_ranges(
                    dst.witnesses, dst_master_id,
                    tuple(dst.owned_ranges) + ((lo, hi),), rpc_timeout)
            # Bump the source's witness-list version (same list, caches
            # intact, witnesses_reset=False keeps the master's gc
            # bookkeeping); the master syncs before acknowledging.
            if self.config.uses_witnesses:
                new_version = src.witness_list_version + 1
                yield from self._call_until_ok(
                    lambda: src.host, "update_witness_config",
                    (tuple(src.witnesses), new_version, False), rpc_timeout)
                src.witness_list_version = new_version
            else:
                yield from self._call_until_ok(lambda: src.host, "sync",
                                               None, rpc_timeout)
            # Final step: stop service on the range, move the objects.
            objects = yield from self._call_until_ok(
                lambda: src.host, "migrate_out", (lo, hi), rpc_timeout)
            yield from self._call_until_ok(
                lambda: dst.host, "migrate_in", (lo, hi, objects),
                rpc_timeout)
        except Exception:
            if objects is not None:
                # migrate_out succeeded but the handover failed: the
                # source subtracted the range from its own ownership,
                # and with the coordinator's map still routing there,
                # clients would WRONG_SHARD-loop forever.  Re-own it on
                # the source (idempotent migrate_in; the source still
                # holds the objects), after asking a half-reached
                # destination to relinquish any partial application.
                try:
                    yield from self._call_until_ok(
                        lambda: dst.host, "migrate_out", (lo, hi),
                        rpc_timeout, max_attempts=2)
                except RecoveryFailed:
                    pass  # unreachable dst — nothing applied to undo
                try:
                    yield from self._call_until_ok(
                        lambda: src.host, "migrate_in", (lo, hi, objects),
                        rpc_timeout, max_attempts=5)
                except RecoveryFailed:
                    pass  # source down too: recovery re-owns it anyway
            if self.config.uses_witnesses:
                yield from self._set_witness_ranges(
                    dst.witnesses, dst_master_id,
                    tuple(dst.owned_ranges), rpc_timeout, best_effort=True)
            raise
        src.owned_ranges = _subtract(src.owned_ranges, (lo, hi))
        if (lo, hi) not in dst.owned_ranges:
            dst.owned_ranges.append((lo, hi))
        self.config_version += 1
        # Cutover done: shrink the source's witnesses to the new
        # ownership, evicting stragglers recorded for migrated keys
        # (safe: migrate_out synced the source, so every completed
        # update in the range is durable) — and re-assert the
        # destination's, healing any witness that restarted (and lost
        # the pre-cutover widening) while the move was in flight.
        if self.config.uses_witnesses:
            yield from self._set_witness_ranges(
                src.witnesses, src_master_id, tuple(src.owned_ranges),
                rpc_timeout)
            yield from self._set_witness_ranges(
                dst.witnesses, dst_master_id, tuple(dst.owned_ranges),
                rpc_timeout)
        return len(objects)

    def _set_witness_ranges(self, witnesses, master_id: str,
                            owned_ranges: tuple[tuple[int, int], ...],
                            rpc_timeout: float,
                            best_effort: bool = False):
        """Generator: push an ownership snapshot to a witness list.
        ``best_effort`` tries each witness once and swallows failures
        (abort paths must not mask the original error)."""
        args = SetRangesArgs(master_id=master_id, owned_ranges=owned_ranges)
        for witness in witnesses:
            if best_effort:
                try:
                    yield self.transport.call(witness, "set_ranges", args,
                                              timeout=rpc_timeout)
                except RpcError:
                    continue
            else:
                yield from self._call_until_ok(witness, "set_ranges", args,
                                               rpc_timeout)

    # ------------------------------------------------------------------
    # tablet splitting / merging (rebalancer bookkeeping)
    # ------------------------------------------------------------------
    def split_tablet(self, master_id: str, lo: int, hi: int, split: int,
                     rpc_timeout: float = 2_000.0):
        """Generator: split owned tablet [lo, hi) at ``split``.

        Pure bookkeeping — ownership of every hash is unchanged, no
        data moves, witnesses keep their ranges.  The split creates the
        tablet boundary a subsequent :meth:`migrate` moves."""
        managed = self.masters[master_id]
        if (lo, hi) not in managed.owned_ranges:
            raise ValueError(f"{master_id} does not own tablet "
                             f"[{lo}, {hi})")
        if not lo < split < hi:
            raise ValueError(f"split {split} outside ({lo}, {hi})")
        yield from self._call_until_ok(
            lambda: managed.host, "split_range", (lo, hi, split),
            rpc_timeout)
        index = managed.owned_ranges.index((lo, hi))
        managed.owned_ranges[index:index + 1] = [(lo, split), (split, hi)]
        self.config_version += 1
        return (lo, split), (split, hi)

    def merge_tablets(self, master_id: str, rpc_timeout: float = 2_000.0):
        """Generator: coalesce a master's adjacent owned tablets (the
        inverse bookkeeping of split: long split/migrate histories must
        not grow the tablet map without bound).  The map version only
        moves when something actually coalesced."""
        managed = self.masters[master_id]
        before = sorted(managed.owned_ranges)
        merged = yield from self._call_until_ok(
            lambda: managed.host, "merge_ranges", None, rpc_timeout)
        managed.owned_ranges = [tuple(r) for r in merged]
        if managed.owned_ranges != before:
            self.config_version += 1
        return tuple(managed.owned_ranges)

    # ------------------------------------------------------------------
    def _call_until_ok(self, dst, method: str, args,
                       rpc_timeout: float, max_attempts: int = 20):
        """``dst`` may be a host name or a zero-arg callable re-resolved
        per attempt (a master that recovers onto a new host mid-retry
        lets the loop converge on the new address).  Retries back off
        exponentially (base rpc_timeout/8, capped at 2×rpc_timeout)
        with jitter, so several coordinator retry loops aimed at one
        recovering host spread out instead of synchronizing."""
        last: Exception | None = None
        for attempt in range(max_attempts):
            target = dst() if callable(dst) else dst
            try:
                value = yield self.transport.call(target, method, args,
                                                  timeout=rpc_timeout)
                return value
            except RpcError as error:
                last = error
                yield self.sim.timeout(backoff_delay(
                    attempt, rpc_timeout / 8, rpc_timeout * 2,
                    self.sim.rng))
        raise RecoveryFailed(f"{method} to {target} kept failing: {last!r}")


def _subtract(ranges: list[tuple[int, int]],
              cut: tuple[int, int]) -> list[tuple[int, int]]:
    from repro.core.master import _subtract_range
    return _subtract_range(ranges, cut)
