"""Witnesses (Figure 4 API).

A witness lives for one master at a time.  Life cycle:

- ``start(masterId)`` (coordinator): begin a fresh *normal-mode* life.
- ``record`` (clients): save commutative requests; REJECTED on
  conflict, capacity, unknown master or recovery mode.
- ``gc`` (master): drop synced requests; report stale suspects.
- ``getRecoveryData`` (recovery master): irreversibly freeze into
  *recovery mode* and return saved requests (§4.1, §4.6).
- ``end`` (coordinator): decommission.

Plus ``probe`` for the consistent-backup-read protocol of §A.1.

Witness storage is non-volatile (§3.2.2: flash-backed DRAM): it
survives host crash + restart.  While the host is down, clients'
record RPCs time out and they fall back to the 2-RTT sync path —
availability degrades, consistency never does.

Every witness host runs one :class:`WitnessEndpoint`, the only holder
of the witness RPC handlers.  It routes each RPC by the ``master_id``
it carries to that master's :class:`WitnessServer` (own cache, mode,
ranges and counters).  A dedicated host is an endpoint with one
tenant, a host colocated with a backup (Figure 2) shares the backup's
transport, and a shared host serves several masters.  A Raft replica
(``consensus``) holds one :class:`WitnessServer` behind its term fence.
"""

from __future__ import annotations

import typing

from repro.core.messages import (
    GcArgs,
    GetRecoveryDataArgs,
    ProbeArgs,
    PROBE_COMMUTE,
    PROBE_CONFLICT,
    RECORD_ACCEPTED,
    RECORD_REJECTED,
    RecordArgs,
    SetRangesArgs,
    StartArgs,
)
from repro.core.witness_cache import WitnessCache
from repro.kvstore.hashing import in_ranges
from repro.rpc import AppError, RpcTransport

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.net.host import Host


MODE_UNCONFIGURED = "unconfigured"
MODE_NORMAL = "normal"
MODE_RECOVERY = "recovery"


class WitnessServer:
    """One master's witness on a host: its cache, mode, owned ranges
    and counters.  Built only by :meth:`WitnessEndpoint.serve`, which
    routes the master's RPCs here."""

    def __init__(self, master_id: str, slots: int, associativity: int,
                 suspect_after: float):
        self.master_id = master_id
        self.mode = MODE_NORMAL
        #: the served master's owned key-hash ranges, when known: records
        #: for hashes outside them are rejected (a stale-routed client
        #: racing a migration, §3.6).  None = accept any hash.
        self.owned_ranges: tuple[tuple[int, int], ...] | None = None
        #: records evicted because their key hash left the master's
        #: ownership (set_ranges at migration cutover)
        self.records_evicted = 0
        self.cache = WitnessCache(slots=slots, associativity=associativity,
                                  suspect_after=suspect_after)
        self.records_processed = 0
        self.gcs_processed = 0
        #: record RPCs the host's fair admission let through / turned
        #: away; counted only while fairness is on (config.overload)
        self.records_admitted = 0
        self.records_throttled = 0

    def record(self, args: RecordArgs, now: float) -> str:
        self.records_processed += 1
        if self.mode != MODE_NORMAL:
            # Frozen for recovery: the client cannot complete in 1 RTT
            # through this witness.
            return RECORD_REJECTED
        ranges = self.owned_ranges
        if ranges is not None and not in_ranges(args.key_hashes, ranges):
            # The key migrated away from this witness's master: the op
            # can never complete here, and an accepted record would pin
            # a slot the owning master's gc cycle can no longer reach.
            return RECORD_REJECTED
        accepted = self.cache.record(args.key_hashes, args.rpc_id,
                                     args.request, now)
        return RECORD_ACCEPTED if accepted else RECORD_REJECTED

    def probe(self, key_hashes: typing.Sequence[int]) -> str:
        """§A.1: COMMUTE means a backup's value for these keys is fresh.
        Conservative in recovery mode: CONFLICT pushes the reader to the
        master."""
        if self.mode == MODE_NORMAL and self.cache.commutes_with(key_hashes):
            return PROBE_COMMUTE
        return PROBE_CONFLICT

    def gc(self, pairs) -> tuple:
        self._require_normal()
        self.gcs_processed += 1
        return tuple(self.cache.gc_batch(pairs))

    def recovery_data(self) -> tuple:
        # Irreversible (§4.1): even a duplicate getRecoveryData keeps the
        # witness frozen; record RPCs are rejected from now on.
        self.mode = MODE_RECOVERY
        return tuple(self.cache.all_requests())

    def start(self, owned_ranges: typing.Sequence[tuple[int, int]] | None
              ) -> None:
        """Begin a fresh normal-mode life (§3.6)."""
        self.mode = MODE_NORMAL
        self.owned_ranges = (None if owned_ranges is None
                             else tuple(owned_ranges))
        self.cache.clear()

    def set_ranges(self,
                   owned_ranges: typing.Sequence[tuple[int, int]]) -> int:
        """Adopt the master's post-reconfiguration ownership (§3.6
        migration cutover / tablet split) *without* clearing the cache.

        Records whose key hash left the ranges are evicted: the
        migration synced the source before cutover, so every completed
        update among them is already durable, and nothing that can
        still complete is lost.  Returns the eviction count."""
        self._require_normal()
        self.owned_ranges = tuple(owned_ranges)
        dropped = self.cache.drop_outside(self.owned_ranges)
        self.records_evicted += dropped
        return dropped

    def _require_normal(self) -> None:
        if self.mode != MODE_NORMAL:
            raise AppError("WRONG_WITNESS_STATE", {"mode": self.mode})


class WitnessEndpoint:
    """A witness host: the witness RPC handlers, routed by master id.

    Each served master gets a :class:`WitnessServer` *tenant* with its
    own cache and life cycle (start / recovery freeze / end apply per
    tenant — a recovering master must not disturb its neighbours).
    Capacity is per tenant, matching the paper's per-master witness
    sizing (§4.2).  The host itself keeps only the routing table, the
    CPU cost of a record and the fair-admission window.
    """

    def __init__(self, host: "Host", suspect_after: float,
                 slots: int = 4096, associativity: int = 4,
                 record_time: float = 0.0,
                 transport: RpcTransport | None = None,
                 fair_window: float = 1_000.0, window_records: int = 0):
        self.host = host
        self.sim = host.sim
        self.slots = slots
        self.associativity = associativity
        #: the served clients' retry horizon (µs, §4.5)
        self.suspect_after = suspect_after
        #: CPU time to process one record RPC (profiles; §5.2 measures
        #: 1270k records/s ≈ 0.8 µs each)
        self.record_time = record_time
        self.tenants: dict[str, WitnessServer] = {}
        # -- per-tenant fair admission (config.overload) ---------------
        #: accounting window length (µs); with ``window_records == 0``
        #: fairness is off and records flow exactly as before
        self.fair_window = fair_window
        #: record admissions per window across all tenants
        self.window_records = window_records
        self._window_start = 0.0
        self._window_counts: dict[str, int] = {}
        self._window_total = 0
        # Witnesses are lightweight and can share a host (and its RPC
        # endpoint) with a backup — Figure 2's colocated deployment;
        # method names are disjoint.
        self.transport = transport or RpcTransport(host)
        self.transport.register("record", self._handle_record)
        self.transport.register("gc", self._handle_gc)
        self.transport.register("get_recovery_data",
                                self._handle_recovery_data)
        self.transport.register("probe", self._handle_probe)
        self.transport.register("start", self._handle_start)
        self.transport.register("set_ranges", self._handle_set_ranges)
        self.transport.register("end", self._handle_end)
        # Control-path liveness for the cluster watchdog; guarded
        # because a colocated backup may share this transport.
        if "ping" not in self.transport._handlers:
            self.transport.register("ping", lambda args, ctx: "PONG")
        # NVM: no crash hook — tenant caches survive crash/restart.

    def serve(self, master_id: str,
              owned_ranges: typing.Sequence[tuple[int, int]] | None = None,
              ) -> WitnessServer:
        """Start (or restart, §3.6) serving ``master_id``'s witness: a
        fresh normal-mode life that leaves every other tenant alone."""
        tenant = self.tenants.get(master_id)
        if tenant is None:
            tenant = self.tenants[master_id] = WitnessServer(
                master_id, self.slots, self.associativity,
                self.suspect_after)
        tenant.start(owned_ranges)
        return tenant

    def _tenant(self, master_id: str) -> WitnessServer:
        tenant = self.tenants.get(master_id)
        if tenant is None:
            raise AppError("WRONG_WITNESS_STATE",
                           {"mode": MODE_UNCONFIGURED, "master": master_id})
        return tenant

    # ------------------------------------------------------------------
    # client-facing
    # ------------------------------------------------------------------
    def _handle_record(self, args: RecordArgs, ctx):
        tenant = self.tenants.get(args.master_id)
        if tenant is None:
            # Unknown master: same contract as a reconfigured witness —
            # the client falls back to the 2-RTT sync path.
            return RECORD_REJECTED
        if self.window_records > 0 and not self._admit(tenant):
            # Fair-admission rejection is indistinguishable on the wire
            # from a capacity/conflict REJECTED: the hot tenant's
            # client takes the 2-RTT sync path (and, if it runs a
            # backpressure driver, shrinks its window) — the other
            # tenants' fast path stays open.  Rejecting *before* the
            # record_time charge keeps the throttle cheap.
            return RECORD_REJECTED
        if self.record_time > 0:
            # Charge the CPU time without spawning a process per record
            # (the witness sees one of these per update per client —
            # hot path).  A record in flight when the host dies is
            # dropped, not replied to (``ctx.answer``).
            self.sim.schedule_callback(self.record_time, ctx.answer,
                                       tenant.record, args, self.sim.now)
            return RpcTransport.DEFERRED
        return tenant.record(args, self.sim.now)

    def _admit(self, tenant: WitnessServer) -> bool:
        """Windowed per-tenant fair admission (config.overload).

        The window resets on demand from ``sim.now`` — no timer, no
        event, so fairness adds nothing to any trace.  A tenant *below*
        its fair share (``window_records / n_tenants``) is always
        admitted, even once the global window budget is spent — so a
        hot tenant can exhaust the budget without ever starving a quiet
        one; only tenants at/over fair share are throttled.  The bounded
        overshoot (at most one fair share per under-share tenant) is
        the price of that guarantee.
        """
        now = self.sim.now
        if now - self._window_start >= self.fair_window:
            self._window_start = now
            self._window_counts.clear()
            self._window_total = 0
        count = self._window_counts.get(tenant.master_id, 0)
        fair_share = self.window_records / len(self.tenants)
        if self._window_total >= self.window_records and count >= fair_share:
            tenant.records_throttled += 1
            return False
        self._window_counts[tenant.master_id] = count + 1
        self._window_total += 1
        tenant.records_admitted += 1
        return True

    def _handle_probe(self, args: ProbeArgs, ctx):
        tenant = self.tenants.get(args.master_id)
        if tenant is None:
            return PROBE_CONFLICT
        return tenant.probe(args.key_hashes)

    # ------------------------------------------------------------------
    # master- and recovery-facing
    # ------------------------------------------------------------------
    def _handle_gc(self, args: GcArgs, ctx):
        return self._tenant(args.master_id).gc(args.pairs)

    def _handle_recovery_data(self, args: GetRecoveryDataArgs, ctx):
        # Freezes only this master's tenant; neighbours keep serving.
        return self._tenant(args.master_id).recovery_data()

    # ------------------------------------------------------------------
    # coordinator-facing
    # ------------------------------------------------------------------
    def _handle_start(self, args: StartArgs, ctx):
        self.serve(args.master_id, args.owned_ranges)
        return "SUCCESS"

    def _handle_set_ranges(self, args: SetRangesArgs, ctx):
        return self._tenant(args.master_id).set_ranges(args.owned_ranges)

    def _handle_end(self, args, ctx):
        """Decommission ``args.master_id``'s tenant (any args type that
        carries a ``master_id``)."""
        self.tenants.pop(args.master_id, None)
        return None
