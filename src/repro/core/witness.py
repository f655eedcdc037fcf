"""Witness servers (Figure 4 API).

A witness lives for one master at a time.  Life cycle:

- ``start(masterId)`` (coordinator): begin a fresh *normal-mode* life.
- ``record`` (clients): save commutative requests; REJECTED on
  conflict, capacity, wrong master or recovery mode.
- ``gc`` (master): drop synced requests; report stale suspects.
- ``getRecoveryData`` (recovery master): irreversibly freeze into
  *recovery mode* and return saved requests (§4.1, §4.6).
- ``end`` (coordinator): decommission.

Plus ``probe`` for the consistent-backup-read protocol of §A.1.

Witness storage is non-volatile (§3.2.2: flash-backed DRAM): it
survives host crash + restart.  While the host is down, clients'
record RPCs time out and they fall back to the 2-RTT sync path —
availability degrades, consistency never does.

Two deployment shapes share the serving logic:

- :class:`WitnessServer` — the classic one-master-at-a-time endpoint
  (optionally sharing a colocated backup's transport, Figure 2);
- :class:`WitnessEndpoint` — the *multi-tenant* endpoint: one host
  serving several masters'/shards' witness sets behind a single rx
  handler, one :class:`WitnessServer` tenant (own cache, own
  life cycle) per master, routed by the ``master_id`` every witness
  RPC already carries.
"""

from __future__ import annotations

import dataclasses
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
from repro.kvstore.operations import is_transactional
from repro.rpc import AppError, RpcTransport

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.net.host import Host


MODE_UNCONFIGURED = "unconfigured"
MODE_NORMAL = "normal"
MODE_RECOVERY = "recovery"


#: the witness wire API (Figure 4 + probe): one registration table
#: shared by the single-tenant server and the multi-tenant endpoint so
#: a future RPC cannot be added to one deployment and silently missed
#: by the other — both classes must implement every handler attribute.
_WITNESS_RPC_HANDLERS: tuple[tuple[str, str], ...] = (
    ("record", "_handle_record"),
    ("gc", "_handle_gc"),
    ("get_recovery_data", "_handle_recovery_data"),
    ("probe", "_handle_probe"),
    ("start", "_handle_start"),
    ("set_ranges", "_handle_set_ranges"),
    ("end", "_handle_end"),
)


@dataclasses.dataclass
class WitnessStats:
    """Counters for a multi-tenant :class:`WitnessEndpoint`."""

    records: int = 0
    #: record RPCs rejected by per-tenant fair admission (the windowed
    #: budget; only moves when the endpoint was built with
    #: ``window_records > 0`` — i.e. ``config.overload`` fairness on)
    records_throttled: int = 0
    gcs: int = 0


class WitnessServer:
    """One witness endpoint on a host.

    ``register=False`` builds a *tenant*: the serving logic without any
    transport registration, for a :class:`WitnessEndpoint` that routes
    several masters' traffic through one rx handler.
    """

    def __init__(self, host: "Host", slots: int = 4096, associativity: int = 4,
                 stale_threshold: int = 3, record_time: float = 0.0,
                 transport: RpcTransport | None = None,
                 register: bool = True):
        self.host = host
        self.sim = host.sim
        self.mode = MODE_UNCONFIGURED
        self.master_id: str | None = None
        #: the served master's owned key-hash ranges, when known: records
        #: for hashes outside them are rejected (a stale-routed client
        #: racing a migration, §3.6).  None = accept any hash.
        self.owned_ranges: tuple[tuple[int, int], ...] | None = None
        #: records evicted because their key hash left the master's
        #: ownership (set_ranges at migration cutover)
        self.records_evicted = 0
        self.cache = WitnessCache(slots=slots, associativity=associativity,
                                  stale_threshold=stale_threshold)
        #: CPU time to process one record RPC (profiles; §5.2 measures
        #: 1270k records/s ≈ 0.8 µs each)
        self.record_time = record_time
        self.records_processed = 0
        self.gcs_processed = 0
        #: accepted records carrying cross-shard saga operations
        #: (TxnPrepare / TxnCompensate, §B.2) — these occupy slots and
        #: replay on recovery exactly like any other update record
        self.txn_records = 0
        # Witnesses are lightweight and can share a host (and its RPC
        # endpoint) with a backup — Figure 2's colocated deployment.
        self.transport = transport or RpcTransport(host)
        if register:
            for method, handler in _WITNESS_RPC_HANDLERS:
                self.transport.register(method, getattr(self, handler))
            # Control-path liveness for the cluster watchdog; guarded
            # because a colocated backup may share this transport.
            if "ping" not in self.transport._handlers:
                self.transport.register("ping", lambda args, ctx: "PONG")
        # NVM: no crash hook — cache contents survive crash/restart.

    # ------------------------------------------------------------------
    # client-facing
    # ------------------------------------------------------------------
    def _handle_record(self, args: RecordArgs, ctx):
        if self.record_time > 0:
            # Charge the CPU time without spawning a process per record
            # (the witness sees one of these per update per client —
            # hot path).  The incarnation guard reproduces the old
            # generator's crash semantics: a record in flight when the
            # host dies is dropped, not replied to.
            self.sim.schedule_callback(self.record_time,
                                       self._record_deferred, args, ctx,
                                       self.host.incarnation)
            return RpcTransport.DEFERRED
        return self._record_now(args)

    def _record_deferred(self, args: RecordArgs, ctx,
                         incarnation: int) -> None:
        if not self.host.alive or self.host.incarnation != incarnation:
            return
        try:
            ctx.reply(self._record_now(args))
        except Exception as error:  # noqa: BLE001 - serialize to caller,
            # matching the generator path's REMOTE_ERROR containment
            ctx.reply_exception(error)

    def _record_now(self, args: RecordArgs) -> str:
        self.records_processed += 1
        if self.mode != MODE_NORMAL or args.master_id != self.master_id:
            # Wrong master, decommissioned, or frozen for recovery: the
            # client cannot complete in 1 RTT through this witness.
            return RECORD_REJECTED
        ranges = self.owned_ranges
        if ranges is not None and not in_ranges(args.key_hashes, ranges):
            # The key migrated away from this witness's master: the op
            # can never complete here, and an accepted record would pin
            # a slot the owning master's gc cycle can no longer reach.
            return RECORD_REJECTED
        accepted = self.cache.record(args.key_hashes, args.rpc_id, args.request)
        if accepted and args.request is not None \
                and is_transactional(args.request.op):
            self.txn_records += 1
        return RECORD_ACCEPTED if accepted else RECORD_REJECTED

    def _handle_probe(self, args: ProbeArgs, ctx):
        """§A.1: COMMUTE means a backup's value for these keys is fresh.

        Conservative in every non-normal state: recovery mode or a
        different master ⇒ CONFLICT, pushing the reader to the master.
        """
        if self.mode != MODE_NORMAL or args.master_id != self.master_id:
            return PROBE_CONFLICT
        if self.cache.commutes_with(args.key_hashes):
            return PROBE_COMMUTE
        return PROBE_CONFLICT

    # ------------------------------------------------------------------
    # master-facing
    # ------------------------------------------------------------------
    def _handle_gc(self, args: GcArgs, ctx):
        if self.mode != MODE_NORMAL or args.master_id != self.master_id:
            raise AppError("WRONG_WITNESS_STATE", {"mode": self.mode})
        self.gcs_processed += 1
        stale = self.cache.gc(args.pairs)
        return tuple(stale)

    # ------------------------------------------------------------------
    # recovery-facing
    # ------------------------------------------------------------------
    def _handle_recovery_data(self, args: GetRecoveryDataArgs, ctx):
        if self.master_id != args.master_id or self.mode == MODE_UNCONFIGURED:
            raise AppError("WRONG_WITNESS_STATE",
                           {"mode": self.mode, "master": self.master_id})
        # Irreversible (§4.1): even a duplicate getRecoveryData keeps the
        # witness frozen; record RPCs are rejected from now on.
        self.mode = MODE_RECOVERY
        return tuple(self.cache.all_requests())

    # ------------------------------------------------------------------
    # coordinator-facing
    # ------------------------------------------------------------------
    def start_for(self, master_id: str,
                  owned_ranges: typing.Sequence[tuple[int, int]] | None = None,
                  ) -> None:
        """Begin a fresh life for (possibly another) master."""
        self.master_id = master_id
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
        self.owned_ranges = tuple(owned_ranges)
        dropped = self.cache.drop_outside(self.owned_ranges)
        self.records_evicted += dropped
        return dropped

    def _handle_start(self, args: StartArgs, ctx):
        self.start_for(args.master_id, args.owned_ranges)
        return "SUCCESS"

    def _handle_set_ranges(self, args: SetRangesArgs, ctx):
        if self.mode != MODE_NORMAL or args.master_id != self.master_id:
            raise AppError("WRONG_WITNESS_STATE", {"mode": self.mode})
        return self.set_ranges(args.owned_ranges)

    def _handle_end(self, args, ctx):
        self.master_id = None
        self.mode = MODE_UNCONFIGURED
        self.owned_ranges = None
        self.cache.clear()
        return None


class WitnessEndpoint:
    """Multi-tenant witness host: several masters' witness sets behind
    one rx handler.

    Each served master gets a :class:`WitnessServer` *tenant* with its
    own cache and life cycle (start / recovery freeze / end apply per
    tenant — a recovering master must not disturb its neighbours), all
    routed by the ``master_id`` every witness RPC carries.  Capacity is
    per tenant, matching the paper's per-master witness sizing (§4.2).
    """

    def __init__(self, host: "Host", slots: int = 4096,
                 associativity: int = 4, stale_threshold: int = 3,
                 record_time: float = 0.0,
                 transport: RpcTransport | None = None,
                 fair_window: float = 1_000.0, window_records: int = 0):
        self.host = host
        self.sim = host.sim
        self.slots = slots
        self.associativity = associativity
        self.stale_threshold = stale_threshold
        self.record_time = record_time
        self.tenants: dict[str, WitnessServer] = {}
        self.stats = WitnessStats()
        # -- per-tenant fair admission (config.overload) ---------------
        #: accounting window length (µs); with ``window_records == 0``
        #: fairness is off and records flow exactly as before
        self.fair_window = fair_window
        #: record admissions per window across all tenants
        self.window_records = window_records
        self._window_start = 0.0
        self._window_counts: dict[str, int] = {}
        self._window_total = 0
        #: cumulative per-tenant admitted / throttled records (the
        #: fairness series in benchmarks reads these)
        self.tenant_records: dict[str, int] = {}
        self.tenant_throttled: dict[str, int] = {}
        self.transport = transport or RpcTransport(host)
        for method, handler in _WITNESS_RPC_HANDLERS:
            self.transport.register(method, getattr(self, handler))
        # Control-path liveness for the cluster watchdog; guarded
        # because a colocated backup may share this transport.
        if "ping" not in self.transport._handlers:
            self.transport.register("ping", lambda args, ctx: "PONG")
        # NVM: no crash hook — tenant caches survive crash/restart.

    # ------------------------------------------------------------------
    # tenancy
    # ------------------------------------------------------------------
    def serve(self, master_id: str,
              owned_ranges: typing.Sequence[tuple[int, int]] | None = None,
              ) -> WitnessServer:
        """Start (or restart, §3.6) serving ``master_id``'s witness set."""
        tenant = self.tenants.get(master_id)
        if tenant is None:
            tenant = WitnessServer(
                self.host, slots=self.slots,
                associativity=self.associativity,
                stale_threshold=self.stale_threshold,
                record_time=self.record_time, transport=self.transport,
                register=False)
            self.tenants[master_id] = tenant
        tenant.start_for(master_id, owned_ranges)
        return tenant

    def _tenant(self, master_id: str) -> WitnessServer | None:
        return self.tenants.get(master_id)

    # ------------------------------------------------------------------
    # routed handlers
    # ------------------------------------------------------------------
    def _handle_record(self, args: RecordArgs, ctx):
        tenant = self.tenants.get(args.master_id)
        if tenant is None:
            # Unknown master: same contract as a reconfigured witness —
            # the client falls back to the 2-RTT sync path.
            return RECORD_REJECTED
        self.stats.records += 1
        if not self._admit(args.master_id):
            # Fair-admission rejection is indistinguishable on the wire
            # from a capacity/conflict REJECTED: the hot tenant's
            # client takes the 2-RTT sync path (and, if it runs a
            # backpressure driver, shrinks its window) — the other
            # tenants' fast path stays open.  Rejecting *before* the
            # tenant's record_time charge keeps the throttle cheap.
            return RECORD_REJECTED
        return tenant._handle_record(args, ctx)

    def _admit(self, master_id: str) -> bool:
        """Windowed per-tenant fair admission (config.overload).

        The window resets on demand from ``sim.now`` — no timer, no
        event, so a fairness-off endpoint (``window_records == 0``, the
        default) adds nothing to any trace.  A tenant *below* its fair
        share (``window_records / n_tenants``) is always admitted, even
        once the global window budget is spent — so a hot tenant can
        exhaust the budget without ever starving a quiet one; only
        tenants at/over fair share are throttled.  The bounded
        overshoot (at most one fair share per under-share tenant) is
        the price of that guarantee.
        """
        if self.window_records <= 0:
            return True
        now = self.sim.now
        if now - self._window_start >= self.fair_window:
            self._window_start = now
            self._window_counts.clear()
            self._window_total = 0
        count = self._window_counts.get(master_id, 0)
        fair_share = self.window_records / max(1, len(self.tenants))
        if self._window_total >= self.window_records and count >= fair_share:
            self.stats.records_throttled += 1
            self.tenant_throttled[master_id] = (
                self.tenant_throttled.get(master_id, 0) + 1)
            return False
        self._window_counts[master_id] = count + 1
        self._window_total += 1
        self.tenant_records[master_id] = (
            self.tenant_records.get(master_id, 0) + 1)
        return True

    def _handle_probe(self, args: ProbeArgs, ctx):
        tenant = self.tenants.get(args.master_id)
        if tenant is None:
            return PROBE_CONFLICT
        return tenant._handle_probe(args, ctx)

    def _handle_gc(self, args: GcArgs, ctx):
        tenant = self.tenants.get(args.master_id)
        if tenant is None:
            raise AppError("WRONG_WITNESS_STATE",
                           {"mode": MODE_UNCONFIGURED,
                            "master": args.master_id})
        self.stats.gcs += 1
        return tenant._handle_gc(args, ctx)

    def _handle_recovery_data(self, args: GetRecoveryDataArgs, ctx):
        tenant = self.tenants.get(args.master_id)
        if tenant is None:
            raise AppError("WRONG_WITNESS_STATE",
                           {"mode": MODE_UNCONFIGURED,
                            "master": args.master_id})
        # Freezes only this master's tenant; neighbours keep serving.
        return tenant._handle_recovery_data(args, ctx)

    def _handle_start(self, args: StartArgs, ctx):
        self.serve(args.master_id, args.owned_ranges)
        return "SUCCESS"

    def _handle_set_ranges(self, args: SetRangesArgs, ctx):
        tenant = self.tenants.get(args.master_id)
        if tenant is None:
            raise AppError("WRONG_WITNESS_STATE",
                           {"mode": MODE_UNCONFIGURED,
                            "master": args.master_id})
        return tenant._handle_set_ranges(args, ctx)

    def _handle_end(self, args, ctx):
        """Decommission one tenant (args carry a master_id) or, with
        ``None`` args (the single-tenant wire contract), every tenant."""
        master_id = getattr(args, "master_id", args)
        if master_id is None:
            tenants, self.tenants = list(self.tenants.values()), {}
            for tenant in tenants:
                tenant._handle_end(None, ctx)
            return None
        tenant = self.tenants.pop(master_id, None)
        if tenant is not None:
            tenant._handle_end(args, ctx)
        return None
