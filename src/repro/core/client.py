"""The CURP client (§3.2.1) — where the 1 RTT happens.

An update is ``core.curp.run_update``, the loop all three backends
share: the update RPC to the master and ``record`` RPCs to all f
witnesses at once; complete when the master replied ``synced=True`` (it
hit a conflict and synced, §3.2.3) or all f witnesses accepted (the 1
RTT fast path), else after a ``sync`` RPC (the 2-3 RTT slow path); on a
failure retry the *same* RpcId (RIFL makes the retry safe, §3.3).  This
class routes by its cluster view and pauses between attempts:

- master timed out / errored → back off, refresh the view, retry;
- master replied ``RETRY_LATER`` (admission control, §overload) → back
  off by its hint, doubled per consecutive pushback and jittered so a
  shed flash crowd does not retry in lockstep, and *without* a view
  refresh: overload is not a routing problem, and a coordinator round
  trip per shed attempt would move the collapse there;
- master replied ``WRONG_SHARD`` → the client's shard map is stale (the
  key's tablet migrated): gc the witness records the wasted attempt
  left on the old shard (that master never executes the op, so never
  gcs them, and the key no longer routes there, so §4.5 never reclaims
  them), refetch the map and retry at once — no backoff, one extra
  coordinator round trip.

The same class drives the paper's baselines: in SYNC / ASYNC /
UNREPLICATED modes no witnesses are used and completion follows the
master's reply alone.
"""

from __future__ import annotations

import typing

from repro.core.config import CurpConfig, ReplicationMode
from repro.core.curp import ClientGaveUp, UpdateOutcome, gc_round, run_update
from repro.core.messages import (
    BackupReadArgs,
    ClusterView,
    MasterInfo,
    ProbeArgs,
    PROBE_COMMUTE,
    ReadArgs,
    RECORD_ACCEPTED,
    RecordArgs,
    RecordedRequest,
    RETRY_LATER,
    UpdateArgs,
)
from repro.kvstore.hashing import key_hash
from repro.kvstore.operations import Operation
from repro.rifl import RiflClientTracker
from repro.rpc import AppError, RpcError, RpcTimeout, RpcTransport
from repro.rpc.helpers import backoff_delay
from repro.sim.events import QuorumEvent

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.net.host import Host


class CurpClient:
    """One application client."""

    def __init__(self, host: "Host", config: CurpConfig,
                 coordinator: str | None = None,
                 collect_outcomes: bool = True):
        self.host = host
        self.sim = host.sim
        self.config = config
        self.max_attempts = config.max_attempts
        self.coordinator = coordinator
        self.transport = RpcTransport(host)
        self.tracker: RiflClientTracker | None = None
        self.view: ClusterView | None = None
        self.collect_outcomes = collect_outcomes
        self.outcomes: list[UpdateOutcome] = []
        # counters for throughput benches (cheap even when outcomes off)
        self.completed_updates = 0
        self.completed_reads = 0
        self.fast_path_updates = 0
        #: RETRY_LATER pushbacks seen (the backpressure drivers in
        #: workload/ read this to shrink their in-flight windows)
        self.pushbacks = 0

    # ------------------------------------------------------------------
    # bootstrap
    # ------------------------------------------------------------------
    def connect(self):
        """Generator: obtain a client id and the cluster view.

        Retries on dropped/timed-out coordinator RPCs (a fresh
        ``register_client`` is issued per attempt; an id whose reply
        was lost is never used by anyone, and no record ever names it).
        """
        if self.coordinator is None:
            raise RuntimeError("connect() requires a coordinator address")
        last_error: Exception | None = None
        for _attempt in range(1, self.max_attempts + 1):
            try:
                client_id = yield self.transport.call(
                    self.coordinator, "register_client", None,
                    timeout=self.config.rpc_timeout)
                self.tracker = RiflClientTracker(client_id)
                yield from self._refresh_view()
                return client_id
            except RpcError as error:
                last_error = error
                if self.config.retry_backoff > 0:
                    yield self.sim.timeout(self.config.retry_backoff)
        raise ClientGaveUp(f"connect failed after "
                           f"{self.max_attempts} attempts: "
                           f"{last_error!r}")

    def _refresh_view(self):
        view = yield self.transport.call(
            self.coordinator, "get_config", None,
            timeout=self.config.rpc_timeout)
        self.view = view

    def _master_for(self, hashes: typing.Sequence[int]) -> MasterInfo:
        """The one master owning every key hash in ``hashes``."""
        view = self.view
        assert view is not None, "client not connected"
        route = view.shard_map.master_for_hash
        master_id = route(hashes[0]) if hashes else None
        for key_hash_value in hashes[1:]:
            if route(key_hash_value) != master_id:
                master_id = None
                break
        if master_id is None:
            raise ValueError(
                f"key hashes {hashes!r} do not map to a single master")
        return view.masters[master_id]

    # ------------------------------------------------------------------
    # update
    # ------------------------------------------------------------------
    #: Generator: a linearizable update; returns UpdateOutcome.  A
    #: cross-shard transaction passes ``rpc_id``s pre-allocated by
    #: ``tracker.new_transaction``, pinning every participant shard's
    #: prepare to the same attempt (RIFL makes retries exactly-once).
    update = run_update
    _on_reply = None

    def _route(self, op: Operation, rpc_id):
        """The master owning ``op``'s keys in the current view, and in
        CURP mode its witnesses, all of which must accept; other modes
        complete on the master's reply."""
        hashes = op.touched_hashes()
        master = self._master_for(hashes)
        witnesses, record, need = (), None, 0
        if self.config.mode is ReplicationMode.CURP:
            witnesses = master.witnesses
            need = len(witnesses) or 1  # none: only a sync makes it durable
            if witnesses:
                record = RecordArgs(master.master_id, hashes, rpc_id,
                                    RecordedRequest(op, rpc_id))
        return (master.host, "update",
                UpdateArgs(op, rpc_id, self.tracker.first_incomplete,
                           master.witness_list_version),
                witnesses, record, need, self.config.rpc_timeout, None)

    def _pause(self, error, route, results, streak: int):
        """Between attempts (updates and reads alike), as the module
        docstring lists; returns the consecutive pushback count."""
        code = error.code if isinstance(error, AppError) else None
        if code == RETRY_LATER:
            self.pushbacks += 1
            yield self.sim.timeout(self._pushback_delay(error, streak))
            return streak + 1
        if code != "WRONG_SHARD":
            streak = 0
            if self.config.retry_backoff > 0:
                yield self.sim.timeout(self.config.retry_backoff)
        elif results is not None:
            witnesses, record = route[3], route[4]
            accepted = [witness for witness, result
                        in zip(witnesses, results[1:])
                        if result == RECORD_ACCEPTED]
            if accepted:  # from a queue entry of its own, this instant
                self.sim.schedule_callback(
                    0.0, gc_round, self.transport, accepted,
                    record.master_id,
                    [(h, record.rpc_id) for h in record.key_hashes],
                    self.config.rpc_timeout)
        if self.coordinator is not None:
            try:
                yield from self._refresh_view()
            except RpcError:
                pass  # coordinator briefly unreachable; retry with old view
        return streak

    def _pushback_delay(self, error: AppError, streak: int) -> float:
        """Delay for the ``streak``-th consecutive RETRY_LATER: the
        master's ``retry_after`` hint, doubled per consecutive pushback
        up to ``overload.retry_after_cap``, equal-jittered via
        ``sim.rng``.  Only ever called on a pushback, so runs without
        defenses draw nothing from the rng stream."""
        overload = self.config.overload
        hint = None
        if isinstance(error.info, dict):
            hint = error.info.get("retry_after")
        base = hint or overload.retry_after
        return backoff_delay(streak, base, overload.retry_after_cap,
                             self.sim.rng)

    # ------------------------------------------------------------------
    # reads
    # ------------------------------------------------------------------
    def read(self, key: str, for_update: bool = False,
             versioned: bool = False):
        """Generator: linearizable read from the master.

        ``for_update=True`` is the §A.3 fast path for reads preparing a
        conditional update: the master may return an unsynced value
        without waiting for its durability, because the commit's
        version check revalidates it.  ``versioned=True`` returns
        ``(value, version)`` instead of the value.
        """
        started = self.sim.now
        error: Exception | None = None
        streak = 0
        h = key_hash(key)
        args = ReadArgs(key, h, for_update, versioned)
        for _attempt in range(1, self.max_attempts + 1):
            view = self.view
            owner = view.shard_map.master_for_hash(h)
            if owner is None:
                raise ValueError(f"key {key!r} routes to no master")
            try:
                result = yield self.transport.call(
                    view.masters[owner].host, "read", args,
                    timeout=self.config.rpc_timeout)
                self.completed_reads += 1
                self.last_read_latency = self.sim.now - started
                return result
            except (AppError, RpcTimeout) as failure:
                error = failure
            streak = yield from self._pause(error, None, None, streak)
        raise ClientGaveUp(f"read {key!r} failed: {error!r}")

    def read_versioned(self, key: str, for_update: bool = False):
        """Generator: read (value, version) — the transaction read set."""
        return (yield from self.read(key, for_update, versioned=True))

    def read_nearby(self, key: str, backup: str, witness: str):
        """Generator: §A.1 consistent read from a (nearby) backup.

        Probes the witness for commutativity concurrently with reading
        the backup; if the witness holds no record touching the key, the
        backup's value is guaranteed fresh (every completed update is
        either synced to *all* backups or recorded on *all* witnesses).
        Otherwise falls back to a master read.
        """
        assert self.view is not None, "client not connected"
        hashes = (key_hash(key),)
        master = self._master_for(hashes)
        probe = ProbeArgs(master_id=master.master_id, key_hashes=hashes)
        quorum = QuorumEvent(self.sim, 2)
        self.transport.call_cb(witness, "probe", probe,
                               quorum.child_result, 0,
                               timeout=self.config.rpc_timeout)
        self.transport.call_cb(backup, "backup_read",
                               BackupReadArgs(key=key),
                               quorum.child_result, 1,
                               timeout=self.config.rpc_timeout)
        results = yield quorum
        commutes = results[0] == PROBE_COMMUTE
        backup_ok = not isinstance(results[1], BaseException)
        if commutes and backup_ok:
            self.completed_reads += 1
            return results[1]
        value = yield from self.read(key)
        return value
