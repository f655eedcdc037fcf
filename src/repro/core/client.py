"""The CURP client (§3.2.1) — where the 1 RTT happens.

For an update the client *concurrently*:

- sends the update RPC to the master, and
- sends ``record`` RPCs to all f witnesses.

It then waits for everything and decides:

- master replied ``synced=True`` → complete (the master hit a conflict
  and synced; witness outcomes don't matter, §3.2.3);
- master replied speculative and **all f witnesses accepted** →
  complete — the 1 RTT fast path;
- any witness rejected / timed out → send a ``sync`` RPC and wait —
  the 2-3 RTT slow path;
- master timed out / errored → refresh the cluster view from the
  coordinator and retry the *same* RpcId (RIFL makes the retry safe,
  §3.3);
- master replied ``WRONG_SHARD`` → the client's shard map is stale
  (the key's tablet migrated): gc the witness records the wasted
  attempt left on the old shard (nothing else can ever reclaim them),
  refetch the map from the coordinator and retry immediately, with no
  backoff — one extra coordinator round trip on top of the wasted
  attempt.

The same class drives the paper's baselines: in SYNC / ASYNC /
UNREPLICATED modes no witnesses are used and completion follows the
master's reply alone.
"""

from __future__ import annotations

import dataclasses
import typing

from repro.core.config import CurpConfig, ReplicationMode
from repro.core.curp import fan_out, gc_round
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


class ClientGaveUp(Exception):
    """Raised when an operation exhausted ``config.max_attempts``."""


@dataclasses.dataclass
class UpdateOutcome:
    """What one completed update looked like from the client."""

    result: typing.Any
    #: True = completed in 1 RTT via witnesses (or without durability in
    #: ASYNC/UNREPLICATED modes)
    fast_path: bool
    #: True = master synced before replying (conflict path)
    synced_by_master: bool
    #: True = client had to issue a separate sync RPC
    sync_rpc_needed: bool
    attempts: int
    latency: float


class CurpClient:
    """One application client."""

    def __init__(self, host: "Host", config: CurpConfig,
                 coordinator: str | None = None,
                 collect_outcomes: bool = True):
        self.host = host
        self.sim = host.sim
        self.config = config
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
        for _attempt in range(1, self.config.max_attempts + 1):
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
                           f"{self.config.max_attempts} attempts: "
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
    def update(self, op: Operation, rpc_id=None):
        """Generator: perform a linearizable update; returns UpdateOutcome.

        ``rpc_id`` is normally allocated here; a cross-shard transaction
        passes ids pre-allocated by ``tracker.new_transaction`` so every
        participant shard's prepare is pinned to the same attempt (RIFL
        makes the per-shard retries exactly-once either way).
        """
        if not op.is_update:
            raise ValueError("use read() for read operations")
        assert self.tracker is not None, "client not connected"
        if rpc_id is None:
            rpc_id = self.tracker.new_rpc()
        started = self.sim.now
        last_error: Exception | None = None
        pushback_streak = 0
        transport = self.transport
        timeout = self.config.rpc_timeout
        for attempt in range(1, self.config.max_attempts + 1):
            master = self._master_for(op.touched_hashes())
            use_witnesses = (self.config.mode is ReplicationMode.CURP
                             and len(master.witnesses) > 0)
            witnesses = master.witnesses if use_witnesses else ()
            record = None
            if witnesses:
                record = RecordArgs(master.master_id, op.touched_hashes(),
                                    rpc_id, RecordedRequest(op, rpc_id))
            # The 1 + f fan-out (§3.2.1), one join per attempt.
            quorum = fan_out(
                transport, master.host, "update",
                UpdateArgs(op, rpc_id, self.tracker.first_incomplete,
                           master.witness_list_version),
                witnesses, record, timeout)
            results = yield quorum
            reply = results[0]
            if not isinstance(reply, BaseException):
                if reply.synced:
                    return self._complete(op, rpc_id, reply.result, started,
                                          attempt, fast=False, by_master=True,
                                          sync_rpc=False)
                if use_witnesses and results[1:].count(RECORD_ACCEPTED) \
                        == len(witnesses):
                    return self._complete(op, rpc_id, reply.result, started,
                                          attempt, fast=True, by_master=False,
                                          sync_rpc=False)
                if self.config.mode is not ReplicationMode.CURP:
                    # ASYNC / UNREPLICATED: complete on the master reply
                    # alone (no durability guarantee in ASYNC).
                    return self._complete(op, rpc_id, reply.result, started,
                                          attempt, fast=True, by_master=False,
                                          sync_rpc=False)
                # CURP with a rejected/empty witness set: durability must
                # come from a backup sync (§3.2.1).
                # Slow path (§3.2.1): ask the master to sync.
                try:
                    yield transport.call(master.host, "sync", None,
                                         timeout=timeout)
                    return self._complete(op, rpc_id, reply.result, started,
                                          attempt, fast=False, by_master=False,
                                          sync_rpc=True)
                except (AppError, RpcTimeout) as error:
                    # Master crashed/deposed before the sync: restart the
                    # whole operation (same RpcId).
                    last_error = error
            elif isinstance(reply, AppError):
                last_error = error = reply
                if error.code == "STALE_RPC":  # pragma: no cover - guard
                    raise error
                if error.code == RETRY_LATER:
                    # Admission-control pushback (§overload): the
                    # master's bounded queue is full.  Back off by its
                    # hint — grown exponentially per consecutive
                    # pushback and jittered so a shed flash crowd
                    # doesn't retry in lockstep — and *without*
                    # refreshing the cluster view: overload is not a
                    # routing problem, and a coordinator round trip
                    # per shed attempt would move the collapse there.
                    self.pushbacks += 1
                    yield self.sim.timeout(
                        self._pushback_delay(error, pushback_streak))
                    pushback_streak += 1
                    continue
                if error.code == "WRONG_SHARD":
                    # Stale shard map: the key migrated to another
                    # master.  Refetch routing from the coordinator and
                    # retry immediately — no backoff; the extra cost is
                    # one coordinator round trip.  First free any
                    # witness slots our concurrent records claimed on
                    # the old shard: this master will never execute the
                    # op (so never gc them) and the key's hash no
                    # longer routes here (so the §4.5 suspect path can
                    # never reclaim them either).  The gc goes out from
                    # a queue entry of its own at this instant, after
                    # the view refresh; a witness that is down or reset
                    # has lost its slots anyway.
                    accepted = [witness for witness, result
                                in zip(witnesses, results[1:])
                                if result == RECORD_ACCEPTED]
                    if accepted:
                        self.sim.schedule_callback(
                            0.0, gc_round, transport, accepted,
                            master.master_id,
                            [(h, rpc_id) for h in op.touched_hashes()],
                            timeout)
                    yield from self._refresh_routing()
                    continue
            else:  # timeout, or any other RPC failure
                last_error = reply
            pushback_streak = 0
            yield from self._recover_attempt()
        raise ClientGaveUp(
            f"update {op!r} failed after {self.config.max_attempts} "
            f"attempts: {last_error!r}")

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

    def _recover_attempt(self):
        """Between attempts: small backoff, then refresh configuration."""
        if self.config.retry_backoff > 0:
            yield self.sim.timeout(self.config.retry_backoff)
        yield from self._refresh_routing()

    def _refresh_routing(self):
        """Refetch the cluster view (shard map included) — no backoff."""
        if self.coordinator is not None:
            try:
                yield from self._refresh_view()
            except RpcError:
                pass  # coordinator briefly unreachable; retry with old view

    def _complete(self, op: Operation, rpc_id, result, started: float,
                  attempts: int, fast: bool, by_master: bool,
                  sync_rpc: bool) -> UpdateOutcome:
        self.tracker.completed(rpc_id)
        outcome = UpdateOutcome(
            result=result, fast_path=fast, synced_by_master=by_master,
            sync_rpc_needed=sync_rpc, attempts=attempts,
            latency=self.sim.now - started)
        self.completed_updates += 1
        if fast:
            self.fast_path_updates += 1
        if self.collect_outcomes:
            self.outcomes.append(outcome)
        return outcome

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
        last_error: Exception | None = None
        pushback_streak = 0
        h = key_hash(key)
        args = ReadArgs(key, h, for_update, versioned)
        for _attempt in range(1, self.config.max_attempts + 1):
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
            except (AppError, RpcTimeout) as error:
                last_error = error
                if isinstance(error, AppError) and error.code == "WRONG_SHARD":
                    yield from self._refresh_routing()
                    continue
                if isinstance(error, AppError) and error.code == RETRY_LATER:
                    # Same pushback contract as updates: back off by
                    # the hint, no view refresh.
                    self.pushbacks += 1
                    yield self.sim.timeout(
                        self._pushback_delay(error, pushback_streak))
                    pushback_streak += 1
                    continue
            pushback_streak = 0
            yield from self._recover_attempt()
        raise ClientGaveUp(f"read {key!r} failed: {last_error!r}")

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
