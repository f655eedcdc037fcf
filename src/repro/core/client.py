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
from repro.core.messages import (
    BackupReadArgs,
    ClusterView,
    GcArgs,
    MasterInfo,
    ProbeArgs,
    PROBE_COMMUTE,
    ReadArgs,
    RECORD_ACCEPTED,
    RecordArgs,
    RecordedRequest,
    RETRY_LATER,
    UpdateArgs,
    UpdateReply,
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
        """Generator: obtain a client id (lease) and the cluster view.

        Retries on dropped/timed-out coordinator RPCs (a fresh
        ``register_client`` is issued per attempt; an orphaned id from
        a half-finished attempt simply lets its lease expire).
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

    def attach(self, client_id: int, view: ClusterView) -> None:
        """Direct bootstrap for unit tests: skip the coordinator RPCs."""
        self.tracker = RiflClientTracker(client_id)
        self.view = view

    def _refresh_view(self):
        view = yield self.transport.call(
            self.coordinator, "get_config", None,
            timeout=self.config.rpc_timeout)
        self.view = view

    def _master_for(self, hashes: typing.Sequence[int]) -> MasterInfo:
        """The one master owning every key hash in ``hashes``."""
        view = self.view
        assert view is not None, "client not connected"
        route = view.master_for_hash
        master_id = route(hashes[0]) if hashes else None
        for key_hash_value in hashes[1:]:
            if route(key_hash_value) != master_id:
                master_id = None
                break
        if master_id is None:
            raise ValueError(
                f"key hashes {hashes!r} do not map to a single master")
        return view.masters[master_id]

    def group_by_shard(self, keys: typing.Iterable[str]) \
            -> dict[str, tuple[str, ...]]:
        """Partition keys by owning master under the current view
        (the cross-shard transaction fan-out, §B.2).  Raises KeyError
        for an unrouteable key — callers refresh the view and regroup."""
        assert self.view is not None, "client not connected"
        if self.view.shard_map is not None:
            return self.view.shard_map.group_keys(keys)
        groups: dict[str, list[str]] = {}
        for key in keys:
            owner = self.view.master_for_hash(key_hash(key))
            if owner is None:
                raise KeyError(f"key {key!r} routes to no master")
            groups.setdefault(owner, []).append(key)
        return {owner: tuple(ks) for owner, ks in groups.items()}

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
        for attempt in range(1, self.config.max_attempts + 1):
            master = self._master_for(op.touched_hashes())
            args = UpdateArgs(op=op, rpc_id=rpc_id,
                              ack_seq=self.tracker.first_incomplete,
                              witness_list_version=master.witness_list_version)
            use_witnesses = (self.config.mode is ReplicationMode.CURP
                             and len(master.witnesses) > 0)
            witnesses = master.witnesses if use_witnesses else ()
            status, payload, accepted_flags = (
                yield from self._fanout(master, args, op, rpc_id, witnesses))
            if status == "ok":
                reply: UpdateReply = payload
                accepted = all(accepted_flags)
                if reply.synced:
                    return self._complete(op, rpc_id, reply.result, started,
                                          attempt, fast=False, by_master=True,
                                          sync_rpc=False)
                if use_witnesses and accepted:
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
                    yield self.transport.call(master.host, "sync", None,
                                              timeout=self.config.rpc_timeout)
                    return self._complete(op, rpc_id, reply.result, started,
                                          attempt, fast=False, by_master=False,
                                          sync_rpc=True)
                except (AppError, RpcTimeout) as error:
                    # Master crashed/deposed before the sync: restart the
                    # whole operation (same RpcId).
                    last_error = error
            elif status == "app":
                error: AppError = payload
                last_error = error
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
                    # never reclaim them either).
                    accepted = [witness for witness, ok
                                in zip(witnesses, accepted_flags)
                                if ok]
                    self._abort_records(master.master_id, accepted,
                                        op, rpc_id)
                    yield from self._refresh_routing()
                    continue
            else:  # timeout
                last_error = payload
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

    # ------------------------------------------------------------------
    # the 1 + f fan-out (§3.2.1)
    # ------------------------------------------------------------------
    def _fanout(self, master: MasterInfo, args: UpdateArgs,
                op: Operation, rpc_id, witnesses: typing.Sequence[str]):
        """Generator: issue the update and the witness records, wait for
        all of them.

        One slotted :class:`QuorumEvent` per update; completions land in
        its pre-sized results list straight from response delivery — no
        wrapper process or per-call event (docs/PERFORMANCE.md).
        Returns ``(status, payload, accepted_flags)``: status is
        ``"ok"`` (payload = the master's reply), ``"app"`` (its
        AppError) or ``"timeout"`` (any other RPC failure); a witness
        that rejected, errored or timed out is a False flag.
        """
        timeout = self.config.rpc_timeout
        quorum = QuorumEvent(self.sim, 1 + len(witnesses))
        # Fire the update RPC first, then the witness records: all
        # leave through the client NIC back to back (§3.2.1).  Under
        # config.frame_coalescing this fan-out is the primary frame
        # producer: a client with several updates in flight at one
        # instant lands them in one frame per destination.
        self.transport.call_cb(master.host, "update", args,
                               quorum.child_result, 0, timeout=timeout)
        if witnesses:
            # A record carries the whole request (op + value), so it
            # is roughly update-RPC-sized on the wire (§5.2).
            record = RecordArgs(
                master_id=master.master_id,
                key_hashes=op.key_hashes(), rpc_id=rpc_id,
                request=RecordedRequest(op=op, rpc_id=rpc_id))
            for index, witness in enumerate(witnesses):
                self.transport.call_cb(witness, "record", record,
                                       quorum.child_result, 1 + index,
                                       timeout=timeout)
        results = yield quorum
        reply = results[0]
        if isinstance(reply, AppError):
            status, payload = "app", reply
        elif isinstance(reply, BaseException):
            status, payload = "timeout", reply
        else:
            status, payload = "ok", reply
        accepted_flags = [value == RECORD_ACCEPTED for value in results[1:]]
        return status, payload, accepted_flags

    def _abort_records(self, master_id: str,
                       witnesses: typing.Sequence[str], op: Operation,
                       rpc_id) -> None:
        """Fire-and-forget gc of our own records after an abandoned,
        mis-routed attempt (the retry goes to a different master)."""
        if not witnesses:
            return
        pairs = tuple((key_hash_value, rpc_id)
                      for key_hash_value in op.key_hashes())
        args = GcArgs(master_id=master_id, pairs=pairs)
        for witness in witnesses:
            self.host.spawn(self._gc_quietly(witness, args),
                            name="abort-record-gc")

    def _gc_quietly(self, witness: str, args: GcArgs):
        try:
            yield self.transport.call(witness, "gc", args,
                                      timeout=self.config.rpc_timeout)
        except RpcError:
            pass  # witness reset/down: its slots were cleared anyway

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
    def read(self, key: str, for_update: bool = False):
        """Generator: linearizable read from the master.

        ``for_update=True`` is the §A.3 fast path for reads preparing a
        conditional update: the master may return an unsynced value
        without waiting for its durability, because the commit's
        version check revalidates it.
        """
        value, _version = yield from self.read_versioned(
            key, for_update=for_update)
        return value

    def read_versioned(self, key: str, for_update: bool = False):
        """Generator: read (value, version) — the transaction read set."""
        started = self.sim.now
        last_error: Exception | None = None
        pushback_streak = 0
        hashes = (key_hash(key),)
        for _attempt in range(1, self.config.max_attempts + 1):
            master = self._master_for(hashes)
            try:
                value, version = yield self.transport.call(
                    master.host, "read",
                    ReadArgs(key=key, allow_unsynced=for_update,
                             return_version=True),
                    timeout=self.config.rpc_timeout)
                self.completed_reads += 1
                self.last_read_latency = self.sim.now - started
                return value, version
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
