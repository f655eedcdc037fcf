"""The general CURP protocol (§3), written once for all three backends.

The RAMCloud-style master (``core``), the Redis server (``redislike``,
§5.4) and the Raft leader (``consensus``, §A.2) differ only in how an
update becomes durable.  What they share lives here: the client's
update loop around the 1 + n fan-out (§3.2.1) and its retry horizon
(§4.5), the witness gc round (§3.5), the unsynced suffix the conflict
check runs against (§3.2.3), the §4.5 orphan retry and the §4.6 witness
replay, each backend passing its own routing step, pause or
execute-and-log step.  The RIFL intake is
:meth:`~repro.rifl.ResultRegistry.admit`.
"""

from __future__ import annotations

import collections
import dataclasses
import typing

from repro.core.messages import (
    GcArgs,
    GetRecoveryDataArgs,
    RECORD_ACCEPTED,
    RecordedRequest,
)
from repro.kvstore.operations import Operation, commutative
from repro.rifl import DuplicateState
from repro.rpc import AppError, RpcError
from repro.sim.events import QuorumEvent

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.rifl import ResultRegistry
    from repro.rpc import RpcTransport

#: execute a recorded request, log it with its completion record, return
#: its log position; 0 if it is not the server's (foreign key, failure)
ExecuteStep = typing.Callable[[RecordedRequest], int]

#: modeled wire size of a gc RPC: a header plus one (64-bit key hash,
#: RpcId) pair per collected key
RPC_HEADER_BYTES = 60
GC_PAIR_WIRE_BYTES = 20


def fan_out(transport: "RpcTransport", master: str, method: str,
            args: typing.Any, witnesses: typing.Sequence[str],
            record: typing.Any, timeout: float,
            record_timeout: float | None = None) -> QuorumEvent:
    """Send ``method(args)`` to ``master``, then ``record`` to every
    witness, back to back; return the join of all of them.

    In the join's results, index 0 is the master's reply (or its error)
    and index i witness i's answer: ``RECORD_ACCEPTED`` or anything else
    (rejected, error, timeout).  A record carries the whole request, so
    it is roughly update-RPC-sized on the wire (§5.2).
    """
    quorum = QuorumEvent(transport.sim, 1 + len(witnesses))
    child_result = quorum.child_result
    transport.call_cb(master, method, args, child_result, 0,
                      timeout=timeout)
    for index, witness in enumerate(witnesses, 1):
        transport.call_cb(witness, "record", record, child_result, index,
                          timeout=record_timeout or timeout)
    return quorum


class ClientGaveUp(Exception):
    """Raised when an operation exhausted its client's attempt budget."""


@dataclasses.dataclass
class UpdateOutcome:
    """What one completed update looked like from the client."""

    result: typing.Any
    #: True = completed in 1 RTT via witnesses (or on the reply alone
    #: where no witness is asked: ASYNC / UNREPLICATED, non-CURP Redis)
    fast_path: bool
    #: True = the server synced before replying (conflict path)
    synced_by_master: bool
    #: True = client had to issue a separate sync RPC
    sync_rpc_needed: bool
    attempts: int
    latency: float


def retry_horizon(max_attempts: int, per_attempt: float) -> float:
    """§4.5: the longest a client retries one update (µs), each attempt
    (its RPC deadlines and the pause after it) at most ``per_attempt``."""
    return max_attempts * per_attempt


def run_update(client, op: Operation, rpc_id=None):
    """Generator: one update (§3.2.1; §5.4 and §A.2 alike); returns its
    :class:`UpdateOutcome`.

    Each attempt fans out to the server and witnesses the backend's
    routing step ``client._route(op, rpc_id)`` names — ``(server,
    method, args, witnesses, record, need, timeout, record_timeout)``,
    or None for no server — and completes on a synced reply or ``need``
    accepts, else after a ``sync`` naming the RpcId.  A timeout, an
    error or ``UNKNOWN_RPC`` (the server lost the update) restarts with
    the same RpcId (RIFL, §3.3) after ``client._pause(error, route,
    results, streak)``, which may raise what it will not retry and
    returns its next ``streak``.  ``client._on_reply`` is None or sees
    each reply.  Gives up after ``client.max_attempts`` attempts.
    """
    if not op.is_update:
        raise ValueError("use read() for read operations")
    tracker = client.tracker
    assert tracker is not None, "client not connected"
    if rpc_id is None:
        rpc_id = tracker.new_rpc()
    transport = client.transport
    on_reply = client._on_reply
    started = client.sim.now
    streak = 0
    for attempt in range(1, client.max_attempts + 1):
        route = client._route(op, rpc_id)
        error = results = None
        if route is not None:
            (server, method, args, witnesses, record, need, timeout,
             record_timeout) = route
            results = yield fan_out(transport, server, method, args,
                                    witnesses, record, timeout,
                                    record_timeout)
            reply = results[0]
            if isinstance(reply, BaseException):
                error = reply
                if isinstance(error, AppError) and error.code == "STALE_RPC":
                    raise error  # pragma: no cover - guard
            else:
                if on_reply is not None:
                    on_reply(reply)
                if reply.synced or results[1:].count(RECORD_ACCEPTED) \
                        >= need:
                    return _completed(client, rpc_id, reply.result, started,
                                      attempt, reply.synced, False)
                try:  # the slow path: sync through this update's entry
                    yield transport.call(server, "sync", rpc_id,
                                         timeout=timeout)
                except RpcError as failure:
                    error = failure
                else:
                    return _completed(client, rpc_id, reply.result, started,
                                      attempt, False, True)
        streak = yield from client._pause(error, route, results, streak)
    raise ClientGaveUp(f"update {op!r} failed after {client.max_attempts} "
                       f"attempts: {error!r}")


def _completed(client, rpc_id, result, started: float, attempts: int,
               by_master: bool, sync_rpc: bool) -> UpdateOutcome:
    """Ack ``rpc_id`` only now (no later update's ack may drop the record
    a sync resolves) and count the outcome."""
    client.tracker.completed(rpc_id)
    fast = not (by_master or sync_rpc)
    outcome = UpdateOutcome(result, fast, by_master, sync_rpc, attempts,
                            client.sim.now - started)
    client.completed_updates += 1
    client.fast_path_updates += fast
    if client.collect_outcomes:
        client.outcomes.append(outcome)
    return outcome


def gc_round(transport: "RpcTransport", witnesses: typing.Sequence[str],
             master_id: str, pairs: typing.Sequence[tuple[int, typing.Any]],
             timeout: float) -> QuorumEvent:
    """Drop durable ``(key hash, rpc_id)`` pairs from every witness, one
    ``gc`` RPC each, all in flight at once; return the join.  Its
    results are each witness's §4.5 stale suspects, or its error."""
    args = GcArgs(master_id=master_id, pairs=tuple(pairs))
    wire_size = RPC_HEADER_BYTES + GC_PAIR_WIRE_BYTES * len(pairs)
    join = QuorumEvent(transport.sim, len(witnesses))
    for index, witness in enumerate(witnesses):
        transport.call_cb(witness, "gc", args, join.child_result, index,
                          timeout=timeout, request_size=wire_size)
    return join


class RecoveryFailed(Exception):
    """No backup (or no witness) could be reached."""


def first_answer(transport: "RpcTransport", hosts: typing.Sequence[str],
                 method: str, args: typing.Any, timeout: float):
    """Generator: ``method(args)`` on each of ``hosts`` in turn; returns
    the first answer, or raises :class:`RecoveryFailed`."""
    for host in hosts:
        try:
            return (yield transport.call(host, method, args, timeout=timeout))
        except RpcError:
            continue
    raise RecoveryFailed(f"no {method} answer among {list(hosts)}")


def fetch_recovery_data(transport: "RpcTransport",
                        witnesses: typing.Sequence[str], master_id: str,
                        timeout: float):
    """Generator: the saved requests of the first reachable witness,
    which ``get_recovery_data`` freezes (§4.6).  With none reachable the
    server must wait (§3.3): losing them would lose completed updates."""
    if not witnesses:
        return ()
    return (yield from first_answer(transport, witnesses, "get_recovery_data",
                                    GetRecoveryDataArgs(master_id), timeout))


def replay(registry: "ResultRegistry",
           requests: typing.Iterable[RecordedRequest],
           execute: ExecuteStep) -> tuple[int, int]:
    """§4.6: ``execute`` every request with no completion record here, in
    any order (a witness holds only commuting requests), ignoring acks
    (§4.8 modification 1: a live master absorbing a dead one's partition
    may have seen acks for speculative updates only witnesses hold);
    returns ``(replayed, filtered)``."""
    replayed = filtered = 0
    registry.begin_recovery()
    try:
        for request in requests:
            if (registry.check(request.rpc_id)[0]
                    is not DuplicateState.COMPLETED
                    and execute(request)):
                replayed += 1
            else:
                filtered += 1
    finally:
        registry.end_recovery()
    return replayed, filtered


def retry_orphans(registry: "ResultRegistry", replies: typing.Iterable,
                  durable_position: int, execute: ExecuteStep,
                  collect: typing.Callable) -> int:
    """§4.5: gc ``replies`` report records nobody collected (their client
    gave up or died before reaching the server); an error reply is
    skipped, and an ``RpcId`` several witnesses report is handled once.
    A new orphan goes through ``execute``; its entry's sync + gc collects
    it.  The others are collected at once, all of them by one
    ``collect(pairs)`` gc round, or they could stay pinned on an idle
    server — unless an entry is not durable yet: that entry's own gc
    round collects every witness's copy.  Returns the number handled."""
    handled = 0
    pairs: list[tuple[int, typing.Any]] = []
    suspects = {request.rpc_id: request for reply in replies
                if not isinstance(reply, BaseException)  # witness down
                for request in reply}
    for rpc_id, request in suspects.items():
        record = registry.get(rpc_id)
        if record is not None and record.log_position > durable_position:
            continue
        handled += 1
        if (record is not None
                or registry.check(rpc_id)[0] is not DuplicateState.NEW
                or not execute(request)):
            pairs.extend((key_hash, rpc_id)
                         for key_hash in request.op.touched_hashes())
    if pairs:
        collect(tuple(pairs))
    return handled


class UnsyncedSuffix:
    """The updates a server executed but has not made durable, in
    increasing position order (positions start at 1).

    Operations with disjoint key hashes commute, so a per-key-hash
    index gives :meth:`conflicts` the verdict of a full scan.
    """

    def __init__(self) -> None:
        #: (position, op, rpc_id), oldest first
        self._entries: collections.deque = collections.deque()
        #: key hash -> (position, op) of the entries touching it
        self._by_hash: dict[int, collections.deque] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def append(self, position: int, op: Operation, rpc_id) -> None:
        """``op`` executed at ``position``; an ``rpc_id`` of None leaves
        nothing on the witnesses to collect (a read in a Raft log)."""
        self._entries.append((position, op, rpc_id))
        for key_hash in op.touched_hashes():
            bucket = self._by_hash.get(key_hash)
            if bucket is None:
                bucket = self._by_hash[key_hash] = collections.deque()
            bucket.append((position, op))

    def conflicts(self, op: Operation) -> int:
        """Position of the latest unsynced operation ``op`` does not
        commute with; 0 when it commutes with all of them."""
        latest = 0
        for key_hash in op.touched_hashes():
            for position, other in reversed(self._by_hash.get(key_hash, ())):
                if position <= latest:
                    break
                if not commutative(op, other):
                    latest = position
                    break
        return latest

    def durable(self, upto: int) -> list[tuple[int, typing.Any]]:
        """Forget every entry at a position <= ``upto`` and return their
        ``(key hash, rpc_id)`` gc pairs."""
        pairs: list[tuple[int, typing.Any]] = []
        entries = self._entries
        while entries and entries[0][0] <= upto:
            _position, op, rpc_id = entries.popleft()
            for key_hash in op.touched_hashes():
                bucket = self._by_hash[key_hash]
                bucket.popleft()
                if not bucket:
                    del self._by_hash[key_hash]
                if rpc_id is not None:
                    pairs.append((key_hash, rpc_id))
        return pairs
