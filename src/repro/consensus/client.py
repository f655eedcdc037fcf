"""The CURP consensus client (§A.2).

An update completes in 1 RTT when

- the leader executed it speculatively and replied, **and**
- a *superquorum* of f + ⌈f/2⌉ + 1 of the 2f+1 witness components
  accepted the record.

Why a superquorum: during a leadership change only f+1 witnesses may be
reachable; a completed operation must appear on a majority (⌈f/2⌉+1)
of *any* f+1 of them, and any non-commutative operation can appear on
at most ⌊f/2⌋ — so majority-replay is both safe and sufficient (§A.2).

With fewer accepts the client falls back to ``wait_commit`` — 2 RTTs,
the classic strong-leader path.  Records carry the client's view of the
term; witnesses reject stale terms, which neutralizes clients still
talking to a deposed zombie leader.
"""

from __future__ import annotations

import math
import typing

from repro.consensus.raft import RAFT_WITNESS, ProposeArgs
from repro.core.curp import fan_out
from repro.core.messages import RECORD_ACCEPTED, RecordArgs, RecordedRequest
from repro.kvstore.operations import Operation, Read
from repro.rifl import RiflClientTracker
from repro.rpc import AppError, RpcError, RpcTransport, backoff_delay

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.net.host import Host


#: per-RPC deadline (µs); a propose and its wait_commit get 4×
RPC_TIMEOUT = 1_000.0
#: cap (µs) for the bounded exponential retry backoff: attempt k sleeps
#: equal-jittered in [span/2, span) with span = min(RETRY_BACKOFF,
#: RETRY_BACKOFF/8 × 2^k) — short first retries (a leader election
#: resolves in a few heartbeats), desynchronized long ones (no client
#: retry storms against a group that stays leaderless)
RETRY_BACKOFF = 500.0
#: attempts per update, read and leader search
MAX_ATTEMPTS = 30


def suspect_after(n_replicas: int) -> float:
    """§4.5: the longest a client retries one update (µs): per
    attempt a leader search, a propose, a ``wait_commit`` and a backoff."""
    find_leader = MAX_ATTEMPTS * (n_replicas * RPC_TIMEOUT + RETRY_BACKOFF)
    return MAX_ATTEMPTS * (find_leader + 8 * RPC_TIMEOUT + RETRY_BACKOFF)


def superquorum_size(f: int) -> int:
    """f + ⌈f/2⌉ + 1 witnesses must accept for the 1-RTT fast path."""
    return f + math.ceil(f / 2) + 1


class ConsensusGaveUp(Exception):
    """Retries exhausted (no reachable/stable leader)."""


class RaftCurpClient:
    """Client of a CURP-extended Raft group."""

    _next_client_id = 1000

    def __init__(self, host: "Host", replicas: typing.Sequence[str]):
        RaftCurpClient._next_client_id += 1
        self.host = host
        self.sim = host.sim
        self.replicas = list(replicas)
        self.f = (len(self.replicas) - 1) // 2
        self.transport = RpcTransport(host)
        self.tracker = RiflClientTracker(RaftCurpClient._next_client_id)
        self.leader: str | None = None
        self.term = 0
        self.fast_path_updates = 0
        self.completed_updates = 0

    # ------------------------------------------------------------------
    def find_leader(self):
        """Generator: poll replicas until someone claims leadership."""
        for attempt in range(MAX_ATTEMPTS):
            for replica in self.replicas:
                try:
                    status = yield self.transport.call(
                        replica, "status", None, timeout=RPC_TIMEOUT)
                except RpcError:
                    continue
                self.term = max(self.term, status["term"])
                if status["role"] == "leader":
                    self.leader = replica
                    return replica
                if status["leader"] is not None:
                    self.leader = status["leader"]
            if self.leader is not None:
                return self.leader
            yield self.sim.timeout(self._retry_delay(attempt))
        raise ConsensusGaveUp("no leader found")

    def _retry_delay(self, attempt: int) -> float:
        """Bounded exponential backoff + jitter between retries."""
        return backoff_delay(attempt, RETRY_BACKOFF / 8, RETRY_BACKOFF,
                             self.sim.rng)

    def update(self, op: Operation):
        """Generator: a linearizable update; returns (result, fast)."""
        if not op.is_update:
            raise ValueError("use read() for read operations")
        rpc_id = self.tracker.new_rpc()
        for attempt in range(MAX_ATTEMPTS):
            if self.leader is None:
                yield from self.find_leader()
            leader = self.leader
            propose = ProposeArgs(op=op, rpc_id=rpc_id,
                                  ack_seq=self.tracker.first_incomplete)
            record = (self.term, RecordArgs(
                RAFT_WITNESS, op.touched_hashes(), rpc_id,
                RecordedRequest(op, rpc_id)))
            # 1 propose + 2f+1 records, one join.
            results = yield fan_out(self.transport, leader, "propose",
                                    propose, self.replicas, record,
                                    RPC_TIMEOUT * 4,
                                    record_timeout=RPC_TIMEOUT)
            reply = results[0]
            accepts = results[1:].count(RECORD_ACCEPTED)
            if not isinstance(reply, BaseException):
                self.term = max(self.term, reply.term)
                if reply.synced or accepts >= superquorum_size(self.f):
                    if not reply.synced:
                        self.fast_path_updates += 1
                    self.completed_updates += 1
                    self.tracker.completed(rpc_id)
                    return reply.result, not reply.synced
                # Slow path: wait for the quorum commit.
                try:
                    yield self.transport.call(leader, "wait_commit", None,
                                              timeout=RPC_TIMEOUT * 4)
                    self.completed_updates += 1
                    self.tracker.completed(rpc_id)
                    return reply.result, False
                except (AppError, RpcError):
                    pass  # leader fell; retry whole operation
            elif isinstance(reply, AppError):
                if reply.code != "NOT_LEADER":
                    raise reply
                info = reply.info or {}
                self.term = max(self.term, info.get("term", 0))
                hint = info.get("hint")
                self.leader = hint if hint != leader else None
            else:
                self.leader = None
            yield self.sim.timeout(self._retry_delay(attempt))
        raise ConsensusGaveUp(f"update {op!r} failed after "
                              f"{MAX_ATTEMPTS} attempts")

    def read(self, key: str):
        """Generator: linearizable read through the leader."""
        for attempt in range(MAX_ATTEMPTS):
            if self.leader is None:
                yield from self.find_leader()
            try:
                reply = yield self.transport.call(
                    self.leader, "propose",
                    ProposeArgs(op=Read(key), rpc_id=None),
                    timeout=RPC_TIMEOUT * 4)
                self.term = max(self.term, reply.term)
                return reply.result
            except AppError as error:
                if error.code == "NOT_LEADER":
                    hint = (error.info or {}).get("hint")
                    self.leader = hint if hint != self.leader else None
                else:
                    raise
            except RpcError:
                self.leader = None
            yield self.sim.timeout(self._retry_delay(attempt))
        raise ConsensusGaveUp("read failed")

