"""The CURP consensus client (§A.2).

An update is ``core.curp.run_update``; it completes in 1 RTT when

- the leader executed it speculatively and replied, **and**
- a *superquorum* of f + ⌈f/2⌉ + 1 of the 2f+1 witness components
  accepted the record.

Why a superquorum: during a leadership change only f+1 witnesses may be
reachable; a completed operation must appear on a majority (⌈f/2⌉+1)
of *any* f+1 of them, and any non-commutative operation can appear on
at most ⌊f/2⌋ — so majority-replay is both safe and sufficient (§A.2).

With fewer accepts the client asks the leader to ``sync`` its RpcId
(its entry's quorum commit) — 2 RTTs, the classic strong-leader path.
Records carry the client's view of the term; witnesses reject stale
terms, which neutralizes clients still talking to a deposed zombie
leader.
"""

from __future__ import annotations

import math
import typing

from repro.consensus.raft import RAFT_WITNESS, ProposeArgs
from repro.core.curp import (
    ClientGaveUp,
    UpdateOutcome,
    retry_horizon,
    run_update,
)
from repro.core.messages import RecordArgs, RecordedRequest
from repro.kvstore.operations import Operation, Read
from repro.rifl import RiflClientTracker
from repro.rpc import AppError, RpcError, RpcTransport, backoff_delay

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.net.host import Host


#: per-RPC deadline (µs); a propose and its sync get 4×
RPC_TIMEOUT = 1_000.0
#: cap (µs) for the bounded exponential retry backoff: attempt k sleeps
#: equal-jittered in [span/2, span) with span = min(RETRY_BACKOFF,
#: RETRY_BACKOFF/8 × 2^k) — short first retries (a leader election
#: resolves in a few heartbeats), desynchronized long ones (no client
#: retry storms against a group that stays leaderless)
RETRY_BACKOFF = 500.0
#: attempts per update and read
MAX_ATTEMPTS = 30


def suspect_after(n_replicas: int) -> float:
    """§4.5: the client retry horizon (µs).  An attempt is a propose
    and a ``sync`` (4 deadlines each), a backoff and one ``status``
    round over the replicas."""
    return retry_horizon(MAX_ATTEMPTS, (n_replicas + 8) * RPC_TIMEOUT
                         + RETRY_BACKOFF)


def superquorum_size(f: int) -> int:
    """f + ⌈f/2⌉ + 1 witnesses must accept for the 1-RTT fast path."""
    return f + math.ceil(f / 2) + 1


class RaftCurpClient:
    """Client of a CURP-extended Raft group."""

    _next_client_id = 1000

    def __init__(self, host: "Host", replicas: typing.Sequence[str]):
        RaftCurpClient._next_client_id += 1
        self.host = host
        self.sim = host.sim
        self.replicas = list(replicas)
        self.f = (len(self.replicas) - 1) // 2
        self.max_attempts = MAX_ATTEMPTS
        self.transport = RpcTransport(host)
        self.tracker = RiflClientTracker(RaftCurpClient._next_client_id)
        self.leader: str | None = None
        self.term = 0
        self.collect_outcomes = True
        self.outcomes: list[UpdateOutcome] = []
        self.fast_path_updates = 0
        self.completed_updates = 0

    # ------------------------------------------------------------------
    def find_leader(self):
        """Generator: one ``status`` round over the replicas; returns the
        leader it learned of, or None."""
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
        return self.leader

    def update(self, op: Operation):
        """Generator: a linearizable update; returns (result, fast)."""
        outcome = yield from run_update(self, op)
        return outcome.result, outcome.fast_path

    def _route(self, op: Operation, rpc_id):
        """1 propose to the known leader + 2f+1 term-tagged records."""
        if self.leader is None:
            return None
        record = (self.term, RecordArgs(RAFT_WITNESS, op.touched_hashes(),
                                        rpc_id, RecordedRequest(op, rpc_id)))
        return (self.leader, "propose",
                ProposeArgs(op=op, rpc_id=rpc_id,
                            ack_seq=self.tracker.first_incomplete),
                self.replicas, record, superquorum_size(self.f),
                RPC_TIMEOUT * 4, RPC_TIMEOUT)

    def _on_reply(self, reply) -> None:
        self.term = max(self.term, reply.term)

    def _pause(self, error, route, results, streak: int):
        """Between attempts (updates and reads): follow a ``NOT_LEADER``
        answer's term and hint, forget a leader that did not answer,
        back off, and poll for a leader if none is known."""
        if isinstance(error, AppError):
            if error.code == "NOT_LEADER":
                info = error.info or {}
                self.term = max(self.term, info.get("term", 0))
                hint = info.get("hint")
                self.leader = hint if hint != self.leader else None
            elif error.code != "UNKNOWN_RPC":
                raise error
        else:
            self.leader = None
        yield self.sim.timeout(backoff_delay(
            streak, RETRY_BACKOFF / 8, RETRY_BACKOFF, self.sim.rng))
        if self.leader is None:
            yield from self.find_leader()
        return streak + 1

    def read(self, key: str):
        """Generator: linearizable read through the leader."""
        for attempt in range(self.max_attempts):
            error = None
            if self.leader is not None:
                try:
                    reply = yield self.transport.call(
                        self.leader, "propose",
                        ProposeArgs(op=Read(key), rpc_id=None),
                        timeout=RPC_TIMEOUT * 4)
                    self._on_reply(reply)
                    return reply.result
                except RpcError as failure:
                    error = failure
            yield from self._pause(error, None, None, attempt)
        raise ClientGaveUp(f"read {key!r} failed: {error!r}")
