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

from repro.core.messages import RecordedRequest
from repro.consensus.raft import ProposeArgs, ProposeReply, WitnessRecordArgs
from repro.kvstore.operations import Operation, Read
from repro.rifl import RiflClientTracker
from repro.rpc import AppError, RpcError, RpcTransport, backoff_delay
from repro.sim.events import QuorumEvent

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.net.host import Host


def superquorum_size(f: int) -> int:
    """f + ⌈f/2⌉ + 1 witnesses must accept for the 1-RTT fast path."""
    return f + math.ceil(f / 2) + 1


class ConsensusGaveUp(Exception):
    """Retries exhausted (no reachable/stable leader)."""


class RaftCurpClient:
    """Client of a CURP-extended Raft group."""

    _next_client_id = 1000

    def __init__(self, host: "Host", replicas: typing.Sequence[str],
                 rpc_timeout: float = 1_000.0, max_attempts: int = 30,
                 retry_backoff: float = 500.0):
        RaftCurpClient._next_client_id += 1
        self.host = host
        self.sim = host.sim
        self.replicas = list(replicas)
        self.f = (len(self.replicas) - 1) // 2
        self.rpc_timeout = rpc_timeout
        #: cap (µs) for the bounded exponential retry backoff: attempt
        #: k sleeps equal-jittered in [span/2, span) with span =
        #: min(retry_backoff, retry_backoff/8 × 2^k) — short first
        #: retries (a leader election resolves in a few heartbeats),
        #: desynchronized long ones (no client retry storms against a
        #: group that stays leaderless)
        self.max_attempts = max_attempts
        self.retry_backoff = retry_backoff
        self.transport = RpcTransport(host)
        self.tracker = RiflClientTracker(RaftCurpClient._next_client_id)
        self.leader: str | None = None
        self.term = 0
        self.fast_path_updates = 0
        self.completed_updates = 0

    # ------------------------------------------------------------------
    def find_leader(self):
        """Generator: poll replicas until someone claims leadership."""
        for attempt in range(self.max_attempts):
            for replica in self.replicas:
                try:
                    status = yield self.transport.call(
                        replica, "status", None, timeout=self.rpc_timeout)
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
        return backoff_delay(attempt, self.retry_backoff / 8,
                             self.retry_backoff, self.sim.rng)

    def update(self, op: Operation):
        """Generator: a linearizable update; returns (result, fast)."""
        if not op.is_update:
            raise ValueError("use read() for read operations")
        rpc_id = self.tracker.new_rpc()
        for attempt in range(self.max_attempts):
            if self.leader is None:
                yield from self.find_leader()
            leader = self.leader
            propose = ProposeArgs(op=op, rpc_id=rpc_id,
                                  ack_seq=self.tracker.first_incomplete)
            record = WitnessRecordArgs(
                term=self.term, key_hashes=op.touched_hashes(), rpc_id=rpc_id,
                request=RecordedRequest(op=op, rpc_id=rpc_id))
            # Callback fan-out (1 propose + 2f+1 records): completions
            # land in one pre-sized join, no wrapper process per call.
            join = QuorumEvent(self.sim, 1 + len(self.replicas))
            self.transport.call_cb(leader, "propose", propose,
                                   join.child_result, 0,
                                   timeout=self.rpc_timeout * 4)
            for index, replica in enumerate(self.replicas):
                self.transport.call_cb(replica, "w_record", record,
                                       join.child_result, 1 + index,
                                       timeout=self.rpc_timeout)
            results = yield join
            head = results[0]
            if isinstance(head, AppError):
                status, payload = "app", head
            elif isinstance(head, BaseException):
                status, payload = "timeout", head
            else:
                status, payload = "ok", head
            accepts = 0
            for outcome in results[1:]:
                if isinstance(outcome, BaseException):
                    continue  # replica unreachable
                w_status, w_term, _hint = outcome
                self.term = max(self.term, w_term)
                if w_status == "ACCEPTED":
                    accepts += 1
            if status == "ok":
                reply: ProposeReply = payload
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
                                              timeout=self.rpc_timeout * 4)
                    self.completed_updates += 1
                    self.tracker.completed(rpc_id)
                    return reply.result, False
                except (AppError, RpcError):
                    pass  # leader fell; retry whole operation
            elif status == "app" and isinstance(payload, AppError):
                if payload.code == "NOT_LEADER":
                    hint = (payload.info or {}).get("hint")
                    self.term = max(self.term,
                                    (payload.info or {}).get("term", 0))
                    self.leader = hint if hint != leader else None
                else:
                    raise payload
            else:
                self.leader = None
            yield self.sim.timeout(self._retry_delay(attempt))
        raise ConsensusGaveUp(f"update {op!r} failed after "
                              f"{self.max_attempts} attempts")

    def read(self, key: str):
        """Generator: linearizable read (via the commit path)."""
        result, _fast = yield from self.update_readonly(Read(key))
        return result

    def update_readonly(self, op: Operation):
        for attempt in range(self.max_attempts):
            if self.leader is None:
                yield from self.find_leader()
            try:
                reply = yield self.transport.call(
                    self.leader, "propose",
                    ProposeArgs(op=op, rpc_id=None),
                    timeout=self.rpc_timeout * 4)
                self.term = max(self.term, reply.term)
                return reply.result, False
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

