"""Redis clients for the three durability modes.

In CURP mode a write command is sent to the server and recorded on all
witnesses concurrently (§5.4); the client completes when

- the server's reply says ``synced`` (conflict path), or
- the server replied speculatively and **all** witnesses accepted, or
- after an explicit ``sync`` round trip otherwise.

In NONDURABLE/DURABLE modes the client is a plain request/response
client — durability (or its absence) is entirely the server's affair.
"""

from __future__ import annotations

import dataclasses
import typing

from repro.core.messages import RECORD_ACCEPTED, RecordArgs, RecordedRequest
from repro.kvstore.hashing import key_hash
from repro.redislike.commands import Command
from repro.redislike.server import CommandArgs, DurabilityMode
from repro.rifl import RiflClientTracker
from repro.rpc import RpcTransport
from repro.sim.events import QuorumEvent

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.net.host import Host


@dataclasses.dataclass
class RedisOutcome:
    result: typing.Any
    fast_path: bool
    sync_rpc_needed: bool
    latency: float


class RedisClient:
    """One application client bound to one server."""

    _next_client_id = 0

    def __init__(self, host: "Host", server: str, mode: DurabilityMode,
                 witnesses: typing.Sequence[str] = (),
                 server_master_id: str | None = None,
                 rpc_timeout: float = 5_000.0,
                 collect_outcomes: bool = True):
        RedisClient._next_client_id += 1
        self.host = host
        self.sim = host.sim
        self.server = server
        self.mode = mode
        self.witnesses = list(witnesses)
        self.server_master_id = server_master_id or f"redis:{server}"
        self.rpc_timeout = rpc_timeout
        self.transport = RpcTransport(host)
        self.tracker = RiflClientTracker(RedisClient._next_client_id)
        self.collect_outcomes = collect_outcomes
        self.outcomes: list[RedisOutcome] = []
        self.completed = 0

    # ------------------------------------------------------------------
    def execute(self, command: Command):
        """Generator: run one command; returns a RedisOutcome."""
        started = self.sim.now
        if not command.is_write or self.mode is not DurabilityMode.CURP \
                or not self.witnesses:
            args = CommandArgs(command=command,
                               rpc_id=(self.tracker.new_rpc()
                                       if command.is_write else None),
                               ack_seq=self.tracker.first_incomplete)
            reply = yield self.transport.call(self.server, "command", args,
                                              timeout=self.rpc_timeout)
            if args.rpc_id is not None:
                self.tracker.completed(args.rpc_id)
            return self._finish(reply.result, started, fast=True,
                                sync_rpc=False)
        # CURP write: command + witness records in parallel.
        rpc_id = self.tracker.new_rpc()
        args = CommandArgs(command=command, rpc_id=rpc_id,
                           ack_seq=self.tracker.first_incomplete)
        record = RecordArgs(master_id=self.server_master_id,
                            key_hashes=(key_hash(command.key),),
                            rpc_id=rpc_id,
                            request=RecordedRequest(op=command, rpc_id=rpc_id))
        join = QuorumEvent(self.sim, 1 + len(self.witnesses))
        self.transport.call_cb(self.server, "command", args,
                               join.child_result, 0,
                               timeout=self.rpc_timeout)
        for index, witness in enumerate(self.witnesses):
            self.transport.call_cb(witness, "record", record,
                                   join.child_result, 1 + index,
                                   timeout=self.rpc_timeout)
        results = yield join
        reply = results[0]
        if isinstance(reply, Exception):
            raise reply
        # a witness that rejected, errored or timed out did not accept
        accepted = all(value == RECORD_ACCEPTED
                       for value in results[1:])
        self.tracker.completed(rpc_id)
        if reply.synced:
            return self._finish(reply.result, started, fast=False,
                                sync_rpc=False)
        if accepted:
            return self._finish(reply.result, started, fast=True,
                                sync_rpc=False)
        yield self.transport.call(self.server, "sync", None,
                                  timeout=self.rpc_timeout)
        return self._finish(reply.result, started, fast=False, sync_rpc=True)

    def _finish(self, result, started, fast: bool,
                sync_rpc: bool) -> RedisOutcome:
        outcome = RedisOutcome(result=result, fast_path=fast,
                               sync_rpc_needed=sync_rpc,
                               latency=self.sim.now - started)
        self.completed += 1
        if self.collect_outcomes:
            self.outcomes.append(outcome)
        return outcome

    # ------------------------------------------------------------------
    # convenience verbs
    # ------------------------------------------------------------------
    def set(self, key: str, value: str):
        return self.execute(Command("SET", (key, value)))

    def get(self, key: str):
        return self.execute(Command("GET", (key,)))

    def incr(self, key: str):
        return self.execute(Command("INCR", (key,)))

    def hmset(self, key: str, mapping: dict):
        return self.execute(Command("HMSET", (key, mapping)))
