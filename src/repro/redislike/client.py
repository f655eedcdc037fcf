"""Redis clients for the three durability modes.

In CURP mode a write command is sent to the server and recorded on all
witnesses concurrently (§5.4); the client completes when

- the server's reply says ``synced`` (conflict path), or
- the server replied speculatively and **all** witnesses accepted, or
- otherwise after an explicit ``sync`` round trip, which names the
  command's RpcId so the server fsyncs only through that command.

In NONDURABLE/DURABLE modes the client is a plain request/response
client — durability (or its absence) is entirely the server's affair.
"""

from __future__ import annotations

import dataclasses
import typing

from repro.core.curp import fan_out
from repro.core.messages import RECORD_ACCEPTED, RecordArgs, RecordedRequest
from repro.redislike.commands import Command
from repro.redislike.server import CommandArgs, DurabilityMode
from repro.rifl import RiflClientTracker
from repro.rpc import RpcTransport

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.net.host import Host

#: per-RPC deadline (µs) for commands and the explicit ``sync``
RPC_TIMEOUT = 5_000.0
#: §4.5 record age (µs) past which a rejecting witness record is a
#: suspect: a client waits for one command and one sync, never retries
SUSPECT_AFTER = 2 * RPC_TIMEOUT


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
                 collect_outcomes: bool = True):
        RedisClient._next_client_id += 1
        self.host = host
        self.sim = host.sim
        self.server = server
        self.mode = mode
        self.witnesses = list(witnesses)
        self.server_master_id = server_master_id or f"redis:{server}"
        self.transport = RpcTransport(host)
        self.tracker = RiflClientTracker(RedisClient._next_client_id)
        self.collect_outcomes = collect_outcomes
        self.outcomes: list[RedisOutcome] = []
        self.completed = 0

    # ------------------------------------------------------------------
    def execute(self, command: Command):
        """Generator: run one command; returns a RedisOutcome."""
        started = self.sim.now
        rpc_id = self.tracker.new_rpc() if command.is_write else None
        args = CommandArgs(command=command, rpc_id=rpc_id,
                           ack_seq=self.tracker.first_incomplete)
        witnesses, record = (), None
        if rpc_id is not None and self.mode is DurabilityMode.CURP \
                and self.witnesses:
            # CURP write: command + witness records in parallel.
            witnesses = self.witnesses
            record = RecordArgs(self.server_master_id,
                                command.touched_hashes(), rpc_id,
                                RecordedRequest(command, rpc_id))
        results = yield fan_out(self.transport, self.server, "command", args,
                                witnesses, record, RPC_TIMEOUT)
        reply = results[0]
        if isinstance(reply, Exception):
            raise reply
        if not witnesses:
            return self._finish(rpc_id, reply.result, started, fast=True,
                                sync_rpc=False)
        if reply.synced:
            return self._finish(rpc_id, reply.result, started, fast=False,
                                sync_rpc=False)
        # a witness that rejected, errored or timed out did not accept
        if results[1:].count(RECORD_ACCEPTED) == len(witnesses):
            return self._finish(rpc_id, reply.result, started, fast=True,
                                sync_rpc=False)
        # the server syncs through this command's AOF seq
        yield self.transport.call(self.server, "sync", rpc_id,
                                  timeout=RPC_TIMEOUT)
        return self._finish(rpc_id, reply.result, started, fast=False,
                            sync_rpc=True)

    def _finish(self, rpc_id, result, started, fast: bool,
                sync_rpc: bool) -> RedisOutcome:
        """Complete a command: ack its RpcId (writes) only now, so no
        later command's ack drops the record a sync resolves."""
        if rpc_id is not None:
            self.tracker.completed(rpc_id)
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
