"""Redis clients for the three durability modes.

A write command is ``core.curp.run_update``.  In CURP mode it is sent
to the server and recorded on all witnesses concurrently (§5.4); the
client completes when

- the server's reply says ``synced`` (conflict path), or
- the server replied speculatively and **all** witnesses accepted, or
- otherwise after an explicit ``sync`` round trip, which names the
  command's RpcId so the server fsyncs only through that command.

A timeout or a ``sync`` answered ``UNKNOWN_RPC`` (a restart lost the
command) resends it with its RpcId: the server restarts in place.  In
NONDURABLE/DURABLE modes a write completes on the reply alone —
durability (or its absence) is entirely the server's affair.  A read is
one round trip.
"""

from __future__ import annotations

import typing

from repro.core.curp import UpdateOutcome, retry_horizon, run_update
from repro.core.messages import RecordArgs, RecordedRequest
from repro.redislike.commands import Command
from repro.redislike.server import CommandArgs, DurabilityMode
from repro.rifl import RiflClientTracker
from repro.rpc import AppError, RpcTransport

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.net.host import Host

#: per-RPC deadline (µs) for commands and the explicit ``sync``
RPC_TIMEOUT = 5_000.0
#: pause (µs) before resending a write command
RETRY_BACKOFF = 100.0
#: attempts per write command
MAX_ATTEMPTS = 30
#: §4.5 record age (µs) past which a rejecting witness record is a
#: suspect: the client retry horizon, an attempt being a command and a
#: sync (one deadline each) and a pause
SUSPECT_AFTER = retry_horizon(MAX_ATTEMPTS, 2 * RPC_TIMEOUT + RETRY_BACKOFF)


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
        self.max_attempts = MAX_ATTEMPTS
        self.transport = RpcTransport(host)
        self.tracker = RiflClientTracker(RedisClient._next_client_id)
        self.collect_outcomes = collect_outcomes
        self.outcomes: list[UpdateOutcome] = []
        self.completed_updates = 0
        self.completed_reads = 0
        self.fast_path_updates = 0

    # ------------------------------------------------------------------
    def execute(self, command: Command):
        """Generator: run one command; returns an UpdateOutcome (a read
        is one attempt on the fast path)."""
        if command.is_write:
            return (yield from run_update(self, command))
        started = self.sim.now
        reply = yield self.transport.call(
            self.server, "command", CommandArgs(command=command),
            timeout=RPC_TIMEOUT)
        self.completed_reads += 1
        return UpdateOutcome(reply.result, True, False, False, 1,
                             self.sim.now - started)

    _on_reply = None

    def _route(self, command: Command, rpc_id):
        """The one server, and in CURP mode all of its witnesses."""
        witnesses, record = (), None
        if self.mode is DurabilityMode.CURP and self.witnesses:
            witnesses = self.witnesses
            record = RecordArgs(self.server_master_id,
                                command.touched_hashes(), rpc_id,
                                RecordedRequest(command, rpc_id))
        return (self.server, "command",
                CommandArgs(command, rpc_id, self.tracker.first_incomplete),
                witnesses, record, len(witnesses), RPC_TIMEOUT, None)

    def _pause(self, error, route, results, streak: int):
        """Between attempts: a command the server rejected is the
        caller's error; anything else is resent after a short pause."""
        if isinstance(error, AppError) and error.code == "COMMAND_ERROR":
            raise error
        yield self.sim.timeout(RETRY_BACKOFF)
        return streak

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
