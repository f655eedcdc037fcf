"""The Redis-like server: a single-threaded event loop.

The loop mirrors Redis's structure (§C.2): take everything waiting on
the sockets, execute it all, then — in DURABLE mode — issue **one**
fsync for the whole batch before replying to anyone.  That batching is
why Figure 9's durable line approaches the non-durable line at high
client counts, and why Figure 13 shows its latency growing linearly.

Modes:

- ``NONDURABLE`` — stock Redis: execute, reply, never fsync.
  Everything since the last OS flush dies with the process.
- ``DURABLE`` — fsync-always: the event loop blocks on one fsync per
  cycle; replies only after the batch is durable (2-100× latency).
- ``CURP`` — the paper's §5.4 system: execute, reply *immediately*
  (speculative), fsync in the background; clients record commands on
  witnesses in parallel.  Conflicting commands (touching a key whose
  last write is not yet durable) wait for durability and are tagged
  ``synced`` (§3.2.3); after each fsync the server garbage-collects
  the newly-durable commands from its witnesses (§3.5).  The RIFL
  intake, the §4.5 orphan retry and the §4.6 witness replay are the
  ones the master uses (``ResultRegistry.admit``, ``core.curp``).
"""

from __future__ import annotations

import dataclasses
import enum
import typing

from repro.core.curp import (
    UnsyncedSuffix,
    fetch_recovery_data,
    gc_round,
    replay,
    retry_orphans,
)
from repro.redislike.aof import AppendOnlyFile
from repro.redislike.commands import Command, CommandError, execute
from repro.redislike.datastructures import RedisStore, WrongTypeError
from repro.rifl import ResultRegistry
from repro.rpc import AppError, RpcTransport

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.net.host import Host
    from repro.sim.distributions import Distribution

#: per-RPC deadline (µs) for witness gc and recovery-time harvests
RPC_TIMEOUT = 2_000.0


class DurabilityMode(enum.Enum):
    NONDURABLE = "nondurable"
    DURABLE = "durable"
    CURP = "curp"


@dataclasses.dataclass(frozen=True)
class CommandArgs:
    """Client → server frame."""

    command: Command
    rpc_id: typing.Any = None
    ack_seq: int = 0


@dataclasses.dataclass(frozen=True)
class CommandReply:
    result: typing.Any
    #: True when the command was durable before this reply (§3.2.3 tag)
    synced: bool


@dataclasses.dataclass
class RedisStats:
    commands: int = 0
    writes: int = 0
    conflict_waits: int = 0
    gc_rpcs: int = 0


class RedisServer:
    """One Redis-like server instance."""

    def __init__(self, host: "Host", mode: DurabilityMode,
                 fsync_time: Distribution | None = None,
                 witnesses: typing.Sequence[str] = (),
                 execute_time: float = 0.5,
                 curp_fsync_batch: int = 20,
                 curp_idle_fsync_delay: float = 200.0):
        self.host = host
        self.sim = host.sim
        self.mode = mode
        self.aof = AppendOnlyFile(host, fsync_time)
        self.store = RedisStore()
        self.registry = ResultRegistry()
        self.witnesses = list(witnesses)
        self.execute_time = execute_time
        self.curp_fsync_batch = curp_fsync_batch
        self.curp_idle_fsync_delay = curp_idle_fsync_delay
        self.stats = RedisStats()
        #: CURP mode: the writes not yet fsynced, by AOF seq (conflict
        #: detection, §4.3, and witness gc once durable, §3.5)
        self.unsynced = UnsyncedSuffix()
        self._queue: list[tuple[CommandArgs, typing.Any]] = []
        self._wakeup = None
        self._flush_armed = False
        self.master_id = f"redis:{host.name}"

        self.transport = RpcTransport(host)
        self.transport.register("command", self._handle_command)
        self.transport.register("sync", self._handle_sync)
        self.aof.on_durable.append(self._after_fsync)
        host.on_crash(self._on_crash)
        self._loop_process = host.spawn(self._event_loop(), name="event-loop")

    # ------------------------------------------------------------------
    # request intake
    # ------------------------------------------------------------------
    def _handle_command(self, args: CommandArgs, ctx):
        self._queue.append((args, ctx))
        if self._wakeup is not None and not self._wakeup.triggered:
            self._wakeup.succeed()
        return RpcTransport.DEFERRED

    def _handle_sync(self, rpc_id, ctx):
        """CURP slow path: make the client's command durable — the AOF
        through its seq, answered at once if already fsynced, and
        ``UNKNOWN_RPC`` if a restart lost it
        (``ResultRegistry.sync_target``)."""
        def work():
            yield self.aof.request_durable(self.registry.sync_target(
                rpc_id, self.aof.end_seq))
            return "SYNCED"
        return work()

    # ------------------------------------------------------------------
    # the event loop (§C.2)
    # ------------------------------------------------------------------
    def _event_loop(self):
        while True:
            if not self._queue:
                self._wakeup = self.sim.event()
                yield self._wakeup
                self._wakeup = None
            batch, self._queue = self._queue, []
            replies: list[tuple[typing.Any, CommandReply | AppError]] = []
            deferred: list[tuple[typing.Any, int, typing.Any]] = []
            for args, ctx in batch:
                if self.execute_time > 0:
                    yield self.sim.timeout(self.execute_time)
                outcome = self._execute_one(args)
                if isinstance(outcome, _Deferred):
                    deferred.append((ctx, outcome.seq, outcome.reply))
                else:
                    replies.append((ctx, outcome))
            if self.mode is DurabilityMode.DURABLE and self.aof.end_seq \
                    > self.aof.durable_seq:
                # One fsync for the whole cycle — the §C.2 batching.
                yield self.aof.request_durable(self.aof.end_seq)
            for ctx, outcome in replies:
                if isinstance(outcome, AppError):
                    ctx.reply_error(outcome.code, outcome.info)
                else:
                    ctx.reply(outcome)
            for ctx, seq, reply in deferred:
                # Conflict path (CURP): reply once durable, off-loop.
                self.host.spawn(self._reply_when_durable(ctx, seq, reply),
                                name="conflict-reply")
            # CURP background durability scheduling.
            if self.mode is DurabilityMode.CURP:
                backlog = self.aof.end_seq - self.aof.durable_seq
                if backlog >= self.curp_fsync_batch:
                    self.aof.request_durable(self.aof.end_seq)
                elif backlog > 0:
                    self._arm_flush_timer()

    def _reply_when_durable(self, ctx, seq: int, reply: CommandReply):
        yield self.aof.request_durable(seq)
        ctx.reply(reply)

    # ------------------------------------------------------------------
    # command execution
    # ------------------------------------------------------------------
    def _execute_one(self, args: CommandArgs):
        command = args.command
        self.stats.commands += 1
        try:
            if args.rpc_id is not None:
                duplicate = self.registry.admit(args.rpc_id, args.ack_seq,
                                                self.aof.durable_seq)
                if duplicate is not None:
                    return CommandReply(*duplicate)
            curp = self.mode is DurabilityMode.CURP
            # A command on a key whose last write is not yet durable must
            # wait for that write's fsync (§3.2.3): same rule as the
            # kvstore master.
            conflict = self.unsynced.conflicts(command) if curp else 0
            if not command.is_write:
                result = execute(self.store, command)
                if conflict:
                    self.stats.conflict_waits += 1
                    return _Deferred(seq=conflict, reply=CommandReply(
                        result=result, synced=True))
                return CommandReply(result=result, synced=True)
            self.stats.writes += 1
            result = execute(self.store, command)
            seq = self.aof.append(command, rpc_id=args.rpc_id, result=result)
            if args.rpc_id is not None:
                self.registry.record(args.rpc_id, result, log_position=seq)
            if curp:
                self.unsynced.append(seq, command, args.rpc_id)
                if conflict:
                    self.stats.conflict_waits += 1
                    return _Deferred(seq=seq, reply=CommandReply(
                        result=result, synced=True))
            synced = self.mode is DurabilityMode.DURABLE
            return CommandReply(result=result, synced=synced)
        except AppError as error:   # STALE_RPC
            return error
        except (CommandError, WrongTypeError) as error:
            return AppError("COMMAND_ERROR", str(error))

    def _execute_and_log(self, request) -> int:
        """Execute-and-log step of the shared §4.5 / §4.6 pieces
        (``core.curp``): 0 for a command that fails."""
        try:
            result = execute(self.store, request.op)
        except (CommandError, WrongTypeError):
            return 0
        seq = self.aof.append(request.op, rpc_id=request.rpc_id,
                              result=result)
        self.registry.record(request.rpc_id, result, log_position=seq)
        return seq

    # ------------------------------------------------------------------
    # CURP plumbing
    # ------------------------------------------------------------------
    def _arm_flush_timer(self) -> None:
        if self._flush_armed or not self.host.alive:
            return
        self._flush_armed = True
        incarnation = self.host.incarnation

        def check() -> None:
            self._flush_armed = False
            if not self.host.alive or self.host.incarnation != incarnation:
                return
            if self.aof.durable_seq < self.aof.end_seq:
                self.aof.request_durable(self.aof.end_seq)
        self.sim.schedule_callback(self.curp_idle_fsync_delay, check)

    def _after_fsync(self, durable_seq: int) -> None:
        """Garbage collect newly-durable commands from witnesses (§3.5)."""
        pairs = self.unsynced.durable(durable_seq)
        if pairs and self.witnesses:
            self.host.spawn(self._gc_witnesses(pairs), name="witness-gc")

    def _gc_witnesses(self, pairs):
        self.stats.gc_rpcs += len(self.witnesses)
        results = yield gc_round(self.transport, self.witnesses,
                                 self.master_id, pairs, RPC_TIMEOUT)
        if any(results):  # a suspect, or a witness's error
            retry_orphans(self.registry, results, self.aof.durable_seq,
                          self._execute_orphan,
                          lambda orphans: self.host.spawn(
                              self._gc_witnesses(orphans), name="orphan-gc"))

    def _execute_orphan(self, request) -> int:
        seq = self._execute_and_log(request)
        if seq:
            self.unsynced.append(seq, request.op, request.rpc_id)
            self._arm_flush_timer()
        return seq

    # ------------------------------------------------------------------
    # crash / recovery
    # ------------------------------------------------------------------
    def _on_crash(self) -> None:
        self._queue.clear()
        self._wakeup = None
        self._flush_armed = False
        # Volatile state dies; the AOF handles its own truncation.
        self.store = RedisStore()
        self.registry = ResultRegistry()
        self.unsynced = UnsyncedSuffix()

    def recover(self, witnesses_for_replay: typing.Sequence[str] = ()):
        """Generator: restart-time recovery — replay the durable AOF,
        then replay witnesses (CURP mode), then fsync (§3.3 for the
        Redis instantiation).  Run after ``host.restart()``."""
        if not self.host.alive:
            raise RuntimeError("restart the host before recover()")
        for seq, command, rpc_id, result in self.aof.durable_entries():
            execute(self.store, command)
            if rpc_id is not None:
                self.registry.record(rpc_id, result, log_position=seq)
        replayed = 0
        if self.mode is DurabilityMode.CURP:
            requests = yield from fetch_recovery_data(
                self.transport, witnesses_for_replay or self.witnesses,
                self.master_id, RPC_TIMEOUT)
            replayed, _filtered = replay(self.registry, requests,
                                         self._execute_and_log)
            if self.aof.end_seq > self.aof.durable_seq:
                yield self.aof.request_durable(self.aof.end_seq)
        self._loop_process = self.host.spawn(self._event_loop(),
                                             name="event-loop")
        return replayed


@dataclasses.dataclass
class _Deferred:
    """Internal marker: reply once ``seq`` is durable."""

    seq: int
    reply: CommandReply
