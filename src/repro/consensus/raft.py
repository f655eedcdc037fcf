"""Raft with the CURP extension (§A.2).

Standard Raft first (Ongaro & Ousterhout, ATC'14): follower/candidate/
leader roles, randomized election timeouts, RequestVote with the log
up-to-dateness restriction, AppendEntries with the log-matching
property, commit only for current-term entries, and a no-op entry at
term start so earlier entries commit promptly.

The CURP extension adds, per §A.2:

- a **witness component** on every replica (term-tagged records; a
  record carrying a stale term is rejected, which neutralizes clients
  of deposed zombie leaders);
- **speculative execution** on the leader: a proposed operation that
  commutes with every uncommitted operation executes immediately
  against the leader's speculative store (= the whole local log
  applied) and the reply goes out before the quorum commit;
  non-commutative operations wait for their commit (``synced`` tag);
- **leadership-change recovery**: before serving, a new leader
  freezes+collects witness data from a quorum of f+1 witnesses and
  replays every request appearing on a majority (⌈f/2⌉+1) of them —
  commutativity of the replayed set is guaranteed by the superquorum
  write rule — then resets all reachable witnesses for the new term.
"""

from __future__ import annotations

import dataclasses
import typing

from repro.core.curp import UnsyncedSuffix, gc_round, replay, retry_orphans
from repro.core.messages import RECORD_REJECTED
from repro.core.witness import MODE_NORMAL, WitnessServer
from repro.kvstore.operations import Operation, Read
from repro.kvstore.store import KVStore
from repro.rifl import DuplicateState, ResultRegistry
from repro.rpc import AppError, RpcError, RpcTransport
from repro.sim.events import QuorumEvent

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.net.host import Host


# ----------------------------------------------------------------------
# wire frames
# ----------------------------------------------------------------------
@dataclasses.dataclass(frozen=True)
class LogEntry:
    term: int
    index: int
    op: typing.Any  # Operation or the NOOP sentinel
    rpc_id: typing.Any


NOOP = "noop"


@dataclasses.dataclass(frozen=True)
class RequestVoteArgs:
    term: int
    candidate: str
    last_log_index: int
    last_log_term: int


@dataclasses.dataclass(frozen=True)
class AppendEntriesArgs:
    term: int
    leader: str
    prev_index: int
    prev_term: int
    entries: tuple[LogEntry, ...]
    leader_commit: int


@dataclasses.dataclass(frozen=True)
class ProposeArgs:
    op: Operation
    rpc_id: typing.Any
    ack_seq: int = 0


@dataclasses.dataclass(frozen=True)
class ProposeReply:
    result: typing.Any
    #: True = committed before replying (the 2-RTT path)
    synced: bool
    term: int


#: the ``master_id`` a Raft group's records and gc rounds carry: every
#: replica's witness component serves the one group it belongs to
RAFT_WITNESS = "raft"


@dataclasses.dataclass
class RaftConfig:
    election_timeout_min: float = 1_500.0
    election_timeout_max: float = 3_000.0
    heartbeat_interval: float = 400.0
    rpc_timeout: float = 500.0
    #: enable the §A.2 CURP extension
    curp: bool = True
    witness_slots: int = 1024
    witness_associativity: int = 4
    #: leader read leases (§6's strong-leader optimization: a leader
    #: with a fresh majority lease serves reads locally, no quorum RTT);
    #: 0 disables.  Safety in this simulation rests on the global
    #: virtual clock (real deployments need bounded clock drift).
    read_lease_duration: float = 1_200.0


class RaftNode:
    """One replica: Raft core + witness component."""

    def __init__(self, host: "Host", name: str, peers: typing.Sequence[str],
                 config: RaftConfig | None = None):
        self.host = host
        self.sim = host.sim
        self.name = name
        #: all replica names, including this one
        self.peers = list(peers)
        if name not in self.peers:
            raise ValueError("peers must include the node itself")
        self.others = [peer for peer in self.peers if peer != name]
        self.config = config or RaftConfig()

        # --- persistent state (survives restart; volatile on our fail-
        # stop crashes only through the other replicas, like real Raft
        # with lost disks requires reconfiguration; we model durable
        # term/vote/log as surviving restart) ---
        self.current_term = 0
        self.voted_for: str | None = None
        self.log: list[LogEntry] = []

        # --- volatile ---
        self.role = "follower"
        self.leader_hint: str | None = None
        self.commit_index = 0
        self.last_applied = 0
        self.store = KVStore()            # committed state machine
        self.registry = ResultRegistry()  # committed exactly-once records
        self._spec_store: KVStore | None = None  # leader only
        self._spec_results: dict[int, typing.Any] = {}
        #: leader only: the uncommitted log entries (§A.2 conflicts)
        self._uncommitted: UnsyncedSuffix | None = None
        self._log_rpc_index: dict[typing.Any, int] = {}
        self._next_index: dict[str, int] = {}
        self._match_index: dict[str, int] = {}
        self._commit_waiters: list[tuple[int, typing.Any]] = []
        self._election_epoch = 0
        self.serving = True  # new leaders pause serving during replay

        # --- witness component (§A.2): the core witness behind a term
        # fence; frozen (recovery mode) from w_recovery until w_reset ---
        from repro.consensus.client import suspect_after  # a cyclic import
        self.witness = WitnessServer(
            RAFT_WITNESS, self.config.witness_slots,
            self.config.witness_associativity,
            suspect_after(len(self.peers)))
        self.witness_term = 0

        self.stats = {"speculative": 0, "conflict_commits": 0,
                      "elections": 0, "replayed": 0, "lease_reads": 0}
        #: per-peer time of the last successful AppendEntries ack
        self._last_ack: dict[str, float] = {}
        self._leader_since = 0.0

        self.transport = RpcTransport(host)
        self.transport.register("request_vote", self._handle_request_vote)
        self.transport.register("append_entries", self._handle_append_entries)
        self.transport.register("propose", self._handle_propose)
        self.transport.register("sync", self._handle_sync)
        self.transport.register("status", self._handle_status)
        self.transport.register("record", self._handle_record)
        self.transport.register("w_recovery", self._handle_w_recovery)
        self.transport.register("w_reset", self._handle_w_reset)
        self.transport.register(
            "gc", lambda args, ctx: self.witness.gc(args.pairs))
        host.on_crash(self._on_crash)
        host.on_restart(self._on_restart)
        self._start_election_timer()

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------
    @property
    def majority(self) -> int:
        return len(self.peers) // 2 + 1

    def last_log_index(self) -> int:
        return len(self.log)

    def last_log_term(self) -> int:
        return self.log[-1].term if self.log else 0

    def _entry(self, index: int) -> LogEntry:
        return self.log[index - 1]

    def _become_follower(self, term: int, leader: str | None = None) -> None:
        stepped_down = self.role == "leader"
        if term > self.current_term:
            self.current_term = term
            self.voted_for = None
        self.role = "follower"
        if leader is not None:
            self.leader_hint = leader
        if stepped_down:
            # Discard speculative state (§A.2's "reload from a state
            # without speculative executions").
            self._spec_store = None
            self._uncommitted = None
            self._fail_commit_waiters()
        self.serving = True
        self._start_election_timer()

    def _fail_commit_waiters(self) -> None:
        waiters, self._commit_waiters = self._commit_waiters, []
        for _index, event in waiters:
            if not event.triggered:
                event.fail(AppError("NOT_LEADER",
                                    {"hint": self.leader_hint,
                                     "term": self.current_term}))

    # ------------------------------------------------------------------
    # election timer / heartbeats
    # ------------------------------------------------------------------
    def _start_election_timer(self) -> None:
        self._election_epoch += 1
        epoch = self._election_epoch
        timeout = self.sim.rng.uniform(self.config.election_timeout_min,
                                       self.config.election_timeout_max)

        def fire() -> None:
            if (self.host.alive and epoch == self._election_epoch
                    and self.role != "leader"):
                self.host.spawn(self._run_election(), name="election")
        self.sim.schedule_callback(timeout, fire)

    def _run_election(self):
        self.role = "candidate"
        self.current_term += 1
        self.voted_for = self.name
        self.stats["elections"] += 1
        term = self.current_term
        self._start_election_timer()  # re-arm in case this one fails
        args = RequestVoteArgs(term=term, candidate=self.name,
                               last_log_index=self.last_log_index(),
                               last_log_term=self.last_log_term())
        votes = 1
        # Callback fan-out: replies land in the quorum join straight
        # from response delivery — no wrapper process per peer.
        join = QuorumEvent(self.sim, len(self.others))
        for index, peer in enumerate(self.others):
            self.transport.call_cb(peer, "request_vote", args,
                                   join.child_result, index,
                                   timeout=self.config.rpc_timeout)
        replies = yield join
        if self.current_term != term or self.role != "candidate":
            return
        for reply in replies:
            if isinstance(reply, BaseException) or reply is None:
                continue  # unreachable peer
            reply_term, granted = reply
            if reply_term > self.current_term:
                self._become_follower(reply_term)
                return
            if granted:
                votes += 1
        if votes >= self.majority:
            yield from self._become_leader()

    def _handle_request_vote(self, args: RequestVoteArgs, ctx):
        if args.term > self.current_term:
            self._become_follower(args.term)
        if args.term < self.current_term:
            return (self.current_term, False)
        log_ok = (args.last_log_term, args.last_log_index) >= (
            self.last_log_term(), self.last_log_index())
        if log_ok and self.voted_for in (None, args.candidate):
            self.voted_for = args.candidate
            self._start_election_timer()
            return (self.current_term, True)
        return (self.current_term, False)

    # ------------------------------------------------------------------
    # leadership
    # ------------------------------------------------------------------
    def _become_leader(self):
        self.role = "leader"
        self.leader_hint = self.name
        self._leader_since = self.sim.now
        self._last_ack = {}
        for peer in self.peers:
            self._next_index[peer] = self.last_log_index() + 1
            self._match_index[peer] = 0
        # Speculative store = the whole local log applied (§A.2: the
        # leader's uncommitted tail will eventually commit under it).
        self._spec_store = KVStore()
        self._spec_results = {}
        self._uncommitted = UnsyncedSuffix()
        for entry in self.log:
            if entry.op is not NOOP:
                result, _ = self._spec_store.execute(entry.op,
                                                     rpc_id=entry.rpc_id)
                self._spec_results[entry.index] = result
                if entry.index > self.commit_index:
                    self._uncommitted.append(entry.index, entry.op,
                                             entry.rpc_id)
        # Term-start no-op (commits earlier terms' entries).
        self._append_local(NOOP, None)
        if self.config.curp:
            self.serving = False
            yield from self._witness_recovery()
            self.serving = True
        self.host.spawn(self._heartbeat_loop(), name="heartbeats")

    def _append_local(self, op, rpc_id) -> LogEntry:
        entry = LogEntry(term=self.current_term,
                         index=self.last_log_index() + 1,
                         op=op, rpc_id=rpc_id)
        self.log.append(entry)
        if rpc_id is not None:
            self._log_rpc_index[rpc_id] = entry.index
        if op is not NOOP:
            self._uncommitted.append(entry.index, op, rpc_id)
        return entry

    def _heartbeat_loop(self):
        term = self.current_term
        while (self.host.alive and self.role == "leader"
               and self.current_term == term):
            for peer in self.others:
                self._replicate_to(peer)
            yield self.sim.timeout(self.config.heartbeat_interval)

    def _replicate_to(self, peer: str) -> None:
        """Send one AppendEntries; the reply continuation runs straight
        from response delivery (no process per peer per round)."""
        if self.role != "leader":
            return
        next_index = self._next_index.get(peer, 1)
        prev_index = next_index - 1
        prev_term = self._entry(prev_index).term if prev_index >= 1 else 0
        entries = tuple(self.log[next_index - 1:])
        args = AppendEntriesArgs(term=self.current_term, leader=self.name,
                                 prev_index=prev_index, prev_term=prev_term,
                                 entries=entries,
                                 leader_commit=self.commit_index)
        self.transport.call_cb(peer, "append_entries", args,
                               self._on_append_reply, peer,
                               self.current_term,
                               timeout=self.config.rpc_timeout)

    def _on_append_reply(self, peer: str, sent_term: int, reply,
                         error) -> None:
        if error is not None:
            return  # peer unreachable; the next heartbeat retries
        term, success, match = reply
        if term > self.current_term:
            self._become_follower(term)
            return
        if (self.role != "leader" or sent_term != self.current_term
                or term != self.current_term):
            return
        if success:
            self._last_ack[peer] = self.sim.now
            self._match_index[peer] = max(self._match_index.get(peer, 0),
                                          match)
            self._next_index[peer] = self._match_index[peer] + 1
            self._advance_commit()
        else:
            self._next_index[peer] = max(1, self._next_index.get(peer, 1) - 1)

    def _advance_commit(self) -> None:
        for index in range(self.last_log_index(), self.commit_index, -1):
            if self._entry(index).term != self.current_term:
                break  # Raft commit restriction: current-term entries only
            replicated = 1 + sum(
                1 for peer in self.others
                if self._match_index.get(peer, 0) >= index)
            if replicated >= self.majority:
                self.commit_index = index
                self._apply_committed()
                pairs = self._uncommitted.durable(index)
                if self.config.curp and pairs:
                    self._send_witness_gc(pairs)
                break

    def _send_witness_gc(self, pairs) -> None:
        """§3.5 applied to §A.2: committed entries' witness records are
        garbage — drop them from every replica's component in one round,
        or the next write to their keys loses the fast path."""
        own = ()
        if self.witness.mode == MODE_NORMAL:  # a frozen one waits for w_reset
            own = self.witness.gc(pairs)  # own component, locally
        gc_round(self.transport, self.others, RAFT_WITNESS, pairs,
                 self.config.rpc_timeout).when_done(
            self._retry_orphans, own, self.current_term)

    def _retry_orphans(self, join, own, term: int) -> None:
        """§4.5 on one gc round's suspects, while still leading its term.
        A suspect already in the log is left to its entry's own gc round:
        uncommitted, it has no completion record yet."""
        replies = (own, *join.value)
        if any(replies) and self.role == "leader" \
                and self.current_term == term:
            retry_orphans(
                self.registry, replies, self.commit_index,
                lambda request: (self._log_rpc_index.get(request.rpc_id)
                                 or self._append_replayed(request)),
                self._send_witness_gc)

    def _apply_committed(self) -> None:
        while self.last_applied < self.commit_index:
            self.last_applied += 1
            entry = self._entry(self.last_applied)
            if entry.op is NOOP:
                continue
            if entry.rpc_id is None:
                self.store.execute(entry.op)
            elif self.registry.check(entry.rpc_id)[0] is DuplicateState.NEW:
                result, _ = self.store.execute(entry.op, rpc_id=entry.rpc_id)
                self.registry.record(entry.rpc_id, result,
                                     log_position=entry.index)
        still = []
        for index, event in self._commit_waiters:
            if index <= self.commit_index:
                if not event.triggered:
                    event.succeed()
            else:
                still.append((index, event))
        self._commit_waiters = still

    def _handle_append_entries(self, args: AppendEntriesArgs, ctx):
        if args.term < self.current_term:
            return (self.current_term, False, 0)
        self._become_follower(args.term, leader=args.leader)
        # Log matching check.
        if args.prev_index > 0:
            if (self.last_log_index() < args.prev_index
                    or self._entry(args.prev_index).term != args.prev_term):
                return (self.current_term, False, 0)
        # Append / overwrite conflicting suffix.
        for entry in args.entries:
            if self.last_log_index() >= entry.index:
                if self._entry(entry.index).term != entry.term:
                    for dropped in self.log[entry.index - 1:]:
                        if dropped.rpc_id is not None:
                            self._log_rpc_index.pop(dropped.rpc_id, None)
                    del self.log[entry.index - 1:]
                else:
                    continue
            self.log.append(entry)
            if entry.rpc_id is not None:
                self._log_rpc_index[entry.rpc_id] = entry.index
        if args.leader_commit > self.commit_index:
            self.commit_index = min(args.leader_commit, self.last_log_index())
            self._apply_committed()
        return (self.current_term, True, self.last_log_index())

    # ------------------------------------------------------------------
    # client path
    # ------------------------------------------------------------------
    def _handle_status(self, args, ctx):
        return {"term": self.current_term, "leader": self.leader_hint,
                "role": self.role, "commit_index": self.commit_index}

    def _handle_propose(self, args: ProposeArgs, ctx):
        if self.role != "leader" or not self.serving:
            raise AppError("NOT_LEADER", {"hint": self.leader_hint,
                                          "term": self.current_term})
        if args.rpc_id is not None:
            # Duplicate? (committed, or still in flight in our log)
            duplicate = self.registry.admit(args.rpc_id, args.ack_seq,
                                            self.commit_index)
            if duplicate is not None:
                return ProposeReply(*duplicate, term=self.current_term)
            index = self._log_rpc_index.get(args.rpc_id)
            if index is not None:
                return self._reply_after_commit(
                    index, self._spec_results.get(index), ctx)
        op = args.op
        if isinstance(op, Read) or not op.is_update:
            # Leased fast path: a leader with a fresh majority lease and
            # no conflicting uncommitted op may answer locally — the
            # strong-leader read optimization §6 contrasts with EPaxos.
            if (self._read_lease_valid()
                    and not self._uncommitted.conflicts(op)):
                self.stats["lease_reads"] += 1
                result, _ = self.store.execute(op)
                return ProposeReply(result=result, synced=True,
                                    term=self.current_term)
            entry = self._append_local(op, None)
            result, _ = self._spec_store.execute(op)
            return self._reply_after_commit(entry.index, result, ctx)
        # Commutativity vs the uncommitted window (§A.2).
        conflict = self._uncommitted.conflicts(op)
        entry = self._append_local(op, args.rpc_id)
        result, _ = self._spec_store.execute(op, rpc_id=args.rpc_id)
        self._spec_results[entry.index] = result
        for peer in self.others:
            self._replicate_to(peer)
        if not self.config.curp or conflict:
            self.stats["conflict_commits"] += 1
            return self._reply_after_commit(entry.index, result, ctx)
        self.stats["speculative"] += 1
        return ProposeReply(result=result, synced=False,
                            term=self.current_term)

    def _read_lease_valid(self) -> bool:
        """Majority-ack lease: safe to read locally (global sim clock).

        The leader must also have *held* leadership longer than one
        lease, so a deposed predecessor's lease cannot overlap ours.
        """
        lease = self.config.read_lease_duration
        if lease <= 0 or self.role != "leader":
            return False
        now = self.sim.now
        if now - self._leader_since < lease:
            return False
        fresh = sum(1 for t in self._last_ack.values()
                    if now - t <= lease)
        return 1 + fresh >= self.majority

    def _committed(self, index: int):
        """Event that triggers once ``index`` is committed."""
        done = self.sim.event()
        if index <= self.commit_index:
            done.succeed()
        else:
            self._commit_waiters.append((index, done))
        return done

    def _reply_after_commit(self, index: int, result, ctx):
        def work():
            yield self._committed(index)
            return ProposeReply(result=result, synced=True,
                                term=self.current_term)
        return work()

    def _handle_sync(self, rpc_id, ctx):
        """Client slow path, answered like a propose that waited for its
        commit: the client's own entry (at once if committed), or the
        log end for ``None``.  An RpcId in no log here, say one a leader
        change overwrote, is ``UNKNOWN_RPC``: the client resends it."""
        if self.role != "leader":
            raise AppError("NOT_LEADER", {"hint": self.leader_hint,
                                          "term": self.current_term})
        if rpc_id is None:
            target = self.last_log_index()
        elif self.registry.get(rpc_id) is not None:
            target = self.commit_index
        else:
            target = self._log_rpc_index.get(rpc_id)
            if target is None:
                raise AppError("UNKNOWN_RPC", {"rpc_id": str(rpc_id)})
        return self._reply_after_commit(target, None, ctx)

    # ------------------------------------------------------------------
    # witness component (§A.2)
    # ------------------------------------------------------------------
    def _handle_record(self, args, ctx):
        term, record = args  # the client's view of the term, RecordArgs
        if term < max(self.witness_term, self.current_term):
            return RECORD_REJECTED  # a zombie leader's client (§A.2)
        if term > self.witness_term and self.witness.mode == MODE_NORMAL:
            # First record of a newer term: earlier-term records are
            # obsolete (their leader change replayed or dropped them).
            self.witness.start(None)
            self.witness_term = term
        return self.witness.record(record, self.sim.now)

    def _handle_w_recovery(self, term: int, ctx):
        """New leader collecting witness data; freezes this witness."""
        if term >= self.witness_term:
            return self.witness.recovery_data()
        return tuple(self.witness.cache.all_requests())

    def _handle_w_reset(self, term: int, ctx):
        if term >= self.witness_term:
            self.witness.start(None)
            self.witness_term = term
        return "OK"

    def _witness_recovery(self):
        """§A.2 leadership-change replay: collect f+1 witness sets,
        replay requests present on ≥ ⌈f/2⌉+1 of them."""
        f = (len(self.peers) - 1) // 2
        need_quorum = f + 1
        need_majority = (f // 2) + (f % 2) + 1  # ⌈f/2⌉ + 1
        collected: list[tuple] = []
        # Own witness first (free), then peers until quorum.
        collected.append(self.witness.recovery_data())
        for peer in self.others:
            if len(collected) >= need_quorum:
                break
            try:
                requests = yield self.transport.call(
                    peer, "w_recovery", self.current_term,
                    timeout=self.config.rpc_timeout)
                collected.append(requests)
            except RpcError:
                continue
        if len(collected) < need_quorum:
            # Cannot satisfy the §A.2 replay precondition; step down and
            # let another election happen when more replicas are up.
            self._become_follower(self.current_term)
            return
        counts: dict[typing.Any, typing.Any] = {}
        for requests in collected:
            for request in requests:
                entry = counts.setdefault(request.rpc_id, [0, request])
                entry[0] += 1
        majority = [request for _rpc_id, (count, request) in sorted(
                        counts.items(), key=lambda kv: str(kv[0]))
                    if count >= need_majority]
        replayed, _filtered = replay(self.registry, majority,
                                     self._append_replayed)
        self.stats["replayed"] += replayed
        # Reset all reachable witnesses for the new term.
        for peer in self.peers:
            if peer == self.name:
                self.witness.start(None)
                self.witness_term = self.current_term
                continue
            try:
                yield self.transport.call(peer, "w_reset", self.current_term,
                                          timeout=self.config.rpc_timeout)
            except RpcError:
                continue

    def _append_replayed(self, request) -> int:
        """Execute-and-log step of the shared replay and §4.5 orphan
        retry (``core.curp``): 0 for an RPC already in our log."""
        if request.rpc_id in self._log_rpc_index:
            return 0
        entry = self._append_local(request.op, request.rpc_id)
        result, _ = self._spec_store.execute(request.op,
                                             rpc_id=request.rpc_id)
        self._spec_results[entry.index] = result
        return entry.index

    # ------------------------------------------------------------------
    # crash model
    # ------------------------------------------------------------------
    def _on_crash(self) -> None:
        # current_term / voted_for / log are persistent (real Raft
        # fsyncs them); everything else is volatile.
        self.role = "follower"
        self._spec_store = None
        self._spec_results = {}
        self._uncommitted = None
        self._commit_waiters.clear()
        self.serving = True

    def _on_restart(self) -> None:
        # Rebuild volatile state from the persistent log.
        self.commit_index = 0
        self.last_applied = 0
        self.store = KVStore()
        self.registry = ResultRegistry()
        self._log_rpc_index = {e.rpc_id: e.index for e in self.log
                               if e.rpc_id is not None}
        self._start_election_timer()
