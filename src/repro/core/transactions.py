"""Transactions over CURP: the §A.3 pattern, across shards as a §B.2 saga.

The appendix sketches how applications use CURP for multi-object
updates: *read* the objects (recording versions), *compute*, then
*commit* with a conditional write that validates every version and
aborts if anything changed.  CURP makes both halves fast:

- the reads use the §A.3 relaxation — they may return unsynced values
  without waiting for durability, because the commit revalidates them
  (``for_update=True`` reads);
- the commit rides the normal 1-RTT fast path when its key set
  commutes with everything in flight.

One :class:`Transaction` type; ``commit`` groups the keys by owner
shard.  On **one shard** the commit is a single
:class:`ConditionalMultiWrite` (RAMCloud-style optimistic concurrency
control: no transaction id, no pending-prepare marker, no resolve).
Across **several shards** it is a **commutative saga** with no
coordinator (§B.2): the client fans a
:class:`~repro.kvstore.operations.TxnPrepare` to every shard
concurrently, each riding the normal CURP update path (so the
per-shard commutativity check *is* the witness check), and commits
when all shards accept — 1 RTT when nothing conflicts.  Any shard's
version mismatch aborts: the prepared shards are unwound with
client-driven :class:`~repro.kvstore.operations.TxnCompensate`
operations built from the prepares' undo records, and the retry takes
an ordered (sorted-shard, sequential) 2PC-ish slow path so contending
transactions cannot mutually abort forever.  RIFL ids allocated per
attempt (``tracker.new_transaction``) make every prepare exactly-once
across master crashes and recovery replay.
"""

from __future__ import annotations

import typing

from repro.core.client import ClientGaveUp, CurpClient
from repro.core.messages import TxnResolveArgs
from repro.kvstore.operations import (
    KEEP,
    ConditionalMultiWrite,
    TxnCompensate,
    TxnPrepare,
)
from repro.rpc import RpcError
from repro.rpc.helpers import backoff_delay
from repro.sim.events import AllOf


class TransactionAborted(Exception):
    """Commit-time version validation failed (concurrent conflict)."""

    def __init__(self, mismatches):
        super().__init__(f"version mismatches: {mismatches!r}")
        self.mismatches = mismatches


class TransactionGaveUp(TransactionAborted):
    """``run_transaction`` exhausted its retry budget.

    Distinct from a single :class:`TransactionAborted` so callers can
    tell exhaustion from one conflict: ``attempts`` is the budget that
    ran out and ``mismatches`` / ``last_mismatches`` hold the *final
    attempt's* structured mismatch detail (never a bare string).
    """

    def __init__(self, attempts: int, last_mismatches):
        super().__init__(last_mismatches)
        self.attempts = attempts
        self.last_mismatches = last_mismatches


class TransactionInDoubt(Exception):
    """A cross-shard attempt lost contact with a participant shard
    before learning its prepare/compensate outcome.  The transaction
    may be partially applied; the caller must treat it as neither
    committed nor cleanly aborted (retrying with a fresh transaction is
    safe only for idempotent bodies)."""

    def __init__(self, shard_errors: dict):
        super().__init__(f"participants unreachable: {shard_errors!r}")
        self.shard_errors = shard_errors


class Transaction:
    """One read-validate-write transaction attempt.

    ``read`` into the read set, stage ``write``\\ s, then ``commit``;
    the keys may live on any number of shards.  ``ordered=True`` makes
    a saga prepare its shards one at a time in sorted order (the
    post-conflict slow path).  After a successful commit ``fast_path``
    says whether *every* shard's write completed speculatively in
    1 RTT — the §B.2 claim measured by
    ``benchmarks/bench_transactions.py``.
    """

    def __init__(self, client: CurpClient, ordered: bool = False):
        self.client = client
        self.ordered = ordered
        #: key -> version observed by the transaction's reads
        self._read_versions: dict[str, int] = {}
        #: key -> staged new value
        self._writes: dict[str, typing.Any] = {}
        self._committed = False
        #: True after commit iff every shard wrote in 1 RTT
        self.fast_path: bool | None = None
        #: shards this attempt touched (set during commit)
        self.participants: tuple[str, ...] = ()

    def read(self, key: str):
        """Generator: read a key into the read set (§A.3 fast read —
        no durability wait)."""
        if key in self._writes:
            return self._writes[key]
        value, version = yield from self.client.read_versioned(
            key, for_update=True)
        self._read_versions[key] = version
        return value

    def write(self, key: str, value: typing.Any) -> None:
        """Stage a write (applied atomically at commit)."""
        if self._committed:
            raise RuntimeError("transaction already committed")
        self._writes[key] = value

    # ------------------------------------------------------------------
    # commit
    # ------------------------------------------------------------------
    def commit(self):
        """Generator: atomically apply staged writes iff no key in the
        read set changed; read-only transactions commit trivially
        (their serialization point is the last read).  Raises
        :class:`TransactionAborted` on a version conflict (a saga
        compensates first: no residue).  A one-shard commit lets the
        client's ``ClientGaveUp`` through; a saga raises
        :class:`TransactionInDoubt` when a participant stayed
        unreachable past the client's retry budget."""
        if self._committed:
            raise RuntimeError("transaction already committed")
        self._committed = True
        if not self._writes:
            return None  # read-only: nothing to validate against
        items = []
        for key, value in self._writes.items():
            expected = self._read_versions.get(key)
            if expected is None:
                # Blind write: validate against the current version so
                # the operation is still a CAS (read it now).
                _value, expected = yield from self.client.read_versioned(
                    key, for_update=True)
            items.append((key, value, expected))
        for key, version in self._read_versions.items():
            if key not in self._writes:
                items.append((key, KEEP, version))  # validate-only
        by_key = {item[0]: item for item in items}
        try:
            groups = self.client.view.shard_map.group_keys(tuple(by_key))
        except KeyError as error:
            # Coverage gap (mid-migration view): abort; the retry
            # refreshes the view and regroups.
            raise TransactionAborted({"unrouted": str(error)})
        shard_ids = sorted(groups)
        self.participants = tuple(shard_ids)
        if len(shard_ids) == 1:
            status, outcome = yield from self._prepare_one(
                ConditionalMultiWrite(items=tuple(items)), None)
            if status == "error":
                raise outcome
            if outcome.result[0] != "OK":
                raise TransactionAborted(outcome.result[1])
            self.fast_path = outcome.fast_path
            return outcome
        txn_id, rpc_ids = self.client.tracker.new_transaction(
            len(shard_ids))
        prepares = {
            shard: TxnPrepare(
                items=tuple(by_key[key] for key in groups[shard]),
                txn_id=txn_id)
            for shard in shard_ids}
        if self.ordered:
            outcomes = yield from self._prepare_sequential(
                shard_ids, prepares, rpc_ids)
        else:
            outcomes = yield from self._prepare_concurrent(
                shard_ids, prepares, rpc_ids)

        oks = {s: o for s, (st, o) in outcomes.items() if st == "ok"
               and o.result[0] == "OK"}
        mismatches = {s: o.result[1] for s, (st, o) in outcomes.items()
                      if st == "ok" and o.result[0] == "MISMATCH"}
        errors = {s: e for s, (st, e) in outcomes.items()
                  if st == "error"}
        if not mismatches and not errors:
            self.fast_path = all(o.fast_path for o in oks.values())
            self._resolve(txn_id, shard_ids)
            return oks
        # Abort: unwind every prepared shard with its undo records.
        in_doubt = dict(errors)
        for shard, outcome in oks.items():
            undo = outcome.result[1]
            if not undo:
                continue  # validate-only slice: nothing was written
            try:
                yield from self._compensate_one(txn_id, undo)
            except (ClientGaveUp, ValueError, KeyError) as error:
                in_doubt[shard] = error
        if in_doubt:
            raise TransactionInDoubt(
                {s: repr(e) for s, e in in_doubt.items()})
        raise TransactionAborted(mismatches)

    def _prepare_concurrent(self, shard_ids, prepares, rpc_ids):
        """Generator: the fast path — every shard's prepare in flight
        at once, exactly the client's 1 + f fan-out per shard."""
        procs = [
            self.client.host.spawn(
                self._prepare_one(prepares[shard], rpc_id),
                name=f"txn-prepare-{shard}")
            for shard, rpc_id in zip(shard_ids, rpc_ids)]
        results = yield AllOf(self.client.sim, procs)
        return {shard: results[proc]
                for shard, proc in zip(shard_ids, procs)}

    def _prepare_sequential(self, shard_ids, prepares, rpc_ids):
        """Generator: the ordered slow path — prepares acquire shards
        in sorted id order and stop at the first conflict, so two
        contending cross-shard transactions serialize instead of
        mutually aborting (the 2PC-ish fallback)."""
        outcomes = {}
        for shard, rpc_id in zip(shard_ids, rpc_ids):
            outcome = yield from self._prepare_one(prepares[shard],
                                                   rpc_id)
            outcomes[shard] = outcome
            status, payload = outcome
            if status == "error" or payload.result[0] != "OK":
                # Unacquired shards: release their unused rpc ids so
                # first_incomplete (and server-side RIFL gc) advances.
                for unused in rpc_ids[len(outcomes):]:
                    self.client.tracker.completed(unused)
                break
        return outcomes

    def _prepare_one(self, op, rpc_id):
        """Generator: one shard's conditional write through the normal
        update path (witness records, crash retries): a saga's
        ``TxnPrepare`` under its RIFL-pinned id, or a one-shard
        commit's ``ConditionalMultiWrite`` (``rpc_id`` None: the client
        allocates it).  Overridable hook — ``verify`` subclasses it to
        record the staged writes as history writes."""
        try:
            outcome = yield from self.client.update(op, rpc_id=rpc_id)
            return ("ok", outcome)
        except ClientGaveUp as error:
            # Outcome unknown: the rpc id stays outstanding (the
            # operation may yet replay through recovery).
            return ("error", error)
        except (ValueError, KeyError) as error:
            # Routing changed under us before any RPC fanned out for
            # this attempt: nothing recorded anywhere, so a pinned id
            # can be retired.
            if rpc_id is not None:
                self.client.tracker.completed(rpc_id)
            return ("error", error)

    def _compensate_one(self, txn_id, undo):
        """Generator: unwind one prepared shard.  Overridable hook —
        ``verify`` subclasses it to record the per-key restores as
        history writes."""
        return (yield from self.client.update(
            TxnCompensate(txn_id=txn_id, items=undo)))

    def _resolve(self, txn_id, shard_ids) -> None:
        """Fire-and-forget commit notifications: clear each shard's
        pending-txn bookkeeping.  Loss is harmless (advisory map)."""
        view = self.client.view
        for shard in shard_ids:
            master = view.masters.get(shard) if view else None
            if master is None:
                continue
            self.client.host.spawn(
                self._resolve_quietly(master.host,
                                      TxnResolveArgs(txn_id=txn_id)),
                name="txn-resolve")

    def _resolve_quietly(self, master_host: str, args: TxnResolveArgs):
        try:
            yield self.client.transport.call(
                master_host, "txn_resolve", args,
                timeout=self.client.config.rpc_timeout)
        except RpcError:
            pass  # advisory: a stale pending entry is the only cost


def _abort_backoff(client: CurpClient, attempt: int):
    """Generator: jittered exponential backoff between aborted
    transaction attempts.  Without it two contending transactions
    re-read and re-commit in lockstep and can mutually abort for the
    whole retry budget (livelock).  Draws from ``sim.rng`` only on the
    abort path, so conflict-free runs leave every trace untouched."""
    base = client.config.retry_backoff
    if base <= 0:
        return
    delay = backoff_delay(attempt, base, base * 32, client.sim.rng)
    if delay > 0:
        yield client.sim.timeout(delay)


def run_transaction(client: CurpClient, body, max_attempts: int = 20):
    """Generator: run ``body(txn)`` (a generator function) against a
    :class:`Transaction` with automatic retry on abort — the paper's
    "applications ... handle aborts by retrying".

    Returns the body's return value of the attempt that committed.  The
    first attempt fans a multi-shard commit out concurrently (the 1-RTT
    fast path); retries after a conflict take the ordered sequential
    slow path, after a jittered exponential backoff seeded from
    ``config.retry_backoff``, so contending transactions serialize
    instead of livelocking.  Exhaustion raises
    :class:`TransactionGaveUp` carrying the final attempt's structured
    mismatches; an unreachable saga participant raises
    :class:`TransactionInDoubt` immediately (retrying cannot resolve an
    unknown outcome).
    """
    last_mismatches = None
    for attempt in range(max_attempts):
        txn = Transaction(client, ordered=attempt > 0)
        result = yield from body(txn)
        try:
            yield from txn.commit()
            return result
        except TransactionAborted as abort:
            last_mismatches = abort.mismatches
            if attempt < max_attempts - 1:
                yield from _abort_backoff(client, attempt)
    raise TransactionGaveUp(max_attempts, last_mismatches)
