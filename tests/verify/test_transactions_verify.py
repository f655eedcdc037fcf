"""Multi-key checker extension: recorded cross-shard transactions."""

from __future__ import annotations

import types

import pytest

from repro.core.client import ClientGaveUp
from repro.core.config import CurpConfig, ReplicationMode
from repro.core.transactions import TransactionAborted
from repro.harness import build_cluster
from repro.kvstore import MultiWrite, Read, Write
from repro.verify import (
    History,
    RecordedTransaction,
    TxnTrace,
    audit_atomicity,
    check_linearizable,
)


def sharded_cluster(**kwargs):
    defaults = dict(f=3, mode=ReplicationMode.CURP, min_sync_batch=50,
                    idle_sync_delay=200.0, retry_backoff=10.0,
                    rpc_timeout=200.0)
    defaults.update(kwargs)
    return build_cluster(CurpConfig(**defaults), n_masters=2)


def keys_on_distinct_shards(cluster, n):
    found = {}
    for i in range(10_000):
        key = f"key{i}"
        shard = cluster.shard_for(key)
        if shard not in found:
            found[shard] = key
            if len(found) == n:
                return [key for _s, key in sorted(found.items())]
    raise AssertionError("not enough shards")


def test_committed_transaction_history_linearizes():
    cluster = sharded_cluster()
    client = cluster.new_client()
    history = History()
    k0, k1 = keys_on_distinct_shards(cluster, 2)
    traces = []

    def script():
        txn = RecordedTransaction(client, history)
        a = yield from txn.read(k0)
        txn.write(k0, "a1")
        txn.write(k1, "b1")
        yield from txn.commit()
        traces.append(TxnTrace(txn, "committed"))
    cluster.run(cluster.sim.process(script()), timeout=1_000_000.0)
    # Follow-up reads land in the same history and must agree.
    for key, want in ((k0, "a1"), (k1, "b1")):
        record = history.begin(0, Read(key), cluster.sim.now)
        value = cluster.run(client.read(key))
        history.complete(record, value, cluster.sim.now)
    check_linearizable(history)
    assert audit_atomicity(traces) == []
    assert traces[0].txn.applied_keys == {k0, k1}


def test_aborted_transaction_leaves_linearizable_history():
    """The compensation is recorded as a restoring write, so reads that
    saw the prepared value and reads after the unwind both linearize —
    and the audit confirms no residue."""
    cluster = sharded_cluster()
    client = cluster.new_client()
    intruder = cluster.new_client()
    history = History()
    k0, k1 = keys_on_distinct_shards(cluster, 2)

    def seed(key, value):
        def gen():
            yield from client.update(Write(key=key, value=value))
        cluster.run(gen())
    seed(k0, "a0")
    seed(k1, "b0")

    traces = []

    def doomed():
        txn = RecordedTransaction(client, history)
        yield from txn.read(k0)
        yield from txn.read(k1)
        txn.write(k0, "a1")
        txn.write(k1, "b1")
        yield from intruder.update(Write(key=k1, value="intruder"))
        try:
            yield from txn.commit()
            traces.append(TxnTrace(txn, "committed"))
        except TransactionAborted:
            traces.append(TxnTrace(txn, "aborted"))
    cluster.run(cluster.sim.process(doomed()), timeout=1_000_000.0)
    record = history.begin(0, Read(k0), cluster.sim.now)
    history.complete(record, cluster.run(client.read(k0)),
                     cluster.sim.now)
    check_linearizable(history)
    assert traces[0].status == "aborted"
    assert audit_atomicity(traces) == []
    # The prepared shard was unwound.
    assert traces[0].txn.unwound


def test_compensation_of_unknown_outcome_stays_pending_per_key():
    """A compensation the client gave up on may have undone one key and
    found the other superseded, so it stays one pending restore per key:
    the history below is legal only if the restore of ``b`` is dropped
    while the restore of ``a`` took effect."""
    class GivesUp:
        tracker = types.SimpleNamespace(client_id=1)
        sim = types.SimpleNamespace(now=5.0)

        def update(self, op):
            raise ClientGaveUp(op)
            yield  # a generator, like CurpClient.update

    history = History()
    prepared = history.begin(1, MultiWrite((("a", "a1"), ("b", "b1"))), 0.0)
    history.complete(prepared, None, 1.0)
    superseding = history.begin(2, Write("b", "w"), 2.0)
    history.complete(superseding, None, 3.0)
    txn = RecordedTransaction(GivesUp(), history)
    with pytest.raises(ClientGaveUp):
        next(txn._compensate_one("t1", (("a", "a0", 3, 4),
                                        ("b", "b0", 5, 6))))
    assert [(r.op, r.is_pending) for r in history.records[2:]] == [
        (Write("a", "a0"), True), (Write("b", "b0"), True)]
    for key, value in (("a", "a0"), ("b", "w")):
        read = history.begin(3, Read(key), 10.0)
        history.complete(read, value, 11.0)
    check_linearizable(history)


def test_audit_flags_torn_commit_and_residue():
    class FakeTxn:
        def __init__(self, writes, applied, unwound):
            self._writes = {k: None for k in writes}
            self.applied_keys = set(applied)
            self.unwound = dict(unwound)

    torn = TxnTrace(FakeTxn(["a", "b"], ["a"], {}), "committed")
    residue = TxnTrace(FakeTxn(["a", "b"], ["a", "b"], {"a": "UNDONE"}),
                       "aborted")
    clean = TxnTrace(FakeTxn(["a"], ["a"], {}), "committed")
    unknown = TxnTrace(FakeTxn(["a"], [], {}), "unknown")
    violations = audit_atomicity([torn, residue, clean, unknown])
    assert len(violations) == 2
    assert any("torn" in v for v in violations)
    assert any("residue" in v for v in violations)
