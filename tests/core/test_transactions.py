"""Tests for §A.3 optimistic transactions over CURP."""

from __future__ import annotations

import pytest

from repro.core.config import CurpConfig, ReplicationMode
from repro.core.transactions import (
    Transaction,
    TransactionAborted,
    TransactionGaveUp,
    TransactionInDoubt,
    run_transaction,
)
from repro.harness import build_cluster
from repro.kvstore import ConditionalMultiWrite, Write
from repro.kvstore.operations import KEEP


def curp_cluster(**kwargs):
    defaults = dict(f=3, mode=ReplicationMode.CURP, min_sync_batch=50,
                    idle_sync_delay=200.0, retry_backoff=10.0,
                    rpc_timeout=200.0)
    defaults.update(kwargs)
    return build_cluster(CurpConfig(**defaults))


# ----------------------------------------------------------------------
# the ConditionalMultiWrite operation itself
# ----------------------------------------------------------------------
def test_cmw_applies_when_versions_match():
    cluster = curp_cluster()
    client = cluster.new_client()
    cluster.run(client.update(Write("a", 1)))  # version 1
    op = ConditionalMultiWrite(items=(("a", 10, 1), ("b", 20, 0)))
    outcome = cluster.run(client.update(op))
    assert outcome.result[0] == "OK"
    assert cluster.run(client.read("a")) == 10
    assert cluster.run(client.read("b")) == 20


def test_cmw_rejects_on_any_mismatch():
    cluster = curp_cluster()
    client = cluster.new_client()
    cluster.run(client.update(Write("a", 1)))
    op = ConditionalMultiWrite(items=(("a", 10, 99), ("b", 20, 0)))
    outcome = cluster.run(client.update(op))
    assert outcome.result[0] == "MISMATCH"
    assert cluster.run(client.read("a")) == 1   # untouched
    assert cluster.run(client.read("b")) is None  # atomicity


def test_cmw_keep_validates_without_writing():
    cluster = curp_cluster()
    client = cluster.new_client()
    cluster.run(client.update(Write("guard", "g")))  # version 1
    op = ConditionalMultiWrite(items=(("target", "t", 0),
                                      ("guard", KEEP, 1)))
    outcome = cluster.run(client.update(op))
    assert outcome.result[0] == "OK"
    assert cluster.run(client.read("guard")) == "g"  # value unchanged
    assert cluster.run(client.read("target")) == "t"


def test_cmw_witness_slots_cover_read_set():
    """The record must conflict with writes to validate-only keys."""
    op = ConditionalMultiWrite(items=(("w", 1, 0), ("r", KEEP, 0)))
    assert len(op.touched_hashes()) == 2
    assert op.mutated_keys() == ("w",)
    assert set(op.touched_keys()) == {"w", "r"}


# ----------------------------------------------------------------------
# the transaction layer
# ----------------------------------------------------------------------
def test_transaction_commit_applies_atomically():
    cluster = curp_cluster()
    client = cluster.new_client()
    cluster.run(client.update(Write("acct:a", 100)))
    cluster.run(client.update(Write("acct:b", 50)))

    def transfer():
        txn = Transaction(client)
        a = yield from txn.read("acct:a")
        b = yield from txn.read("acct:b")
        txn.write("acct:a", a - 30)
        txn.write("acct:b", b + 30)
        yield from txn.commit()
    cluster.run(cluster.sim.process(transfer()))
    assert cluster.run(client.read("acct:a")) == 70
    assert cluster.run(client.read("acct:b")) == 80


def test_transaction_aborts_on_concurrent_write():
    cluster = curp_cluster()
    client_a = cluster.new_client()
    client_b = cluster.new_client()
    cluster.run(client_a.update(Write("x", 1)))

    def doomed():
        txn = Transaction(client_a)
        value = yield from txn.read("x")
        # A competing client sneaks in a write before the commit.
        yield from client_b.update(Write("x", 999))
        txn.write("x", value + 1)
        yield from txn.commit()
    with pytest.raises(TransactionAborted):
        cluster.run(cluster.sim.process(doomed()))
    assert cluster.run(client_a.read("x")) == 999  # competitor won


def test_transaction_read_own_staged_write():
    cluster = curp_cluster()
    client = cluster.new_client()

    def body():
        txn = Transaction(client)
        txn.write("k", "staged")
        value = yield from txn.read("k")
        assert value == "staged"
        yield from txn.commit()
    cluster.run(cluster.sim.process(body()))
    assert cluster.run(client.read("k")) == "staged"


def test_run_transaction_retries_until_success():
    """Two clients transferring concurrently: retries keep the sum
    invariant (the classic bank test)."""
    cluster = curp_cluster()
    clients = [cluster.new_client() for _ in range(3)]
    setup = clients[0]
    cluster.run(setup.update(Write("bank:a", 300)))
    cluster.run(setup.update(Write("bank:b", 300)))

    def transfer_body(amount):
        def body(txn):
            a = yield from txn.read("bank:a")
            b = yield from txn.read("bank:b")
            txn.write("bank:a", a - amount)
            txn.write("bank:b", b + amount)
            return amount
        return body

    processes = []
    for i, client in enumerate(clients):
        def script(client=client, i=i):
            for j in range(5):
                yield from run_transaction(client, transfer_body(1 + i))
        processes.append(client.host.spawn(script(), name=f"txn{i}"))
    cluster.run(cluster.sim.all_of(processes), timeout=10_000_000.0)
    a = cluster.run(setup.read("bank:a"))
    b = cluster.run(setup.read("bank:b"))
    assert a + b == 600  # invariant held under contention
    moved = 5 * (1 + 2 + 3)
    assert b == 300 + moved


def test_for_update_read_skips_durability_wait():
    """§A.3: the preparation read returns an unsynced value without
    forcing a sync."""
    cluster = curp_cluster(min_sync_batch=1000, idle_sync_delay=1e9)
    client = cluster.new_client()
    cluster.run(client.update(Write("k", "unsynced")))
    master = cluster.master()
    assert master.unsynced_count == 1
    value = cluster.run(client.read("k", for_update=True))
    assert value == "unsynced"
    assert master.unsynced_count == 1  # read did NOT force a sync
    # A plain read does.
    value = cluster.run(client.read("k"))
    assert value == "unsynced"
    assert master.unsynced_count == 0


def test_version_floor_prevents_aba_across_recovery():
    """A transaction prepared against an unsynced value that dies with
    the master must abort, even if the key is rewritten after
    recovery (the versions must not collide)."""
    cluster = curp_cluster(min_sync_batch=1000, idle_sync_delay=1e9)
    client = cluster.new_client()
    cluster.run(client.update(Write("k", "v1")))  # synced via witness...
    # Read for update: sees version of the (witnessed) unsynced write.
    value, version = cluster.run(client.read_versioned("k",
                                                       for_update=True))
    assert value == "v1"
    # Crash; the witnessed write is replayed, but suppose a fresh write
    # lands after recovery: its version must exceed the old one.
    cluster.master().host.crash()
    standby = cluster.add_host("standby", role="master")
    cluster.run(cluster.sim.process(
        cluster.coordinator.recover_master("m0", standby)),
        timeout=10_000_000.0)
    cluster.run(client.update(Write("k", "v2")), timeout=10_000_000.0)
    _v, new_version = cluster.run(client.read_versioned("k"))
    assert new_version > version  # floor jumped: no reuse
    # The stale transaction aborts.
    op = ConditionalMultiWrite(items=(("k", "stale-commit", version),))
    outcome = cluster.run(client.update(op), timeout=10_000_000.0)
    assert outcome.result[0] == "MISMATCH"


def test_run_transaction_exhaustion_raises_structured_gave_up():
    """Regression: exhaustion used to raise
    ``TransactionAborted("gave up after N attempts")`` — a bare string
    where callers expect structured mismatches.  Now it is a distinct
    :class:`TransactionGaveUp` carrying the attempt budget and the
    final attempt's mismatch tuples."""
    cluster = curp_cluster()
    client = cluster.new_client()
    spoiler = cluster.new_client()
    cluster.run(client.update(Write("hot", 0)))

    def body(txn):
        value = yield from txn.read("hot")
        # A competitor always sneaks in before our commit.
        yield from spoiler.update(Write("hot", value + 100))
        txn.write("hot", value + 1)
        return value

    def doomed():
        yield from run_transaction(client, body, max_attempts=3)
    with pytest.raises(TransactionGaveUp) as info:
        cluster.run(cluster.sim.process(doomed()), timeout=10_000_000.0)
    error = info.value
    assert error.attempts == 3
    assert isinstance(error, TransactionAborted)  # old handlers still work
    assert not isinstance(error.mismatches, str)
    assert error.last_mismatches == error.mismatches
    # The final attempt's mismatch detail: key + observed version tuples.
    assert all(key == "hot" for key, _version in error.mismatches)


def test_run_transaction_backoff_between_aborts():
    """Regression: aborted attempts used to retry in a zero-delay tight
    loop.  Retries must now be spread by the jittered backoff (virtual
    time advances between attempts) and contending transactions must
    both commit."""
    cluster = curp_cluster()
    client_a = cluster.new_client()
    client_b = cluster.new_client()
    cluster.run(client_a.update(Write("ctr", 0)))

    commit_times: list[float] = []

    def increment(client):
        def body(txn):
            value = yield from txn.read("ctr")
            txn.write("ctr", value + 1)
            return value
        return body

    def script(client):
        yield from run_transaction(client, increment(client))
        commit_times.append(cluster.sim.now)

    processes = [client_a.host.spawn(script(client_a), name="inc-a"),
                 client_b.host.spawn(script(client_b), name="inc-b")]
    cluster.run(cluster.sim.all_of(processes), timeout=10_000_000.0)
    assert cluster.run(client_a.read("ctr")) == 2  # both committed
    assert len(commit_times) == 2


def test_abort_backoff_is_traceless_without_conflicts():
    """Golden-trace contract: a conflict-free run must not draw from
    the rng or sleep — the backoff path only activates on abort."""
    cluster = curp_cluster()
    client = cluster.new_client()
    cluster.run(client.update(Write("solo", 1)))
    state = cluster.sim.rng.getstate()

    def body(txn):
        value = yield from txn.read("solo")
        txn.write("solo", value + 1)
        return value
    cluster.run(cluster.sim.process(run_transaction(client, body)))
    assert cluster.sim.rng.getstate() == state
    assert cluster.run(client.read("solo")) == 2


def test_transaction_survives_master_crash_mid_flight():
    cluster = curp_cluster()
    client = cluster.new_client()
    cluster.run(client.update(Write("k", 10)))

    def body(txn):
        value = yield from txn.read("k")
        txn.write("k", value + 1)
        return value

    def chaos():
        yield cluster.sim.timeout(30.0)
        cluster.master().host.crash()
        yield cluster.sim.timeout(100.0)
        standby = cluster.add_host("standby-tx", role="master")
        yield cluster.sim.process(
            cluster.coordinator.recover_master("m0", standby))

    txn_process = cluster.sim.process(
        run_transaction(client, body))
    chaos_process = cluster.sim.process(chaos())
    cluster.run(cluster.sim.all_of([txn_process, chaos_process]),
                timeout=10_000_000.0)
    assert cluster.run(client.read("k"), timeout=1_000_000.0) == 11


# ----------------------------------------------------------------------
# cross-shard commutative sagas (§B.2)
# ----------------------------------------------------------------------
def sharded_cluster(n_masters=2, **kwargs):
    defaults = dict(f=3, mode=ReplicationMode.CURP, min_sync_batch=50,
                    idle_sync_delay=200.0, retry_backoff=10.0,
                    rpc_timeout=200.0)
    defaults.update(kwargs)
    return build_cluster(CurpConfig(**defaults), n_masters=n_masters)


def keys_on_distinct_shards(cluster, n):
    """First key found on each of ``n`` distinct shards."""
    found = {}
    for i in range(10_000):
        key = f"key{i}"
        shard = cluster.shard_for(key)
        if shard not in found:
            found[shard] = key
            if len(found) == n:
                return [key for _shard, key in sorted(found.items())]
    raise AssertionError(f"could not find keys on {n} shards")


def keys_on_one_shard(cluster):
    """The first two keys found that share a shard."""
    by_shard = {}
    for i in range(10_000):
        key = f"key{i}"
        keys = by_shard.setdefault(cluster.shard_for(key), [])
        keys.append(key)
        if len(keys) == 2:
            return keys
    raise AssertionError("could not find two keys on one shard")


def seed(cluster, client, key, value):
    def gen():
        yield from client.update(Write(key=key, value=value))
    cluster.run(gen())


def test_cross_shard_commit_spans_shards_atomically():
    cluster = sharded_cluster()
    client = cluster.new_client()
    k0, k1 = keys_on_distinct_shards(cluster, 2)
    assert cluster.shard_for(k0) != cluster.shard_for(k1)
    seed(cluster, client, k0, 100)
    seed(cluster, client, k1, 50)
    cluster.settle()  # drain syncs + witness gc: nothing in flight

    def transfer():
        txn = Transaction(client)
        a = yield from txn.read(k0)
        b = yield from txn.read(k1)
        txn.write(k0, a - 30)
        txn.write(k1, b + 30)
        yield from txn.commit()
        return txn
    txn = cluster.run(cluster.sim.process(transfer()),
                      timeout=1_000_000.0)
    assert cluster.run(client.read(k0)) == 70
    assert cluster.run(client.read(k1)) == 80
    assert txn.fast_path is True  # uncontended: 1 RTT on every shard
    assert set(txn.participants) == {cluster.shard_for(k0),
                                     cluster.shard_for(k1)}
    # Both shards prepared; the fire-and-forget resolve clears the
    # advisory pending-txn bookkeeping on both.
    cluster.settle()
    for master_id in cluster.masters:
        assert cluster.master(master_id).store.pending_txns == {}
        assert cluster.master(master_id).stats.txns_prepared == 1
        assert cluster.master(master_id).stats.txns_resolved == 1


def test_cross_shard_abort_compensates_prepared_shards():
    """A conflict on one shard unwinds the other shard's prepare —
    no torn write survives."""
    cluster = sharded_cluster()
    client = cluster.new_client()
    intruder = cluster.new_client()
    k0, k1 = keys_on_distinct_shards(cluster, 2)
    seed(cluster, client, k0, 10)
    seed(cluster, client, k1, 20)

    def doomed():
        txn = Transaction(client)
        a = yield from txn.read(k0)
        b = yield from txn.read(k1)
        txn.write(k0, a + 1)
        txn.write(k1, b + 1)
        # The intruder moves k1 after our read: its shard MISMATCHes.
        yield from intruder.update(Write(key=k1, value=999))
        yield from txn.commit()
    with pytest.raises(TransactionAborted) as info:
        cluster.run(cluster.sim.process(doomed()), timeout=1_000_000.0)
    shard1 = cluster.shard_for(k1)
    assert shard1 in info.value.mismatches
    # No residue: k0 was restored by the compensation, k1 is the
    # intruder's write.
    assert cluster.run(client.read(k0)) == 10
    assert cluster.run(client.read(k1)) == 999
    cluster.settle()
    for master_id in cluster.masters:
        assert cluster.master(master_id).store.pending_txns == {}



def test_cross_shard_unreachable_participant_leaves_the_outcome_in_doubt():
    """A participant's master dies before its prepare lands and nothing
    recovers it: that prepare's client gives up with its outcome
    unknown, the reachable shard is compensated, and the attempt is
    reported in doubt rather than aborted."""
    cluster = sharded_cluster(max_attempts=3)
    client = cluster.new_client()
    k0, k1 = keys_on_distinct_shards(cluster, 2)
    seed(cluster, client, k0, 10)
    seed(cluster, client, k1, 20)
    cluster.settle()
    dead = cluster.shard_for(k1)

    def doomed():
        txn = Transaction(client)
        a = yield from txn.read(k0)
        b = yield from txn.read(k1)
        txn.write(k0, a + 1)
        txn.write(k1, b + 1)
        cluster.master(dead).host.crash()
        yield from txn.commit()
    with pytest.raises(TransactionInDoubt) as info:
        cluster.run(cluster.sim.process(doomed()), timeout=10_000_000.0)
    assert list(info.value.shard_errors) == [dead]
    assert "ClientGaveUp" in info.value.shard_errors[dead]
    assert cluster.run(client.read(k0), timeout=1_000_000.0) == 10

def test_cross_shard_compensate_restores_tombstone():
    """Compensating a prepare that created a key must delete it again,
    not leave an explicit None."""
    cluster = sharded_cluster()
    client = cluster.new_client()
    intruder = cluster.new_client()
    k0, k1 = keys_on_distinct_shards(cluster, 2)
    seed(cluster, client, k1, 1)  # k0 never written: fresh key

    def doomed():
        txn = Transaction(client)
        b = yield from txn.read(k1)
        txn.write(k0, "created")
        txn.write(k1, b + 1)
        yield from intruder.update(Write(key=k1, value=77))
        yield from txn.commit()
    with pytest.raises(TransactionAborted):
        cluster.run(cluster.sim.process(doomed()), timeout=1_000_000.0)
    assert cluster.run(client.read(k0)) is None  # deleted, not None-valued
    shard0 = cluster.masters[cluster.shard_for(k0)]
    assert cluster.run(client.read(k1)) == 77


def test_cross_shard_single_shard_degenerates_cleanly():
    """All keys on one shard: one conditional multi-write, commits."""
    cluster = sharded_cluster()
    client = cluster.new_client()
    k0, k1 = keys_on_one_shard(cluster)
    seed(cluster, client, k0, 1)

    def txn_body():
        txn = Transaction(client)
        a = yield from txn.read(k0)
        txn.write(k0, a + 1)
        txn.write(k1, "new")
        yield from txn.commit()
        return txn
    txn = cluster.run(cluster.sim.process(txn_body()),
                      timeout=1_000_000.0)
    assert len(txn.participants) == 1
    assert cluster.run(client.read(k0)) == 2
    assert cluster.run(client.read(k1)) == "new"


def test_single_shard_commit_runs_no_prepare():
    """On a sharded cluster, a commit whose keys share one shard is
    one ConditionalMultiWrite: no TxnPrepare, so no pending-txn entry
    and no pending-key marker, even before any resolve could land (a
    one-participant saga never compensates, so it gains nothing)."""
    cluster = sharded_cluster()
    client = cluster.new_client()
    k0, k1 = keys_on_one_shard(cluster)
    seed(cluster, client, k0, 1)
    cluster.settle()

    def body():
        txn = Transaction(client)
        a = yield from txn.read(k0)
        txn.write(k0, a + 1)
        txn.write(k1, "new")
        yield from txn.commit()
        stores = [cluster.master(m).store for m in cluster.masters]
        return txn, [(store.pending_txns, store._pending_keys)
                     for store in stores]
    txn, pending = cluster.run(cluster.sim.process(body()),
                               timeout=1_000_000.0)
    assert txn.participants == (cluster.shard_for(k0),)
    assert txn.fast_path is True
    assert pending == [({}, {})] * len(cluster.masters)
    for master_id in cluster.masters:
        assert cluster.master(master_id).stats.txns_prepared == 0
    assert cluster.run(client.read(k0)) == 2
    assert cluster.run(client.read(k1)) == "new"


@pytest.mark.parametrize("module, name", [
    ("repro.core.transactions", "OptimisticTransaction"),
    ("repro.core.transactions", "CrossShardTransaction"),
    ("repro.core.transactions", "run_cross_shard_transaction"),
    ("repro.verify", "RecordedCrossShardTransaction"),
    ("repro.verify.transactions", "RecordedCrossShardTransaction")])
def test_removed_transaction_names_do_not_import(module, name):
    """One transaction type, one runner: the old names are gone, with
    no alias left behind."""
    with pytest.raises(ImportError):
        exec(f"from {module} import {name}", {})


def test_cross_shard_read_only_commits_trivially():
    cluster = sharded_cluster()
    client = cluster.new_client()
    k0, k1 = keys_on_distinct_shards(cluster, 2)
    seed(cluster, client, k0, 1)

    def body():
        txn = Transaction(client)
        yield from txn.read(k0)
        yield from txn.read(k1)
        yield from txn.commit()
        return txn
    txn = cluster.run(cluster.sim.process(body()), timeout=1_000_000.0)
    assert txn.participants == ()
    cluster.settle()
    for master_id in cluster.masters:
        assert cluster.master(master_id).stats.txns_prepared == 0


def test_cross_shard_contention_both_eventually_commit():
    """Two clients repeatedly transferring across the same two shards:
    the ordered retry path plus backoff lets both finish, and the sum
    invariant holds."""
    cluster = sharded_cluster()
    clients = [cluster.new_client() for _ in range(2)]
    k0, k1 = keys_on_distinct_shards(cluster, 2)
    seed(cluster, clients[0], k0, 500)
    seed(cluster, clients[0], k1, 500)

    def transfer(amount):
        def body(txn):
            a = yield from txn.read(k0)
            b = yield from txn.read(k1)
            txn.write(k0, a - amount)
            txn.write(k1, b + amount)
            return amount
        return body

    done = []

    def script(client, i):
        for _ in range(4):
            yield from run_transaction(
                client, transfer(1 + i), max_attempts=50)
        done.append(i)
    processes = [client.host.spawn(script(client, i), name=f"xfer{i}")
                 for i, client in enumerate(clients)]
    cluster.run(cluster.sim.all_of(processes), timeout=50_000_000.0)
    assert sorted(done) == [0, 1]
    a = cluster.run(clients[0].read(k0))
    b = cluster.run(clients[0].read(k1))
    assert a + b == 1000
    assert b == 500 + 4 * (1 + 2)


def test_cross_shard_survives_participant_crash():
    """Crash one participant master mid-transaction: the per-shard
    prepare retries through RIFL (exactly-once) and the transaction
    commits exactly once after recovery."""
    cluster = sharded_cluster(max_attempts=100, retry_backoff=30.0)
    client = cluster.new_client()
    k0, k1 = keys_on_distinct_shards(cluster, 2)
    seed(cluster, client, k0, 10)
    seed(cluster, client, k1, 20)
    victim = cluster.shard_for(k1)

    def body(txn):
        a = yield from txn.read(k0)
        b = yield from txn.read(k1)
        txn.write(k0, a + 1)
        txn.write(k1, b + 1)
        return (a, b)

    def chaos():
        yield cluster.sim.timeout(30.0)
        cluster.master(victim).host.crash()
        yield cluster.sim.timeout(100.0)
        standby = cluster.add_host("standby-xs", role="master")
        yield cluster.sim.process(
            cluster.coordinator.recover_master(victim, standby))

    txn_process = cluster.sim.process(
        run_transaction(client, body, max_attempts=50))
    chaos_process = cluster.sim.process(chaos())
    cluster.run(cluster.sim.all_of([txn_process, chaos_process]),
                timeout=50_000_000.0)
    assert cluster.run(client.read(k0), timeout=1_000_000.0) == 11
    assert cluster.run(client.read(k1), timeout=1_000_000.0) == 21


def test_transaction_reading_an_absent_key_commits_first_time():
    """Regression: validating a never-written read-set key made every
    commit attempt fail with a remote KeyError after bumping the
    written key's version, until the client gave up."""
    cluster = build_cluster()
    client = cluster.new_client()
    attempts = []

    def body(txn):
        attempts.append(1)
        absent = yield from txn.read("never-written")
        txn.write("y", 1 if absent is None else 2)

    cluster.run(cluster.sim.process(run_transaction(client, body)))
    assert len(attempts) == 1
    assert cluster.run(client.read("y")) == 1
    assert cluster.master().store._versions["y"] == 1
