"""The read path end to end: one client retry loop (``CurpClient.read``),
a ``ReadArgs`` frame carrying the key hash, and one store probe on the
master (``KVStore.lookup``) that answers both the §3.2.3 unsynced
check and the reply."""

from __future__ import annotations

import pytest

from repro.core.config import CurpConfig, ReplicationMode
from repro.core.messages import ReadArgs
from repro.harness import build_cluster
from repro.kvstore import Delete, Write, key_hash
from repro.rpc import AppError, RpcTransport


def curp_cluster(n_masters=1, **kwargs):
    # Batch 50 with a 200 µs idle timer: a lone write stays unsynced
    # until the timer fires or something forces a sync.
    defaults = dict(f=1, mode=ReplicationMode.CURP, min_sync_batch=50,
                    idle_sync_delay=200.0, rpc_timeout=100.0,
                    retry_backoff=5_000.0)
    defaults.update(kwargs)
    return build_cluster(CurpConfig(**defaults), n_masters=n_masters)


def test_read_and_read_versioned_report_the_store():
    """Never-written, written, overwritten, deleted and unsynced keys:
    ``read`` answers ``KVStore.read`` and ``read_versioned`` answers
    ``(KVStore.read, KVStore.version)`` — a missing or deleted key is
    ``None`` at version 0."""
    cluster = curp_cluster()
    client = cluster.new_client()
    cluster.run(client.update(Write("written", "w")))
    cluster.run(client.update(Write("overwritten", "o1")))
    cluster.run(client.update(Write("overwritten", "o2")))
    cluster.run(client.update(Write("deleted", "d")))
    cluster.run(client.update(Delete("deleted")))
    cluster.settle(1_000.0)
    cluster.run(client.update(Write("unsynced", "u")))
    store = cluster.master().store
    assert store.is_unsynced("unsynced", cluster.master().synced_position)
    keys = ("never", "written", "overwritten", "deleted", "unsynced")
    for key in keys:
        assert cluster.run(client.read(key)) == store.read(key)
        assert cluster.run(client.read_versioned(key)) == \
            (store.read(key), store.version(key))
    assert [store.version(key) for key in keys] == [0, 1, 2, 0, 1]
    assert cluster.run(client.read_versioned("overwritten")) == ("o2", 2)
    assert cluster.run(client.read("deleted")) is None


def test_read_held_for_a_sync_answers_what_it_probed():
    """A write that executes while a read waits for its sync is ordered
    after the read: the reply is the object the read probed, not the
    newer, still unsynced value."""
    cluster = curp_cluster()
    reader = cluster.new_client()
    writer = cluster.new_client()
    cluster.run(writer.update(Write("k", "old")))
    read = reader.host.spawn(reader.read("k"), name="reader")
    write = writer.host.spawn(writer.update(Write("k", "new")),
                              name="writer")
    assert cluster.run(read) == "old"
    cluster.run(write)
    assert cluster.master().store.read("k") == "new"
    assert cluster.run(reader.read("k")) == "new"


def test_stale_map_read_bounces_on_the_carried_hash():
    """The old owner judges ownership by the hash the frame carries: a
    read routed by a stale map gets WRONG_SHARD, then completes on the
    new owner after one map refresh."""
    cluster = curp_cluster(n_masters=2)
    client = cluster.new_client()
    key = next(f"key-{i}" for i in range(100)
               if cluster.shard_for(f"key-{i}") == "m0")
    h = key_hash(key)
    cluster.run(client.update(Write(key, "v")))
    cluster.settle(1_000.0)
    cluster.run(cluster.sim.process(
        cluster.coordinator.migrate("m0", "m1", h, h + 1)),
        timeout=1_000_000.0)
    assert client.view.master_for_hash(h) == "m0"     # stale

    caller = RpcTransport(cluster.network.add_host("raw-caller"))
    with pytest.raises(AppError) as err:
        cluster.run(caller.call("m0-host", "read", ReadArgs(key, h)))
    assert err.value.code == "WRONG_SHARD"

    old, new = cluster.master("m0"), cluster.master("m1")
    old_reads, new_reads = old.stats.reads, new.stats.reads
    assert cluster.run(client.read(key)) == "v"
    assert client.view.master_for_hash(h) == "m1"
    assert (old.stats.reads, new.stats.reads) == (old_reads, new_reads + 1)


def test_master_trusts_the_carried_hash():
    """Ownership is checked on ``ReadArgs.key_hash``, not on a second
    hash of the key: a hash outside the master's ranges bounces even
    though the key itself is owned."""
    cluster = curp_cluster(n_masters=2)
    key = next(f"key-{i}" for i in range(100)
               if cluster.shard_for(f"key-{i}") == "m0")
    foreign = next(key_hash(f"key-{i}") for i in range(100)
                   if cluster.shard_for(f"key-{i}") == "m1")
    caller = RpcTransport(cluster.network.add_host("raw-caller"))
    with pytest.raises(AppError) as err:
        cluster.run(caller.call("m0-host", "read",
                                ReadArgs(key, foreign)))
    assert err.value.code == "WRONG_SHARD"
    assert cluster.run(caller.call("m0-host", "read",
                                   ReadArgs(key, key_hash(key)))) is None


def test_read_args_require_the_key_hash():
    with pytest.raises(TypeError):
        ReadArgs(key="k")           # type: ignore[call-arg]
    args = ReadArgs("k", key_hash("k"))
    assert (args.allow_unsynced, args.return_version, args.probe) == \
        (False, False, False)
