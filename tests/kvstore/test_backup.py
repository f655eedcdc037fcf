"""Unit tests for backup servers (replication, fencing, recovery data)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import StorageProfile
from repro.core.messages import BackupReadArgs
from repro.kvstore import BackupServer, Delete, KVStore, MultiWrite, Write
from repro.kvstore.backup import ReplicateArgs
from repro.kvstore.log import TOMBSTONE
from repro.net import Network
from repro.net.latency import LatencyModel
from repro.rpc import AppError, RpcTransport
from repro.sim import Fixed, Simulator


def build(sim: Simulator, network: Network):
    backup = BackupServer(network.add_host("backup1"), master_id="m1")
    caller = RpcTransport(network.add_host("caller"))
    return backup, caller


def entries_for(*keys: str):
    store = KVStore()
    for key in keys:
        store.execute(Write(key, f"v-{key}"))
    return tuple(store.log.all_entries())


def test_replicate_appends_entries(sim, network):
    backup, caller = build(sim, network)
    entries = entries_for("a", "b")
    args = ReplicateArgs(master_id="m1", epoch=0, entries=entries)
    result = sim.run(caller.call("backup1", "replicate", args))
    assert result == 2
    assert backup.entry_count() == 2


def test_replicate_idempotent_on_retry(sim, network):
    backup, caller = build(sim, network)
    entries = entries_for("a", "b")
    args = ReplicateArgs(master_id="m1", epoch=0, entries=entries)
    sim.run(caller.call("backup1", "replicate", args))
    sim.run(caller.call("backup1", "replicate", args))  # duplicate
    assert backup.entry_count() == 2


def test_replicate_wrong_master_rejected(sim, network):
    _backup, caller = build(sim, network)
    args = ReplicateArgs(master_id="intruder", epoch=0, entries=())
    with pytest.raises(AppError) as err:
        sim.run(caller.call("backup1", "replicate", args))
    assert err.value.code == "WRONG_MASTER"


def test_fencing_rejects_old_epoch(sim, network):
    """§4.7: after the coordinator fences with a new epoch, a zombie
    master's replication (old epoch) must be rejected."""
    backup, caller = build(sim, network)
    sim.run(caller.call("backup1", "fence", 5))
    args = ReplicateArgs(master_id="m1", epoch=4, entries=entries_for("a"))
    with pytest.raises(AppError) as err:
        sim.run(caller.call("backup1", "replicate", args))
    assert err.value.code == "FENCED"
    assert backup.entry_count() == 0
    # The new-epoch master replicates fine.
    ok_args = ReplicateArgs(master_id="m1", epoch=5, entries=entries_for("a"))
    assert sim.run(caller.call("backup1", "replicate", ok_args)) == 1


def test_fence_never_lowers_epoch(sim, network):
    backup, caller = build(sim, network)
    sim.run(caller.call("backup1", "fence", 5))
    sim.run(caller.call("backup1", "fence", 3))
    assert backup.min_epoch == 5


def test_get_backup_data_ordered(sim, network):
    backup, caller = build(sim, network)
    entries = entries_for("a", "b", "c")
    # Replicate out of order across two RPCs.
    sim.run(caller.call("backup1", "replicate",
                        ReplicateArgs("m1", 0, entries[1:])))
    sim.run(caller.call("backup1", "replicate",
                        ReplicateArgs("m1", 0, entries[:1])))
    data = sim.run(caller.call("backup1", "get_backup_data", None))
    assert [e.index for e in data] == [1, 2, 3]


def test_backup_data_survives_crash_restart(sim, network):
    backup, caller = build(sim, network)
    sim.run(caller.call("backup1", "replicate",
                        ReplicateArgs("m1", 0, entries_for("a"))))
    backup.host.crash()
    backup.host.restart()
    data = sim.run(caller.call("backup1", "get_backup_data", None))
    assert len(data) == 1


def test_process_time_delays_ack(sim, network):
    backup = BackupServer(network.add_host("b2"), master_id="m1",
                          process_time=10.0)
    caller = RpcTransport(network.add_host("c2"))
    args = ReplicateArgs("m1", 0, entries_for("a"))
    sim.run(caller.call("b2", "replicate", args))
    assert sim.now == 14.0  # 2 + 10 + 2
    assert backup.entry_count() == 1


def test_replicate_ack_does_not_scan_the_log(sim, network):
    """Every replicate is acked with ``last_index``; computing that by
    walking the stored entries made each ack cost O(log length), so a
    run slowed down the longer it went."""
    class CountingList(list):
        iterations = 0

        def __iter__(self):
            CountingList.iterations += 1
            return super().__iter__()

    backup, caller = build(sim, network)
    entries = entries_for(*"abcdefgh")
    sim.run(caller.call("backup1", "replicate",
                        ReplicateArgs("m1", 0, entries[:4])))
    backup.wal.entries = CountingList(backup.wal.entries)
    for cut in (5, 6, 8):
        acked = sim.run(caller.call("backup1", "replicate",
                                    ReplicateArgs("m1", 0, entries[:cut])))
        assert acked == cut == backup.last_index
    assert len(backup.wal) == 8 and backup.wal.get(8) == entries[7]
    assert CountingList.iterations == 0


# ---------------------------------------------------------------------------
# §A.1 reads derived from the WAL
# ---------------------------------------------------------------------------

_KEYS = ("a", "b", "c", "d")
_OPS = st.one_of(
    st.builds(Write, st.sampled_from(_KEYS), st.integers(0, 9)),
    st.builds(Delete, st.sampled_from(_KEYS)),
    st.builds(MultiWrite, st.lists(
        st.tuples(st.sampled_from(_KEYS), st.integers(0, 9)),
        min_size=1, max_size=3, unique_by=lambda item: item[0]).map(tuple)))
#: (action, lo, hi) over positions of the master's log: deliver
#: entries[lo:hi] (out of order when an earlier slice is still missing,
#: a duplicate resend when it is not), adopt entries[:hi] wholesale, or
#: clean the (lo mod #sealed)-th sealed segment
_DELIVERIES = st.lists(st.tuples(
    st.sampled_from(("replicate", "replicate", "reverse", "reset_log",
                     "compact")),
    st.integers(0, 12), st.integers(0, 12)), max_size=20)


@given(st.lists(_OPS, min_size=1, max_size=12), _DELIVERIES)
@settings(max_examples=60, deadline=None)
def test_value_of_matches_a_reference_dict(ops, deliveries):
    """``value_of`` (and the ``backup_read`` RPC) answer from the WAL:
    the effect of the highest arrived log index that writes the key,
    whatever order the entries arrived in.  A dict that applies the
    arrived entries' effects in log-index order must agree after every
    step, whatever the writes, deletes and MultiWrites, out-of-order and
    duplicate deliveries, wholesale ``reset_log`` adoptions and cleaner
    passes, and once the whole log has arrived."""
    sim = Simulator(seed=1)
    network = Network(sim, latency=LatencyModel(Fixed(2.0)))
    backup = BackupServer(network.add_host("backup1"), master_id="m1",
                          storage=StorageProfile(segment_size=3))
    caller = RpcTransport(network.add_host("caller"))
    store = KVStore()
    for op in ops:
        store.execute(op)
    log = store.log.all_entries()
    arrived: dict = {}      # log index -> entry, as first delivered

    def check():
        reference: dict = {}
        for index in sorted(arrived):
            for key, value, _version in arrived[index].effects:
                if value is TOMBSTONE:
                    reference.pop(key, None)
                else:
                    reference[key] = value
        for key in _KEYS:
            assert backup.value_of(key) == reference.get(key)
            assert sim.run(caller.call("backup1", "backup_read",
                                       BackupReadArgs(key))) \
                == reference.get(key)

    for action, lo, hi in deliveries + [("replicate", 0, len(log))]:
        if action == "compact":
            sealed = [s for s in backup.wal.segments if s.sealed]
            if sealed:
                backup.wal.compact(sealed[lo % len(sealed)])
            check()
            continue
        batch = tuple(log[min(lo, hi):max(lo, hi)])
        if action == "reverse":
            batch = batch[::-1]
        if action == "reset_log":
            batch = tuple(log[:hi])
            arrived.clear()
        sim.run(caller.call("backup1", action.replace("reverse", "replicate"),
                            ReplicateArgs("m1", 0, batch)))
        for entry in batch:
            arrived.setdefault(entry.index, entry)
        check()


def test_late_arrival_of_an_older_write_neither_reads_nor_cleans_as_newest():
    """Two replicate batches for one key arrive in reverse log order
    (index 2 before index 1) and the cleaner compacts the segment they
    share: liveness follows the log, so ``value_of`` and a rebuild from
    the backup's entries both hold the master's value, not the one that
    arrived last."""
    sim = Simulator(seed=1)
    network = Network(sim, latency=LatencyModel(Fixed(2.0)))
    storage = StorageProfile(enabled=True, segment_size=2,
                             compaction_interval=100.0,
                             compaction_live_ratio=0.6)
    backup = BackupServer(network.add_host("backup1"), master_id="m1",
                          storage=storage)
    caller = RpcTransport(network.add_host("caller"))
    master = KVStore()
    master.execute(Write("a", 1))
    master.execute(Write("a", 2))
    first, second = master.log.all_entries()
    for batch in ((second,), (first,)):
        sim.run(caller.call("backup1", "replicate",
                            ReplicateArgs("m1", 0, batch)))
    segment = backup.wal.segments[0]
    assert segment.sealed and segment.indices == [2, 1]
    sim.run(until=sim.now + 500.0)
    assert segment.cleaned and backup.stats.payloads_reclaimed == 1
    assert backup.value_of("a") == master.read("a") == 2
    rebuilt = KVStore()
    rebuilt.rebuild_from_entries(backup.wal.all_entries())
    assert rebuilt.read("a") == 2
    assert backup.wal.get(1).effects == ()      # the older payload went
