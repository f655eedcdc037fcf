"""Unit tests for backup servers (replication, fencing, recovery data)."""

from __future__ import annotations

import pytest

from repro.kvstore import BackupServer, KVStore, Write
from repro.kvstore.backup import ReplicateArgs
from repro.net import Network
from repro.rpc import AppError, RpcTransport
from repro.sim import Simulator


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
    class CountingDict(dict):
        iterations = 0

        def __iter__(self):
            CountingDict.iterations += 1
            return super().__iter__()

    backup, caller = build(sim, network)
    entries = entries_for(*"abcdefgh")
    sim.run(caller.call("backup1", "replicate",
                        ReplicateArgs("m1", 0, entries[:4])))
    backup.wal.entries = CountingDict(backup.wal.entries)
    for cut in (5, 6, 8):
        acked = sim.run(caller.call("backup1", "replicate",
                                    ReplicateArgs("m1", 0, entries[:cut])))
        assert acked == cut == backup.last_index
    assert CountingDict.iterations == 0
