"""Unit and property tests for the log-structured store."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kvstore import (
    ConditionalWrite,
    Delete,
    Increment,
    KVStore,
    MultiWrite,
    Read,
    Write,
)
from repro.rifl import RpcId


def test_write_read_roundtrip():
    store = KVStore()
    result, entry = store.execute(Write("k", "v"), now=1.0)
    assert result == 1  # version
    assert entry is not None and entry.index == 1
    assert store.read("k") == "v"
    value, no_entry = store.execute(Read("k"))
    assert value == "v" and no_entry is None


def test_read_missing_returns_none():
    store = KVStore()
    assert store.execute(Read("ghost"))[0] is None


def test_versions_increment_per_key():
    store = KVStore()
    store.execute(Write("a", 1))
    store.execute(Write("b", 1))
    result, _ = store.execute(Write("a", 2))
    assert result == 2
    assert store.version("a") == 2
    assert store.version("b") == 1


def test_increment_from_missing_starts_at_zero():
    store = KVStore()
    assert store.execute(Increment("c", 5))[0] == 5
    assert store.execute(Increment("c", -2))[0] == 3


def test_increment_type_error_on_non_integer():
    store = KVStore()
    store.execute(Write("s", "text"))
    with pytest.raises(TypeError):
        store.execute(Increment("s"))


def test_conditional_write_matches_version():
    store = KVStore()
    store.execute(Write("k", "v1"))
    ok, _ = store.execute(ConditionalWrite("k", "v2", expected_version=1))
    assert ok == ("OK", 2)
    fail, entry = store.execute(ConditionalWrite("k", "v3", expected_version=1))
    assert fail == ("MISMATCH", 2)
    assert entry is not None and entry.effects == ()  # logged, no effects
    assert store.read("k") == "v2"


def test_delete_removes_and_versions_survive():
    store = KVStore()
    store.execute(Write("k", "v"))
    store.execute(Delete("k"))
    assert store.read("k") is None
    assert store.version("k") == 0
    result, _ = store.execute(Write("k", "v2"))
    assert result == 3  # version counter survived the delete


def test_delete_missing_is_noop_entry():
    store = KVStore()
    result, entry = store.execute(Delete("nope"))
    assert result is True
    assert entry is not None and entry.effects == ()


def test_multiwrite_atomic_versions():
    store = KVStore()
    result, entry = store.execute(MultiWrite((("x", 1), ("y", 2))))
    assert result == (1, 1)
    assert entry is not None and len(entry.effects) == 2
    assert store.read("x") == 1 and store.read("y") == 2


def test_unsynced_tracking():
    store = KVStore()
    store.execute(Write("a", 1))  # position 1
    store.execute(Write("b", 2))  # position 2
    assert store.is_unsynced("a", synced_position=0)
    assert not store.is_unsynced("a", synced_position=1)
    assert store.is_unsynced("b", synced_position=1)
    assert not store.is_unsynced("ghost", synced_position=0)


def test_log_positions_and_entries_after():
    store = KVStore()
    for i in range(5):
        store.execute(Write(f"k{i}", i))
    assert store.log.end == 5
    tail = store.log.entries_after(3)
    assert [e.index for e in tail] == [4, 5]
    assert store.log.entry(1).effects[0][0] == "k0"
    with pytest.raises(IndexError):
        store.log.entry(6)


def test_rpc_ids_and_results_ride_the_log():
    store = KVStore()
    rpc = RpcId(1, 1)
    result, entry = store.execute(Write("k", "v"), rpc_id=rpc)
    assert entry.rpc_id == rpc
    assert entry.result == result


def test_rebuild_from_entries_reconstructs_state():
    original = KVStore()
    original.execute(Write("a", 1), now=1.0)
    original.execute(Increment("c", 10), now=2.0)
    original.execute(Write("a", 2), now=3.0)
    original.execute(Delete("c"), now=4.0)
    recovered = KVStore()
    last = recovered.rebuild_from_entries(original.log.all_entries())
    assert last == 4
    assert recovered.read("a") == 2
    assert recovered.read("c") is None
    assert recovered.version("a") == 2
    assert recovered.log.end == 4
    # The recovered store keeps appending at the right position.
    _, entry = recovered.execute(Write("d", 1))
    assert entry.index == 5


def test_rebuild_detects_gaps():
    original = KVStore()
    original.execute(Write("a", 1))
    original.execute(Write("b", 2))
    entries = original.log.all_entries()[1:]  # missing entry 1
    with pytest.raises(ValueError, match="gap"):
        KVStore().rebuild_from_entries(entries)


def test_rebuild_requires_empty_store():
    store = KVStore()
    store.execute(Write("a", 1))
    with pytest.raises(RuntimeError):
        store.rebuild_from_entries([])


@given(st.lists(st.tuples(st.sampled_from("abcde"),
                          st.integers(-5, 5)), max_size=40))
@settings(max_examples=100)
def test_property_rebuild_equals_original(writes):
    """Replaying the log always reproduces the exact object state."""
    original = KVStore()
    for i, (key, value) in enumerate(writes):
        if value == 0:
            original.execute(Delete(key), now=float(i))
        else:
            original.execute(Write(key, value), now=float(i))
    recovered = KVStore()
    recovered.rebuild_from_entries(original.log.all_entries())
    for key in "abcde":
        assert recovered.read(key) == original.read(key)
        assert recovered.version(key) == original.version(key)
        assert recovered.last_position_of(key) == original.last_position_of(key)


# ----------------------------------------------------------------------
# cross-shard transaction slices (§B.2): TxnPrepare / TxnCompensate
# ----------------------------------------------------------------------
def test_txn_prepare_applies_and_returns_undo():
    from repro.kvstore import KEEP, TxnPrepare
    store = KVStore()
    store.execute(Write("a", 1))  # version 1
    op = TxnPrepare(items=(("a", 10, 1), ("g", KEEP, 0)), txn_id="t1")
    result, _entry = store.execute(op, now=1.0)
    assert result[0] == "OK"
    assert result[1] == (("a", 1, 1, 2),)  # (key, old, old_ver, new_ver)
    assert store.read("a") == 10
    assert store.pending_txns == {"t1": result[1]}


def test_txn_prepare_requires_txn_id():
    from repro.kvstore import TxnPrepare
    with pytest.raises(ValueError):
        TxnPrepare(items=(("a", 1, 0),))


def test_txn_prepare_mismatch_has_no_effects():
    from repro.kvstore import TxnPrepare
    store = KVStore()
    store.execute(Write("a", 1))
    result, _ = store.execute(TxnPrepare(items=(("a", 10, 99),),
                                         txn_id="t1"))
    assert result == ("MISMATCH", (("a", 1),))
    assert store.read("a") == 1
    assert store.pending_txns == {}


def test_txn_compensate_restores_values_and_tombstones():
    from repro.kvstore import TxnPrepare, TxnCompensate
    store = KVStore()
    store.execute(Write("a", 1))
    result, _ = store.execute(
        TxnPrepare(items=(("a", 10, 1), ("fresh", "x", 0)), txn_id="t"))
    undo = result[1]
    result, _ = store.execute(TxnCompensate(txn_id="t", items=undo))
    assert result == ("OK", (("a", "UNDONE"), ("fresh", "UNDONE")))
    assert store.read("a") == 1
    assert store.read("fresh") is None  # deleted again, not None-valued
    # The version counter never rewinds: a re-created key gets a
    # strictly larger version than the prepared write had.
    recreate, _ = store.execute(Write("fresh", "again"))
    assert recreate > 2
    assert store.pending_txns == {}


def test_txn_compensate_skips_superseded_keys():
    from repro.kvstore import TxnPrepare, TxnCompensate
    store = KVStore()
    store.execute(Write("a", 1))
    result, _ = store.execute(TxnPrepare(items=(("a", 10, 1),),
                                         txn_id="t"))
    undo = result[1]
    store.execute(Write("a", "committed-later"))  # supersedes
    result, _ = store.execute(TxnCompensate(txn_id="t", items=undo))
    assert result == ("OK", (("a", "SUPERSEDED"),))
    assert store.read("a") == "committed-later"  # never clobbered


def test_pending_prepare_blocks_foreign_cas():
    """The saga dirty-read guard: CAS-family ops must not validate
    against a version created by an unresolved prepare — committing on
    it would bake an aborted transaction's value into committed state."""
    from repro.kvstore import ConditionalMultiWrite, TxnPrepare
    store = KVStore()
    store.execute(Write("a", 1))
    store.execute(TxnPrepare(items=(("a", 10, 1),), txn_id="t1"))
    pending_version = store.version("a")
    # Foreign CAS against the prepared version: rejected.
    result, _ = store.execute(
        ConditionalMultiWrite(items=(("a", 99, pending_version),)))
    assert result[0] == "MISMATCH"
    result, _ = store.execute(ConditionalWrite("a", 99, pending_version))
    assert result[0] == "MISMATCH"
    result, _ = store.execute(
        TxnPrepare(items=(("a", 99, pending_version),), txn_id="t2"))
    assert result[0] == "MISMATCH"
    # Resolution lifts the guard.
    assert store.resolve_txn("t1")
    result, _ = store.execute(
        ConditionalMultiWrite(items=(("a", 99, pending_version),)))
    assert result[0] == "OK"


def test_stale_pending_marker_is_not_a_conflict():
    """A blind write superseding the prepared value un-wedges the key
    even if the txn_resolve notification was lost."""
    from repro.kvstore import ConditionalMultiWrite, TxnPrepare
    store = KVStore()
    store.execute(TxnPrepare(items=(("a", 10, 0),), txn_id="t1"))
    store.execute(Write("a", "blind"))  # supersedes the prepared value
    version = store.version("a")
    result, _ = store.execute(
        ConditionalMultiWrite(items=(("a", 99, version),)))
    assert result[0] == "OK"  # marker stale: validating is safe


def test_keep_item_reports_the_version_it_validated():
    """Regression: a validate-only item on a never-written key used to
    raise KeyError *after* the written keys' versions were bumped, so a
    retried commit could never succeed; and a KEEP item on a deleted key
    reported the key's surviving counter instead of the version (0) it
    validated."""
    from repro.kvstore import ConditionalMultiWrite
    from repro.kvstore.operations import KEEP
    store = KVStore()
    result, _ = store.execute(ConditionalMultiWrite(
        (("y", 1, 0), ("never-written", KEEP, 0))))
    assert result == ("OK", (1, 0))
    assert store.read("y") == 1 and store.version("y") == 1
    # the KEEP item left the never-written key without a counter
    assert store.execute(Write("never-written", "v"))[0] == 1
    store.execute(Write("gone", "v"))
    store.execute(Delete("gone"))          # counter 2, reads as version 0
    result, _ = store.execute(ConditionalMultiWrite(
        (("y", 2, 1), ("gone", KEEP, 0))))
    assert result == ("OK", (2, 0))
