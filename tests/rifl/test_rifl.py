"""Unit tests for the RIFL exactly-once substrate."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.rifl import (
    DuplicateState,
    ResultRegistry,
    RiflClientTracker,
    RpcId,
)
from repro.rpc import AppError


# ----------------------------------------------------------------------
# RpcId
# ----------------------------------------------------------------------
def test_rpc_id_ordering_within_client():
    assert RpcId(1, 1) < RpcId(1, 2) < RpcId(1, 10)


def test_rpc_id_str():
    assert str(RpcId(3, 7)) == "3.7"


# ----------------------------------------------------------------------
# client tracker
# ----------------------------------------------------------------------
def test_tracker_sequences_increase():
    tracker = RiflClientTracker(client_id=5)
    a, b = tracker.new_rpc(), tracker.new_rpc()
    assert (a.seq, b.seq) == (1, 2)
    assert a.client_id == 5


def test_first_incomplete_tracks_oldest():
    tracker = RiflClientTracker(1)
    a = tracker.new_rpc()
    b = tracker.new_rpc()
    c = tracker.new_rpc()
    assert tracker.first_incomplete == 1
    tracker.completed(b)
    assert tracker.first_incomplete == 1  # a still outstanding
    tracker.completed(a)
    assert tracker.first_incomplete == 3  # only c left
    tracker.completed(c)
    assert tracker.first_incomplete == 4  # everything done


def test_tracker_rejects_foreign_rpc():
    tracker = RiflClientTracker(1)
    with pytest.raises(ValueError):
        tracker.completed(RpcId(2, 1))


# ----------------------------------------------------------------------
# result registry
# ----------------------------------------------------------------------
def test_new_then_completed():
    registry = ResultRegistry()
    rpc = RpcId(1, 1)
    assert registry.check(rpc) == (DuplicateState.NEW, None)
    registry.record(rpc, result="v7", log_position=3)
    state, result = registry.check(rpc)
    assert state is DuplicateState.COMPLETED
    assert result == "v7"


def test_ack_garbage_collects_and_marks_stale():
    registry = ResultRegistry()
    for seq in (1, 2, 3):
        registry.record(RpcId(1, seq), result=seq, log_position=seq)
    # A retry of seq 3 carrying ack 3: records 1 and 2 go, and the
    # retry is answered from its record, not yet durable at position 2.
    assert registry.admit(RpcId(1, 3), 3, durable_position=2) == (3, False)
    assert registry.record_count() == 1
    assert registry.check(RpcId(1, 1)) == (DuplicateState.STALE, None)
    assert registry.check(RpcId(1, 2)) == (DuplicateState.STALE, None)
    assert registry.admit(RpcId(1, 3), 3, durable_position=3) == (3, True)
    with pytest.raises(AppError) as stale:
        registry.admit(RpcId(1, 2), 3, durable_position=3)
    assert (stale.value.code, stale.value.info) == ("STALE_RPC",
                                                    {"rpc_id": "1.2"})


def test_ack_never_regresses():
    registry = ResultRegistry()
    assert registry.admit(RpcId(1, 5), 5, 0) is None
    assert registry.admit(RpcId(1, 6), 3, 0) is None
    assert registry.check(RpcId(1, 4)) == (DuplicateState.STALE, None)


def test_acks_ignored_during_recovery():
    """Paper §4.8: witness replays arrive in random order; piggybacked
    acks must not erase records the replay still needs."""
    registry = ResultRegistry()
    registry.record(RpcId(1, 1), result="first", log_position=1)
    registry.begin_recovery()
    assert registry.admit(RpcId(1, 2), 2, 0) is None  # ack ignored
    assert registry.admit(RpcId(1, 1), 2, 1) == ("first", True)
    registry.end_recovery()
    assert registry.admit(RpcId(1, 2), 2, 0) is None
    assert registry.check(RpcId(1, 1))[0] is DuplicateState.STALE


# ----------------------------------------------------------------------
# property tests
# ----------------------------------------------------------------------
@given(st.lists(st.integers(min_value=1, max_value=30), max_size=40))
@settings(max_examples=100)
def test_exactly_once_under_duplicate_storm(duplicate_schedule):
    """Executing any interleaving of duplicates never double-applies."""
    registry = ResultRegistry()
    executed = []
    for seq in duplicate_schedule:
        rpc = RpcId(1, seq)
        duplicate = registry.admit(rpc, 1, 0)
        if duplicate is None:
            executed.append(seq)
            registry.record(rpc, result=f"r{seq}")
        else:
            assert duplicate == (f"r{seq}", True)
    assert sorted(set(executed)) == sorted(executed)  # no re-execution


@given(st.lists(st.tuples(st.booleans(), st.integers(1, 20)), max_size=60))
@settings(max_examples=100)
def test_stale_never_resurrects(events):
    """Once an RpcId is STALE it stays STALE forever."""
    registry = ResultRegistry()
    stale_seen: set[int] = set()
    for is_ack, seq in events:
        rpc = RpcId(1, seq)
        try:
            duplicate = registry.admit(rpc, seq if is_ack else 1, 0)
        except AppError:
            stale_seen.add(seq)
            continue
        assert seq not in stale_seen
        if duplicate is None:
            registry.record(rpc, result=seq)


def _reference_intake(registry: ResultRegistry, rpc_id: RpcId,
                      ack_seq: int, durable_position: int):
    """The intake every backend wrote before ``admit``: the old
    ``process_ack`` (verbatim, on the registry's state), then ``check``
    and the synced tag from the record.  Returns what ``admit`` returns,
    or ``"STALE"``."""
    client_id = rpc_id.client_id
    if not registry._in_recovery:
        current = registry._ack_level.get(client_id, 1)
        if ack_seq > current:
            registry._ack_level[client_id] = ack_seq
            client_records = registry._records.get(client_id)
            if client_records:
                for seq in [seq for seq in client_records if seq < ack_seq]:
                    del client_records[seq]
    state, saved = registry.check(rpc_id)
    if state is DuplicateState.COMPLETED:
        record = registry.get(rpc_id)
        return saved, record.log_position <= durable_position
    if state is DuplicateState.STALE:
        return "STALE"
    return None


_STEPS = st.one_of(
    st.tuples(st.just("intake"), st.integers(1, 2), st.integers(1, 8),
              st.integers(0, 9), st.integers(0, 10)),
    st.tuples(st.just("record"), st.integers(1, 2), st.integers(1, 8),
              st.integers(1, 10)),
    st.tuples(st.just("begin_recovery")),
    st.tuples(st.just("end_recovery")),
)


@given(st.lists(_STEPS, max_size=60))
@settings(max_examples=300, deadline=None)
def test_admit_matches_process_ack_then_check(steps):
    """``admit`` answers exactly as the old ack → check → synced-tag
    sequence did, and leaves the registry in the same state."""
    registry, reference = ResultRegistry(), ResultRegistry()
    for step in steps:
        kind, *args = step
        if kind == "intake":
            client_id, seq, ack_seq, durable = args
            rpc_id = RpcId(client_id, seq)
            try:
                got = registry.admit(rpc_id, ack_seq, durable)
            except AppError as error:
                assert (error.code, error.info) == ("STALE_RPC",
                                                    {"rpc_id": str(rpc_id)})
                got = "STALE"
            assert got == _reference_intake(reference, rpc_id, ack_seq,
                                            durable)
        elif kind == "record":
            client_id, seq, position = args
            for each in (registry, reference):
                each.record(RpcId(client_id, seq), f"r{seq}", position)
        else:
            for each in (registry, reference):
                getattr(each, kind)(*args)
        assert (registry._records, registry._ack_level) == (
            reference._records, reference._ack_level)


# ----------------------------------------------------------------------
# transaction-scoped ids (§B.2)
# ----------------------------------------------------------------------
def test_new_transaction_allocates_contiguous_rpc_ids():
    from repro.rifl import TxnId
    tracker = RiflClientTracker(client_id=7)
    base = tracker.new_rpc()
    txn_id, rpc_ids = tracker.new_transaction(3)
    assert txn_id == TxnId(7, base.seq + 1)
    assert [r.seq for r in rpc_ids] == [base.seq + 1, base.seq + 2,
                                        base.seq + 3]
    assert all(r.client_id == 7 for r in rpc_ids)
    # Each per-shard prepare is tracked like any other rpc: completing
    # them advances first_incomplete past the transaction.
    tracker.completed(base)
    for rpc_id in rpc_ids:
        tracker.completed(rpc_id)
    assert tracker.first_incomplete == base.seq + 4


def test_new_transaction_rejects_empty():
    tracker = RiflClientTracker(client_id=1)
    with pytest.raises(ValueError):
        tracker.new_transaction(0)


def test_txn_id_is_ordered_and_printable():
    from repro.rifl import TxnId
    a, b = TxnId(1, 5), TxnId(1, 9)
    assert a < b
    assert "txn:1.5" in str(a)
