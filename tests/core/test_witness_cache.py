"""Unit + property tests for the set-associative witness cache (§4.2)."""

from __future__ import annotations

import math
import random
import typing

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.witness_cache import WitnessCache, WitnessRecord
from repro.kvstore.hashing import in_ranges
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
    cache.gc_batch([(2, rid(2))])
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
    cache.gc_batch([(1, rid(1))])
    assert cache.occupied_slots() == 1
    assert cache.commutes_with([1])
    assert not cache.commutes_with([2])


def test_gc_ignores_unknown_pairs():
    """§4.5: the record RPC might have been rejected; gc of a pair the
    witness never stored must be harmless."""
    cache = WitnessCache(slots=64, associativity=4)
    cache.record([1], rid(1), "a")
    cache.gc_batch([(99, rid(50)), (1, rid(77))])  # wrong hash / wrong rpc
    assert cache.occupied_slots() == 1


def test_gc_multikey_clears_all_slots():
    cache = WitnessCache(slots=64, associativity=4)
    cache.record([1, 2], rid(1), "multi")
    cache.gc_batch([(1, rid(1)), (2, rid(1))])
    assert cache.occupied_slots() == 0


def test_stale_suspect_reported_once_old_enough():
    """§4.5: a record at least ``suspect_after`` old that causes a
    rejection is reported back to the master via the gc response."""
    cache = WitnessCache(slots=64, associativity=4, suspect_after=100.0)
    cache.record([1], rid(1), "orphan", now=0.0)
    # Younger than the horizon: a live client may still be retrying it.
    assert not cache.record([1], rid(2), "newer", now=99.0)
    assert cache.gc_batch([]) == []
    # Rejection against the old record marks it suspect...
    assert not cache.record([1], rid(2), "newer", now=100.0)
    # ...and the next gc reports it (once).
    assert cache.gc_batch([]) == ["orphan"]
    assert cache.gc_batch([]) == []


def test_gc_rounds_do_not_age_a_record():
    cache = WitnessCache(slots=16, associativity=4, suspect_after=100.0)
    cache.record([3], rid(1), "young", now=0.0)
    for _ in range(10):
        assert cache.gc_batch([(5, rid(9))]) == []  # other keys
    assert not cache.record([3], rid(2), "newer", now=50.0)
    assert cache.gc_batch([]) == []


def test_a_retried_record_keeps_its_first_arrival():
    cache = WitnessCache(slots=16, associativity=4, suspect_after=100.0)
    cache.record([3], rid(1), "request", now=0.0)
    assert cache.record([3], rid(1), "request", now=80.0)  # client retry
    assert not cache.record([3], rid(2), "newer", now=100.0)
    assert cache.gc_batch([]) == ["request"]


def test_gc_batch_forgets_a_suspect_it_collects():
    """The master collecting a suspect's pair in the same round means
    the request was synced after all: it is not reported."""
    cache = WitnessCache(slots=16, associativity=4, suspect_after=100.0)
    cache.record([3], rid(1), "late-synced", now=0.0)
    assert not cache.record([3], rid(2), "newer", now=100.0)
    assert cache.gc_batch([(3, rid(1))]) == []
    assert cache.occupied_slots() == 0
    assert cache.record([3], rid(2), "newer", now=100.0)


def test_commutes_with_probe():
    cache = WitnessCache(slots=64, associativity=4)
    cache.record([5], rid(1), "w")
    assert not cache.commutes_with([5])
    assert cache.commutes_with([6])
    assert not cache.commutes_with([6, 5])


def test_clear_resets_everything():
    cache = WitnessCache(slots=64, associativity=4, suspect_after=1.0)
    cache.record([1], rid(1), "a", now=0.0)
    assert not cache.record([1], rid(2), "b", now=5.0)  # a suspect
    cache.clear()
    assert cache.occupied_slots() == 0
    assert cache.all_requests() == []
    assert cache.gc_batch([]) == []


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
        for slot in cache._slots:
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
    cache.gc_batch(accepted)
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


# ----------------------------------------------------------------------
# the flat layout against the per-set one it replaced
# ----------------------------------------------------------------------
# ``_ReferenceWitnessCache`` is the earlier layout, kept verbatim (its
# unchanged §5.2 accounting and ``gc`` alias left out) but for the §4.5
# clock, which both age by arrival instant.  Both caches run the same steps and must agree on every
# result, every suspect, the saved requests in order, the occupancy and
# the way each record sits in.

class _ReferenceWitnessCache:
    """``WitnessCache`` before it became one slot array and one index:
    a list and a ``{key_hash: way}`` dict per set."""

    def __init__(self, slots: int = 4096, associativity: int = 4,
                 suspect_after: float = math.inf):
        if slots < 1 or associativity < 1:
            raise ValueError("slots and associativity must be >= 1")
        if slots % associativity != 0:
            raise ValueError(
                f"slots ({slots}) must be a multiple of associativity "
                f"({associativity})")
        self.slots = slots
        self.associativity = associativity
        self.n_sets = slots // associativity
        self.suspect_after = suspect_after
        self._sets: list[list[WitnessRecord | None]] = [
            [None] * associativity for _ in range(self.n_sets)]
        #: per-set {key_hash: slot position} — because accepted requests
        #: are pairwise commutative, a key hash occupies at most one slot
        #: per set, so record/commutes_with/gc are O(keys) dict lookups
        #: instead of O(keys × associativity) scans.
        self._index: list[dict[int, int]] = [{} for _ in range(self.n_sets)]
        #: rejected-against records suspected as uncollected garbage,
        #: keyed by (key_hash, rpc_id); drained by the next gc response
        self._suspects: dict[tuple[int, typing.Any], typing.Any] = {}
        # counters for §5.2-style accounting
        self.accepts = 0
        self.rejects_commutativity = 0
        self.rejects_capacity = 0

    # ------------------------------------------------------------------
    # record
    # ------------------------------------------------------------------
    def record(self, key_hashes: typing.Sequence[int], rpc_id: typing.Any,
               request: typing.Any, now: float = 0.0) -> bool:
        """Try to save a request arriving at ``now``; True = accepted.

        Duplicate records (same rpc_id — a client retry) are accepted
        idempotently.
        """
        if not key_hashes:
            raise ValueError("record() needs at least one key hash")
        if len(key_hashes) == 1:
            # Single-key fast path: the overwhelmingly common shape
            # (every basic update touches one object, §4.2).
            key_hash = key_hashes[0]
            set_index = key_hash % self.n_sets
            index = self._index[set_index]
            position = index.get(key_hash)
            if position is not None:
                slot = self._sets[set_index][position]
                if slot.rpc_id == rpc_id:
                    self.accepts += 1  # idempotent retry
                    return True
                self._note_suspect(slot, now)
                self.rejects_commutativity += 1
                return False
            if len(index) >= self.associativity:
                self.rejects_capacity += 1
                return False
            row = self._sets[set_index]
            position = row.index(None)  # lowest free way, as before
            row[position] = WitnessRecord(key_hash, rpc_id, request, now)
            index[key_hash] = position
            self.accepts += 1
            return True
        # A request that touches the same key twice needs only one slot
        # for it; dedupe up front so the capacity check doesn't demand
        # free slots pass 2 will never consume.
        unique_hashes: typing.Iterable[int] = dict.fromkeys(key_hashes)
        # Pass 1: commutativity + capacity check over every affected set.
        needed_per_set: dict[int, int] = {}
        for key_hash in unique_hashes:
            set_index = key_hash % self.n_sets
            position = self._index[set_index].get(key_hash)
            if position is not None:
                slot = self._sets[set_index][position]
                if slot.rpc_id == rpc_id:
                    continue  # idempotent retry
                self._note_suspect(slot, now)
                self.rejects_commutativity += 1
                return False
            needed_per_set[set_index] = needed_per_set.get(set_index, 0) + 1
        for set_index, needed in needed_per_set.items():
            if self.associativity - len(self._index[set_index]) < needed:
                self.rejects_capacity += 1
                return False
        # Pass 2: write one slot per key (all-or-nothing guaranteed above).
        for key_hash in unique_hashes:
            set_index = key_hash % self.n_sets
            index = self._index[set_index]
            if key_hash in index:
                continue  # idempotent duplicate for this key
            row = self._sets[set_index]
            position = row.index(None)  # lowest free way, as before
            row[position] = WitnessRecord(key_hash, rpc_id, request, now)
            index[key_hash] = position
        self.accepts += 1
        return True

    def _note_suspect(self, record: WitnessRecord, now: float) -> None:
        if now - record.arrived >= self.suspect_after:
            self._suspects[(record.key_hash, record.rpc_id)] = record.request

    # ------------------------------------------------------------------
    # commutativity probe (§A.1 consistent backup reads)
    # ------------------------------------------------------------------
    def commutes_with(self, key_hashes: typing.Sequence[int]) -> bool:
        """Would an operation on these keys commute with every saved
        request?  (Used by readers checking backup freshness.)"""
        for key_hash in key_hashes:
            if key_hash in self._index[key_hash % self.n_sets]:
                return False
        return True

    # ------------------------------------------------------------------
    # garbage collection
    # ------------------------------------------------------------------
    def gc_batch(self, pairs: typing.Iterable[tuple[int, typing.Any]]
                 ) -> list[typing.Any]:
        """One gc round: drop the records matching the round's
        (key_hash, rpc_id) pairs.

        Unknown pairs are ignored (the record RPC may have been
        rejected, §4.5).  Returns the requests suspected as uncollected
        garbage since the last round (drained on return).
        """
        n_sets = self.n_sets
        sets = self._sets
        indexes = self._index
        suspects = self._suspects
        for key_hash, rpc_id in pairs:
            set_index = key_hash % n_sets
            index = indexes[set_index]
            position = index.get(key_hash)
            if position is not None:
                row = sets[set_index]
                if row[position].rpc_id == rpc_id:
                    row[position] = None
                    del index[key_hash]
            if suspects:
                suspects.pop((key_hash, rpc_id), None)
        stale = list(self._suspects.values())
        self._suspects.clear()
        return stale

    def drop_outside(self, ranges: typing.Sequence[tuple[int, int]]) -> int:
        """Evict every record whose key hash falls outside ``ranges``.

        Used at migration cutover (§3.6): records for keys that left
        the master's ownership can never be collected by that master's
        sync+gc cycle, so they are dropped eagerly rather than pinning
        slots until they age into suspects.  Returns the number of slots
        freed.  Matching suspects are forgotten too — the master no
        longer owns the key, so replaying them would be wrong.
        """
        dropped = 0
        for set_index, index in enumerate(self._index):
            doomed = [key_hash for key_hash in index
                      if not in_ranges((key_hash,), ranges)]
            row = self._sets[set_index]
            for key_hash in doomed:
                row[index.pop(key_hash)] = None
                dropped += 1
        if self._suspects:
            for key in [key for key in self._suspects
                        if not in_ranges((key[0],), ranges)]:
                del self._suspects[key]
        return dropped

    # ------------------------------------------------------------------
    # recovery / lifecycle
    # ------------------------------------------------------------------
    def all_requests(self) -> list[typing.Any]:
        """Unique saved requests (a multi-key request appears once)."""
        seen: dict[typing.Any, typing.Any] = {}
        for row in self._sets:
            for slot in row:
                if slot is not None and slot.rpc_id not in seen:
                    seen[slot.rpc_id] = slot.request
        return list(seen.values())

    def clear(self) -> None:
        self._sets = [[None] * self.associativity for _ in range(self.n_sets)]
        self._index = [{} for _ in range(self.n_sets)]
        self._suspects.clear()

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------
    def occupied_slots(self) -> int:
        return sum(len(index) for index in self._index)


_KEYS = st.integers(0, 23)
_SEQS = st.integers(1, 12)
_STEPS = st.one_of(
    st.tuples(st.just("record"), st.lists(_KEYS, min_size=1, max_size=3),
              _SEQS),
    st.tuples(st.just("gc"), st.lists(st.tuples(_KEYS, _SEQS), max_size=6)),
    st.tuples(st.just("drop"), st.integers(0, 24), st.integers(0, 24)),
    st.tuples(st.just("commutes"), st.lists(_KEYS, min_size=1,
                                             max_size=3)),
    st.tuples(st.just("clear")),
    st.tuples(st.just("tick"), st.integers(0, 2)),
)


def _ways(cache) -> dict[int, tuple[int, int, typing.Any]]:
    """key_hash -> (set, way, rpc_id) of every live record."""
    if isinstance(cache, _ReferenceWitnessCache):
        return {record.key_hash: (set_index, way, record.rpc_id)
                for set_index, row in enumerate(cache._sets)
                for way, record in enumerate(row) if record is not None}
    return {record.key_hash: (*divmod(slot, cache.associativity),
                              record.rpc_id)
            for slot, record in enumerate(cache._slots)
            if record is not None}


def _step(cache, step, now):
    kind, *args = step
    if kind == "record":
        keys, seq = args
        return cache.record(keys, rid(seq), f"req{seq}", now)
    if kind == "gc":
        return cache.gc_batch([(key, rid(seq)) for key, seq in args[0]])
    if kind == "drop":
        lo, hi = sorted(args)
        return cache.drop_outside([(lo, hi)])
    if kind == "commutes":
        return cache.commutes_with(args[0])
    return cache.clear()


@given(st.sampled_from([(16, 2), (16, 4), (8, 1)]),
       st.lists(_STEPS, max_size=60))
@settings(max_examples=300, deadline=None)
def test_flat_cache_matches_the_per_set_layout(geometry, steps):
    """Single- and multi-key records (retries, a key listed twice,
    commutativity and capacity rejects), gc rounds with right and wrong
    ``RpcId``s, evictions, probes, clears and the clock moving on (so
    records age into suspects): after each step the flat cache agrees
    with the per-set one it replaced."""
    slots, associativity = geometry
    flat = WitnessCache(slots=slots, associativity=associativity,
                        suspect_after=3.0)
    reference = _ReferenceWitnessCache(slots=slots,
                                       associativity=associativity,
                                       suspect_after=3.0)
    now = 0.0
    for step in steps:
        if step[0] == "tick":
            now += step[1]
            continue
        assert _step(flat, step, now) == _step(reference, step, now), step
        assert flat._suspects == reference._suspects
        assert flat.all_requests() == reference.all_requests()
        assert flat.occupied_slots() == reference.occupied_slots()
        assert _ways(flat) == _ways(reference)
        assert (flat.accepts, flat.rejects_commutativity,
                flat.rejects_capacity) == (
            reference.accepts, reference.rejects_commutativity,
            reference.rejects_capacity)


def test_flat_cache_keeps_nothing_per_set():
    cache = WitnessCache(slots=4096, associativity=4)
    cache.record([7], rid(1), "a")
    cache.record([7 + 1024, 9], rid(2), "b")
    assert len(cache._slots) == 4096
    assert cache._where == {7: 28, 7 + 1024: 29, 9: 36}
    assert not [value for value in vars(cache).values()
                if isinstance(value, list) and value is not cache._slots]
