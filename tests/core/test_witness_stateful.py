"""Stateful property testing of the witness cache against a model.

Hypothesis drives random record/gc/probe sequences; a dict model
mirrors what the cache *must* contain.  Invariants checked after every
step:

- an accepted record never conflicts with a live one (commutativity);
- a rejection is always explainable: either a key conflict exists or
  the relevant set is genuinely full;
- ``commutes_with`` answers exactly according to the live set;
- ``all_requests`` returns exactly the live unique requests;
- gc removes exactly the matching (key-hash, rpc) pairs.
"""

from __future__ import annotations

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)

from repro.core.witness_cache import WitnessCache
from repro.rifl import RpcId

KEY_HASHES = st.integers(min_value=0, max_value=63)


class WitnessCacheMachine(RuleBasedStateMachine):
    @initialize(slots=st.sampled_from([8, 16, 32]),
                associativity=st.sampled_from([1, 2, 4]))
    def setup(self, slots, associativity):
        if slots % associativity:
            slots = associativity * max(1, slots // associativity)
        self.cache = WitnessCache(slots=slots, associativity=associativity)
        #: live records: key_hash -> (rpc_id, request)
        self.model: dict[int, tuple] = {}
        self._rpc_seq = 0

    def _new_rpc(self) -> RpcId:
        self._rpc_seq += 1
        return RpcId(1, self._rpc_seq)

    def _set_of(self, key_hash: int) -> int:
        return key_hash % self.cache.n_sets

    def _live_in_set(self, set_index: int) -> int:
        return sum(1 for kh in self.model
                   if self._set_of(kh) == set_index)

    @rule(key_hash=KEY_HASHES)
    def record_single(self, key_hash):
        rpc = self._new_rpc()
        request = f"req-{rpc.seq}"
        accepted = self.cache.record([key_hash], rpc, request)
        conflict = key_hash in self.model
        set_full = (self._live_in_set(self._set_of(key_hash))
                    >= self.cache.associativity)
        if accepted:
            assert not conflict, "accepted a non-commutative record"
            assert not set_full, "accepted into a full set"
            self.model[key_hash] = (rpc, request)
        else:
            assert conflict or set_full, "rejection with no cause"

    @rule(hashes=st.lists(KEY_HASHES, min_size=2, max_size=3, unique=True))
    def record_multi(self, hashes):
        rpc = self._new_rpc()
        request = f"multi-{rpc.seq}"
        accepted = self.cache.record(hashes, rpc, request)
        conflict = any(kh in self.model for kh in hashes)
        needed: dict[int, int] = {}
        for kh in hashes:
            needed[self._set_of(kh)] = needed.get(self._set_of(kh), 0) + 1
        capacity_ok = all(
            self._live_in_set(set_index) + count
            <= self.cache.associativity
            for set_index, count in needed.items())
        if accepted:
            assert not conflict and capacity_ok
            for kh in hashes:
                self.model[kh] = (rpc, request)
        else:
            assert conflict or not capacity_ok

    @rule(key_hash=KEY_HASHES)
    def gc_one(self, key_hash):
        live = self.model.get(key_hash)
        rpc = live[0] if live else RpcId(9, 999999)
        self.cache.gc_batch([(key_hash, rpc)])
        if live:
            # A multi-key request occupies several slots; gc of one pair
            # releases only that slot, matching the paper's per-pair gc.
            del self.model[key_hash]

    @rule(key_hash=KEY_HASHES)
    def gc_wrong_rpc_is_noop(self, key_hash):
        self.cache.gc_batch([(key_hash, RpcId(8, 888888))])
        # model unchanged

    @invariant()
    def probe_matches_model(self):
        if not hasattr(self, "cache"):
            return
        for key_hash in range(0, 64, 7):
            expected = key_hash not in self.model
            assert self.cache.commutes_with([key_hash]) == expected

    @invariant()
    def occupancy_matches_model(self):
        if not hasattr(self, "cache"):
            return
        assert self.cache.occupied_slots() == len(self.model)

    @invariant()
    def requests_match_model(self):
        if not hasattr(self, "cache"):
            return
        live_requests = {request for _rpc, request in self.model.values()}
        assert set(self.cache.all_requests()) == live_requests


WitnessCacheStatefulTest = WitnessCacheMachine.TestCase
WitnessCacheStatefulTest.settings = settings(
    max_examples=60, stateful_step_count=40, deadline=None)
