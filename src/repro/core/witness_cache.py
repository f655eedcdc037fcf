"""The witness's set-associative request store (§4.2, §B.1).

Recording is deliberately cache-like so a witness burns almost no CPU:
a request on key ``k`` maps to set ``hash(k) mod n_sets``, the
``associativity`` ways ``[set * associativity, (set + 1) *
associativity)`` of one flat slot array; the witness probes the one
``{key_hash: slot}`` index of live records and

- **rejects** if any occupied slot holds a *different* request with the
  same 64-bit key hash (not commutative — §3.2.2), or
- **rejects** if the set has no free slot (a *collision*, the subject
  of the Figure 11 associativity study), else
- **accepts**, writing the request into one slot per affected key
  (multi-object updates need a commutative free slot in *every*
  relevant set, §4.2).

Uncollected-garbage detection (§4.5): a record keeps its arrival instant;
one at least ``suspect_after`` old (its clients' retry horizon: no live
client retries it) that causes a rejection is reported back to the
master through the next gc response so it can retry/sync/re-collect it.

Memory is the slot array plus one index entry per live record (§5.2
counts slots only): nothing is kept per set.

This class is a pure data structure (no simulator dependency) so the
Figure 11 benchmark can drive it millions of times cheaply.
"""

from __future__ import annotations

import dataclasses
import math
import typing

from repro.kvstore.hashing import in_ranges


@dataclasses.dataclass(slots=True, eq=False)
class WitnessRecord:
    """One slot's contents.  Compared by identity, so a scan for a free
    way (``index(None)``, ``count(None)``) calls no ``__eq__``."""

    key_hash: int
    rpc_id: typing.Any
    request: typing.Any
    #: instant (µs) the record arrived; its §4.5 age is measured from here
    arrived: float


class WitnessCache:
    """Fixed-size set-associative store of client update requests."""

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
        #: age (µs) from which a record that causes a rejection is a
        #: §4.5 suspect; infinite = never (the Figure 11 harness)
        self.suspect_after = suspect_after
        #: set ``s`` owns ways ``[s * associativity, (s + 1) * associativity)``
        self._slots: list[WitnessRecord | None] = [None] * slots
        #: {key_hash: slot} of every live record — a key hash maps to one
        #: set and, because accepted requests are pairwise commutative,
        #: occupies at most one way of it, so it is unique cache-wide
        self._where: dict[int, int] = {}
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
        """Try to save a request arriving at instant ``now``; True =
        accepted.

        Duplicate records (same rpc_id — a client retry) are accepted
        idempotently and keep their first arrival instant.
        """
        if not key_hashes:
            raise ValueError("record() needs at least one key hash")
        slots = self._slots
        where = self._where
        assoc = self.associativity
        if len(key_hashes) == 1:
            # Single-key fast path: the overwhelmingly common shape
            # (every basic update touches one object, §4.2).
            key_hash = key_hashes[0]
            slot = where.get(key_hash)
            if slot is not None:
                record = slots[slot]
                if record.rpc_id == rpc_id:
                    self.accepts += 1  # idempotent retry
                    return True
                self._note_suspect(record, now)
                self.rejects_commutativity += 1
                return False
            base = key_hash % self.n_sets * assoc
            try:
                slot = slots.index(None, base, base + assoc)  # lowest free way
            except ValueError:
                self.rejects_capacity += 1
                return False
            slots[slot] = WitnessRecord(key_hash, rpc_id, request, now)
            where[key_hash] = slot
            self.accepts += 1
            return True
        # A request that touches the same key twice needs only one slot
        # for it; dedupe up front so the capacity check doesn't demand
        # free slots pass 2 will never consume.
        unique_hashes: typing.Iterable[int] = dict.fromkeys(key_hashes)
        # Pass 1: commutativity + capacity check over every affected set.
        needed_per_set: dict[int, int] = {}
        for key_hash in unique_hashes:
            slot = where.get(key_hash)
            if slot is not None:
                record = slots[slot]
                if record.rpc_id == rpc_id:
                    continue  # idempotent retry
                self._note_suspect(record, now)
                self.rejects_commutativity += 1
                return False
            base = key_hash % self.n_sets * assoc
            needed_per_set[base] = needed_per_set.get(base, 0) + 1
        for base, needed in needed_per_set.items():
            if slots[base:base + assoc].count(None) < needed:
                self.rejects_capacity += 1
                return False
        # Pass 2: write one slot per key (all-or-nothing guaranteed above).
        for key_hash in unique_hashes:
            if key_hash in where:
                continue  # idempotent duplicate for this key
            base = key_hash % self.n_sets * assoc
            slot = slots.index(None, base, base + assoc)  # lowest free way
            slots[slot] = WitnessRecord(key_hash, rpc_id, request, now)
            where[key_hash] = slot
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
        where = self._where
        for key_hash in key_hashes:
            if key_hash in where:
                return False
        return True

    # ------------------------------------------------------------------
    # garbage collection
    # ------------------------------------------------------------------
    def gc(self, pairs: typing.Iterable[tuple[int, typing.Any]]
           ) -> list[typing.Any]:
        """Alias of :meth:`gc_batch` with no caller in ``src/``: the
        frozen e2e tracer (``benchmarks/e2e/trace.py``) names it as an
        entry point, and its smoke test fails on a missing one."""
        return self.gc_batch(pairs)

    def gc_batch(self, pairs: typing.Iterable[tuple[int, typing.Any]]
                 ) -> list[typing.Any]:
        """One gc round: drop the records matching the round's
        (key_hash, rpc_id) pairs.

        Unknown pairs are ignored (the record RPC may have been
        rejected, §4.5).  Returns the requests suspected as uncollected
        garbage since the last round (drained on return).
        """
        slots = self._slots
        where = self._where
        suspects = self._suspects
        for key_hash, rpc_id in pairs:
            slot = where.get(key_hash)
            if slot is not None and slots[slot].rpc_id == rpc_id:
                slots[slot] = None
                del where[key_hash]
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
        where = self._where
        doomed = [key_hash for key_hash in where
                  if not in_ranges((key_hash,), ranges)]
        for key_hash in doomed:
            self._slots[where.pop(key_hash)] = None
        if self._suspects:
            for key in [key for key in self._suspects
                        if not in_ranges((key[0],), ranges)]:
                del self._suspects[key]
        return len(doomed)

    # ------------------------------------------------------------------
    # recovery / lifecycle
    # ------------------------------------------------------------------
    def all_requests(self) -> list[typing.Any]:
        """Unique saved requests (a multi-key request appears once)."""
        seen: dict[typing.Any, typing.Any] = {}
        for record in self._slots:
            if record is not None and record.rpc_id not in seen:
                seen[record.rpc_id] = record.request
        return list(seen.values())

    def clear(self) -> None:
        self._slots = [None] * self.slots
        self._where = {}
        self._suspects.clear()

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------
    def occupied_slots(self) -> int:
        return len(self._where)

    def memory_bytes(self, slot_size: int = 2048) -> int:
        """§5.2 accounting: paper uses 2 KB slots → ~9 MB per master."""
        metadata = 24 * self.slots  # key hash + rpc id + arrival instant
        return self.slots * slot_size + metadata
