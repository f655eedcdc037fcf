"""Segmented WAL + virtual disk unit tests (ISSUE 7 storage model)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kvstore import SegmentedWal, VirtualDisk, key_hash
from repro.kvstore.wal import SegmentInfo
from repro.kvstore.log import LogEntry
from repro.sim.simulator import Simulator


def entry(index, *effects, rpc_id=None, result=None):
    return LogEntry(index=index, effects=tuple(effects), rpc_id=rpc_id,
                    result=result, timestamp=0.0)


def write(key, version):
    return (key, f"v{version}", version)


def fill(wal, n, start=1, key=None):
    for i in range(start, start + n):
        wal.append(entry(i, write(key or f"k{i}", i), rpc_id=("c", i)))


# ---------------------------------------------------------------------------
# segmentation / rotation
# ---------------------------------------------------------------------------

def test_rotation_seals_full_segments():
    wal = SegmentedWal(segment_size=4)
    fill(wal, 9)
    assert len(wal) == 9
    assert wal.stats.segments_sealed == 2
    sealed = [s for s in wal.segments if s.sealed]
    assert [len(s.indices) for s in sealed] == [4, 4]
    assert not wal.active.sealed and len(wal.active.indices) == 1
    assert wal.last_index == 9


def test_rotations_for_counts_upcoming_seals():
    wal = SegmentedWal(segment_size=4)
    fill(wal, 3)  # one slot left in the active segment
    assert wal.rotations_for(0) == 0
    assert wal.rotations_for(1) == 1  # fills the active segment exactly
    assert wal.rotations_for(4) == 1
    assert wal.rotations_for(5) == 2
    assert wal.rotations_for(9) == 3


def test_segment_index_summarises_hash_ranges():
    wal = SegmentedWal(segment_size=2)
    fill(wal, 4)
    infos = wal.segment_index()
    assert len(infos) == 2  # empty active segment omitted
    for info in infos:
        indices = list(range(info.first_index, info.last_index + 1))
        hashes = [key_hash(f"k{i}") for i in indices]
        assert info.min_hash == min(hashes)
        assert info.max_hash == max(hashes)
        assert info.entry_count == 2 and info.sealed
        # segment-indexed reads: disjoint ranges are skippable
        assert info.overlaps(((info.min_hash, info.max_hash + 1),))
        assert not info.overlaps(((info.max_hash + 1, info.max_hash + 2),))


def test_completion_only_segments_are_never_skippable():
    wal = SegmentedWal(segment_size=2)
    wal.append(entry(1, rpc_id=("c", 1), result="ok"))
    wal.append(entry(2, write("a", 1)))
    info = wal.segment_index()[0]
    assert info.completion_only == 1
    assert info.overlaps(((0, 1),))  # any range at all


# ---------------------------------------------------------------------------
# live-ratio accounting + compaction
# ---------------------------------------------------------------------------

def test_overwrites_decay_live_ratio_of_older_segments():
    wal = SegmentedWal(segment_size=4)
    fill(wal, 4, key="hot")  # segment 0: 4 payloads for one key
    assert wal.segments[0].live_ratio == pytest.approx(0.25)
    fill(wal, 4, start=5, key="hot")  # segment 1 supersedes the rest
    assert wal.segments[0].live_ratio == 0.0
    assert wal.segments[1].live_ratio == pytest.approx(0.25)
    # worst-first ordering; the (empty) active segment is never a candidate
    assert wal.cleanable(0.5) == [wal.segments[0], wal.segments[1]]
    assert wal.active not in wal.cleanable(2.0)


def test_compaction_preserves_every_index_and_completion_record():
    wal = SegmentedWal(segment_size=4)
    fill(wal, 4, key="hot")
    fill(wal, 4, start=5, key="hot")
    segment = wal.cleanable(0.5)[0]
    scanned, reclaimed, rewritten = wal.compact(segment)
    assert (scanned, reclaimed, rewritten) == (4, 4, 0)
    # every index still present, slimmed to completion-only records
    for i in range(1, 5):
        slim = wal.get(i)
        assert slim.effects == ()
        assert slim.rpc_id == ("c", i)  # RIFL pair survives
        assert wal.is_compacted(i)
    assert wal.all_entries()[0].index == 1
    assert len(wal.all_entries()) == 8  # gap-free
    assert segment.cleaned
    assert wal.stats.payloads_reclaimed == 4
    # cleaned segments don't come back as candidates
    assert segment not in wal.cleanable(2.0)


def test_compaction_keeps_live_payloads_and_recomputes_hashes():
    wal = SegmentedWal(segment_size=3)
    wal.append(entry(1, write("dead", 1)))
    wal.append(entry(2, write("live", 1)))
    wal.append(entry(3, write("dead", 2)))  # seals segment 0, kills idx 1
    wal.append(entry(4, write("dead", 3)))  # kills idx 3 (segment 0)
    segment = wal.segments[0]
    assert segment.live_ratio == pytest.approx(1 / 3)
    scanned, reclaimed, rewritten = wal.compact(segment)
    assert (scanned, reclaimed, rewritten) == (3, 2, 1)
    assert wal.get(2).effects == (write("live", 1),)
    assert segment.min_hash == segment.max_hash == key_hash("live")
    assert not wal.is_compacted(2)  # untouched entry ≠ compacted


def test_reset_drops_everything():
    wal = SegmentedWal(segment_size=2)
    fill(wal, 5)
    wal.compact(wal.segments[0]) if wal.cleanable(2.0) else None
    wal.reset()
    assert len(wal) == 0 and wal.last_index == 0
    assert len(wal.segments) == 1 and not wal.segments[0].indices
    fill(wal, 2)
    assert wal.last_index == 2


_WAL_STEPS = st.lists(st.one_of(
    st.tuples(st.just("append"), st.integers(1, 60)),
    st.tuples(st.just("compact"), st.integers(0, 20)),
    st.tuples(st.just("reset"), st.just(0))), max_size=60)


@given(_WAL_STEPS)
@settings(max_examples=200, deadline=None)
def test_last_index_tracks_the_key_set(steps):
    """``last_index`` is kept by the mutators, not computed by scanning:
    whatever the interleaving of appends (indices arrive out of order
    when a master resends around a gap), compactions and resets, it
    equals the highest stored index."""
    wal = SegmentedWal(segment_size=3)
    for step, n in steps:
        if step == "append":
            if wal.get(n) is None:  # the caller filters duplicates
                wal.append(entry(n, write(f"k{n % 5}", n), rpc_id=("c", n)))
        elif step == "compact":
            sealed = [s for s in wal.segments if s.sealed]
            if sealed:
                wal.compact(sealed[n % len(sealed)])
        else:
            wal.reset()
        assert wal.last_index == max(
            (stored.index for stored in wal.all_entries()), default=0)


# ---------------------------------------------------------------------------
# virtual disk
# ---------------------------------------------------------------------------

def test_virtual_disk_serializes_charges():
    sim = Simulator(seed=0)
    disk = VirtualDisk(sim)
    assert disk.charge(0.0) == 0.0  # free when disabled
    assert disk.charge(10.0) == 10.0
    # queued behind the first IO: 10 remaining + 5 of its own
    assert disk.charge(5.0) == 15.0
    assert disk.busy_time == 15.0
    sim.schedule_callback(100.0, lambda *args: None, (), None, 0)
    sim.run()
    # after the disk drained, a new charge pays only its own cost
    assert disk.charge(2.0) == 2.0


class _EagerWal:
    """Reference for the WAL's bookkeeping: the original algorithm, with
    dicts from log index to stored effects and to segment id, and the
    key-hash range noted on every append."""

    def __init__(self, segment_size):
        self.segment_size = segment_size
        self.reset()

    def reset(self):
        self.effects = {}          # index -> stored effects
        self.segment_of = {}       # index -> segment id
        self.latest = {}           # key -> index of its newest payload
        self.indices = [[]]        # segment id -> indices, arrival order
        self.live = [0]
        self.total = [0]
        self.hashes = [[]]         # segment id -> hashes noted

    def append(self, index, effects):
        segment = len(self.indices) - 1
        self.indices[segment].append(index)
        self.effects[index] = effects
        self.segment_of[index] = segment
        for key, _value, _version in effects:
            self.hashes[segment].append(key_hash(key))
            self.live[segment] += 1
            self.total[segment] += 1
            if key in self.latest:
                self.live[self.segment_of[self.latest[key]]] -= 1
            self.latest[key] = index
        if len(self.indices[segment]) >= self.segment_size:
            self.indices.append([])
            self.hashes.append([])
            self.live.append(0)
            self.total.append(0)

    def compact(self, segment):
        self.hashes[segment] = []
        for index in self.indices[segment]:
            live = tuple(effect for effect in self.effects[index]
                         if self.latest.get(effect[0]) == index)
            self.effects[index] = live
            self.hashes[segment] += [key_hash(key) for key, _v, _ver in live]
        self.live[segment] = self.total[segment] = sum(
            len(self.effects[i]) for i in self.indices[segment])

    def summary(self, segment):
        hashes = self.hashes[segment]
        return (min(hashes, default=None), max(hashes, default=None),
                sum(1 for i in self.indices[segment] if not self.effects[i]))

    def segment_index(self):
        """``SegmentedWal.segment_index()`` as the dict algorithm reads
        it: every non-empty segment, in segment-id order."""
        infos = []
        for segment, indices in enumerate(self.indices):
            if not indices:
                continue
            min_hash, max_hash, completion_only = self.summary(segment)
            total = self.total[segment]
            infos.append(SegmentInfo(
                segment_id=segment, entry_count=len(indices),
                first_index=min(indices), last_index=max(indices),
                min_hash=min_hash, max_hash=max_hash,
                completion_only=completion_only,
                sealed=segment < len(self.indices) - 1,
                live_ratio=self.live[segment] / total if total else 1.0))
        return tuple(infos)


def _effects_for(n):
    """0, 1 or 2 payloads per entry: completion-only records, single
    writes and MultiWrite-shaped entries over five hot keys."""
    if n % 7 == 0:
        return ()
    if n % 3 == 0:
        return (write(f"k{n % 5}", n), write(f"k{(n + 1) % 5}", n))
    return (write(f"k{n % 5}", n),)


def _drive(steps, check):
    """Replay ``steps`` on a SegmentedWal and the reference side by
    side, calling ``check(wal, reference)`` after each one."""
    wal = SegmentedWal(segment_size=3)
    reference = _EagerWal(segment_size=3)
    for step, n in steps:
        if step == "append":
            # A resend of a stored index is filtered by the caller, as
            # ``BackupServer._store`` does, on what ``get`` answers.
            assert (wal.get(n) is None) == (n not in reference.effects)
            if wal.get(n) is None:
                effects = _effects_for(n)
                wal.append(entry(n, *effects, rpc_id=("c", n)))
                reference.append(n, effects)
        elif step == "compact":
            sealed = [s for s in wal.segments if s.sealed]
            if sealed:
                segment = sealed[n % len(sealed)]
                wal.compact(segment)
                reference.compact(segment.segment_id)
        else:
            wal.reset()
            reference.reset()
        check(wal, reference)


@given(_WAL_STEPS)
@settings(max_examples=200, deadline=None)
def test_segment_lookup_and_payload_counts_match_the_dict_algorithm(steps):
    """The index -> segment list answers what the dict did, through
    out-of-order arrivals (a late index fills its own slot, leaving the
    gaps below it empty), compactions and resets; so every segment's
    live and total payload counts stay those of the dict algorithm."""
    def check(wal, reference):
        for index in range(len(wal._segment_of)):
            holder = wal._segment_of[index]
            if index in reference.segment_of:
                assert holder.segment_id == reference.segment_of[index]
            else:
                assert holder is None
        assert len(wal._segment_of) == max(reference.segment_of,
                                           default=-1) + 1
        assert [(s.live_payloads, s.total_payloads) for s in wal.segments] \
            == list(zip(reference.live, reference.total))

    _drive(steps, check)


@given(_WAL_STEPS)
@settings(max_examples=200, deadline=None)
def test_lazy_segment_summary_equals_the_eager_one(steps):
    """``segment_index()`` computes each segment's key-hash range and
    completion-only count where it is read, caching it once the segment
    is sealed; the values are the ones noting every hash on append gave,
    before and after ``compact()`` rewrites a (cached) segment."""
    def check(wal, reference):
        for info in wal.segment_index():
            assert (info.min_hash, info.max_hash, info.completion_only) \
                == reference.summary(info.segment_id)
        for segment in wal.segments:
            if segment.cleaned:
                assert (segment.min_hash, segment.max_hash) \
                    == reference.summary(segment.segment_id)[:2]

    _drive(steps, check)


@given(_WAL_STEPS)
@settings(max_examples=200, deadline=None)
def test_entry_index_matches_the_dict_algorithm(steps):
    """The index -> entry list answers what the dict from log index to
    entry did, through out-of-order arrivals that leave gaps, duplicate
    resends the caller filters on ``get``, compactions that slim
    entries in place, and resets: ``get`` at every index in and around
    the log, ``len``, ``all_entries`` in index order, ``last_index`` and
    the whole ``segment_index()``."""
    def check(wal, reference):
        for index in range(-1, 63):
            stored = wal.get(index)
            if index in reference.effects:
                assert (stored.index, stored.effects, stored.rpc_id) \
                    == (index, reference.effects[index], ("c", index))
            else:
                assert stored is None
        assert len(wal) == len(reference.effects)
        assert [(e.index, e.effects) for e in wal.all_entries()] \
            == sorted(reference.effects.items())
        assert wal.last_index == max(reference.effects, default=0)
        assert wal.segment_index() == reference.segment_index()

    _drive(steps, check)
