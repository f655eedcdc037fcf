"""Segmented WAL + virtual disk unit tests (ISSUE 7 storage model)."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kvstore import BackupServer, SegmentedWal, key_hash
from repro.kvstore.wal import Segment, SegmentInfo
from repro.kvstore.log import TOMBSTONE, LogEntry
from repro.net import Network
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
# live-payload accounting + compaction
# ---------------------------------------------------------------------------

def test_overwrites_decay_the_live_payloads_of_older_segments():
    wal = SegmentedWal(segment_size=4)
    fill(wal, 4, key="hot")  # segment 0: 4 payloads for one key
    assert wal.live_payloads(wal.segments[0]) == 1
    fill(wal, 4, start=5, key="hot")  # segment 1 supersedes the rest
    assert wal.live_payloads(wal.segments[0]) == 0
    assert wal.live_payloads(wal.segments[1]) == 1
    # worst-first ordering; the (empty) active segment is never a candidate
    assert wal.cleanable(0.5) == [wal.segments[0], wal.segments[1]]
    assert wal.cleanable(0.25) == [wal.segments[0]]
    assert wal.active not in wal.cleanable(2.0)


def test_liveness_follows_log_order_not_arrival_order():
    """A late arrival of an older entry is dead on arrival: the newer
    payload already stored stays the live one, for the cleaner's
    counts and for what ``compact`` keeps."""
    wal = SegmentedWal(segment_size=2)
    wal.append(entry(2, write("a", 2)))
    wal.append(entry(1, write("a", 1)))
    segment = wal.segments[0]
    assert segment.indices == [2, 1] and segment.sealed
    assert wal.live_payloads(segment) == 1
    assert wal.cleanable(0.6) == [segment]
    assert wal.compact(segment) == (2, 1, 1)
    assert wal.get(2).effects == (write("a", 2),)
    assert wal.get(1).effects == ()


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
    assert wal.live_payloads(segment) == 1
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


class _EagerWal:
    """Reference for the WAL's bookkeeping: dicts from log index to
    stored effects and from segment id to its indices, the key-hash
    range noted on every append, and liveness worked out by brute force
    from the definition — a payload is live while no stored entry with
    a higher log index writes its key."""

    def __init__(self, segment_size):
        self.segment_size = segment_size
        self.reset()

    def reset(self):
        self.effects = {}          # index -> stored effects
        self.indices = [[]]        # segment id -> indices, arrival order
        self.hashes = [[]]         # segment id -> hashes noted

    def append(self, index, effects):
        segment = len(self.indices) - 1
        self.indices[segment].append(index)
        self.effects[index] = effects
        for key, _value, _version in effects:
            self.hashes[segment].append(key_hash(key))
        if len(self.indices[segment]) >= self.segment_size:
            self.indices.append([])
            self.hashes.append([])

    def newest(self, key):
        return max(index for index, effects in self.effects.items()
                   if any(effect[0] == key for effect in effects))

    def payloads(self, segment):
        """(live, stored) payloads of a segment."""
        stored = [(index, effect[0]) for index in self.indices[segment]
                  for effect in self.effects[index]]
        return (sum(1 for index, key in stored if self.newest(key) == index),
                len(stored))

    def compact(self, segment):
        self.hashes[segment] = []
        kept = {index: tuple(effect for effect in self.effects[index]
                             if self.newest(effect[0]) == index)
                for index in self.indices[segment]}
        for index, live in kept.items():
            self.effects[index] = live
            self.hashes[segment] += [key_hash(key) for key, _v, _ver in live]

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
            infos.append(SegmentInfo(
                segment_id=segment, entry_count=len(indices),
                first_index=min(indices), last_index=max(indices),
                min_hash=min_hash, max_hash=max_hash,
                completion_only=completion_only,
                sealed=segment < len(self.indices) - 1))
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
def test_segment_membership_and_payload_counts_match_the_dict_algorithm(
        steps):
    """Each segment holds the indices that arrived while it was active,
    through out-of-order arrivals (a late index fills its own slot,
    leaving the gaps below it empty), compactions and resets; and its
    live and stored payload counts, worked out where they are read, are
    the ones the definition gives in log order."""
    def check(wal, reference):
        assert [s.indices for s in wal.segments] == reference.indices
        newest = wal._newest_writers(0)
        for segment in wal.segments:
            live = wal._live(segment, newest)
            assert (sum(live), len(live)) \
                == reference.payloads(segment.segment_id)
            assert wal.live_payloads(segment) == sum(live)

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


# ---------------------------------------------------------------------------
# read-time liveness against the incremental algorithm it replaced
# ---------------------------------------------------------------------------

class _CountedSegment(Segment):
    """``Segment`` with the payload counters ``append`` used to keep."""

    __slots__ = ("live_payloads", "total_payloads")

    def __init__(self, segment_id: int):
        super().__init__(segment_id)
        #: payload = one (key, value, version) effect; live = not yet
        #: superseded by a later entry for the same key
        self.live_payloads = 0
        self.total_payloads = 0

    @property
    def live_ratio(self) -> float:
        if self.total_payloads == 0:
            return 1.0
        return self.live_payloads / self.total_payloads


class _IncrementalWal(SegmentedWal):
    """``SegmentedWal`` before liveness moved to where it is read, kept
    verbatim: a key -> newest index dict and an index -> segment list,
    updated on every append, and live / total payload counters per
    segment.  It keeps liveness in *arrival* order, which is log order
    only while entries arrive in order; the comparison below sticks to
    that case.  ``value_of`` is ``BackupServer.value_of`` as it was."""

    def __init__(self, segment_size: int):
        self._segment_of: list[Segment | None] = []
        #: key -> log index of the entry holding its newest payload
        self._latest_index: dict[str, int] = {}
        super().__init__(segment_size)

    def _open_segment(self) -> Segment:
        segment = _CountedSegment(len(self.segments))
        self.segments.append(segment)
        self.active = segment
        return segment

    def append(self, entry: LogEntry) -> None:
        """Store one *new* entry (caller has checked for duplicates)."""
        segment = self.active
        index = entry.index
        segment.indices.append(index)
        segment_of = self._segment_of
        if index >= len(segment_of):
            gap = [None] * (index + 1 - len(segment_of))
            self.entries += gap
            segment_of += gap
        self.entries[index] = entry     # a late arrival fills its gap
        segment_of[index] = segment
        self._count += 1
        self.stats.entries_appended += 1
        latest = self._latest_index
        for key, _value, _version in entry.effects:
            segment.live_payloads += 1
            segment.total_payloads += 1
            previous = latest.get(key)
            if previous is not None:
                segment_of[previous].live_payloads -= 1
            latest[key] = index
        if len(segment.indices) >= self.segment_size:
            segment.sealed = True
            self.stats.segments_sealed += 1
            self._open_segment()

    def reset(self) -> None:
        """Drop everything (``reset_log`` wholesale adoption)."""
        self.entries.clear()
        self.segments.clear()
        self._segment_of.clear()
        self._count = 0
        self._latest_index.clear()
        self._compacted.clear()
        self._open_segment()

    def live_payloads(self, segment: Segment) -> int:
        return segment.live_payloads

    def cleanable(self, live_ratio_threshold: float) -> list[Segment]:
        """Sealed, not-yet-cleaned segments below the live threshold,
        worst (most garbage) first."""
        candidates = [s for s in self.segments
                      if s.sealed and not s.cleaned
                      and s.live_ratio < live_ratio_threshold]
        candidates.sort(key=lambda s: s.live_ratio)
        return candidates

    def compact(self, segment: Segment) -> tuple[int, int, int]:
        scanned = len(segment.indices)
        reclaimed = 0
        rewritten = 0
        for index in segment.indices:
            entry = self.entries[index]
            if not entry.effects:
                continue
            live = tuple(effect for effect in entry.effects
                         if self._latest_index.get(effect[0]) == index)
            reclaimed += len(entry.effects) - len(live)
            rewritten += len(live)
            if len(live) != len(entry.effects):
                self.entries[index] = LogEntry(
                    index=entry.index, effects=live, rpc_id=entry.rpc_id,
                    result=entry.result, timestamp=entry.timestamp)
                self._compacted.add(index)
        segment.total_payloads = segment.live_payloads = rewritten
        segment._completion_only = None
        self._summarize(segment)
        segment.cleaned = True
        self.stats.segments_cleaned += 1
        self.stats.entries_scanned += scanned
        self.stats.payloads_reclaimed += reclaimed
        self.stats.payloads_rewritten += rewritten
        return scanned, reclaimed, rewritten

    @property
    def last_index(self) -> int:
        """Highest stored index (0 = empty)."""
        return max(len(self._segment_of) - 1, 0)

    def value_of(self, key: str):
        index = self._latest_index.get(key)
        if index is None:
            return None
        # The cleaner keeps exactly this effect.
        value = self.entries[index].effect_on(key)[1]
        return None if value is TOMBSTONE else value


#: in-order arrivals: the next index (``skip`` = 1 leaves a gap a later
#: entry never fills), a resend of index n (filtered by the caller on
#: ``get``), a compaction of the (n mod #sealed)-th sealed segment, a
#: cleaner pass at a live-ratio threshold, or a wholesale reset
_IN_ORDER_STEPS = st.lists(st.one_of(
    st.tuples(st.just("append"), st.sampled_from((0, 0, 0, 1))),
    st.tuples(st.just("resend"), st.integers(1, 60)),
    st.tuples(st.just("compact"), st.integers(0, 20)),
    st.tuples(st.just("clean"), st.sampled_from((0.3, 0.5, 0.6, 1.0))),
    st.tuples(st.just("reset"), st.just(0))), max_size=80)


@given(_IN_ORDER_STEPS)
@settings(max_examples=200, deadline=None)
def test_read_time_liveness_matches_the_incremental_algorithm(steps):
    """While entries arrive in log order — with resends, compactions,
    cleaner passes and resets between them — the live counts worked out
    where they are read equal the counters ``append`` used to keep, and
    ``cleanable()`` (which segments, in what order), each cleaned
    segment's live count at the instant the cleaner reads it,
    ``compact()`` output, the stored entries and ``value_of`` all agree
    with the replaced algorithm."""
    sim = Simulator(seed=0)
    backup = BackupServer(Network(sim).add_host("backup1"), master_id="m1")
    wal = backup.wal = SegmentedWal(segment_size=3)
    reference = _IncrementalWal(segment_size=3)
    for step, n in steps:
        if step == "append":
            index = wal.last_index + 1 + n
            effects = _effects_for(index)
            wal.append(entry(index, *effects, rpc_id=("c", index)))
            reference.append(entry(index, *effects, rpc_id=("c", index)))
        elif step == "resend":
            assert (wal.get(n) is None) == (reference.get(n) is None)
        elif step == "compact":
            sealed = [s.segment_id for s in wal.segments if s.sealed]
            if sealed:
                chosen = sealed[n % len(sealed)]
                assert wal.compact(wal.segments[chosen]) \
                    == reference.compact(reference.segments[chosen])
        elif step == "clean":
            chosen = [s.segment_id for s in wal.cleanable(n)]
            assert chosen == [s.segment_id for s in reference.cleanable(n)]
            for segment_id in chosen:
                assert wal.live_payloads(wal.segments[segment_id]) \
                    == reference.segments[segment_id].live_payloads
                assert wal.compact(wal.segments[segment_id]) \
                    == reference.compact(reference.segments[segment_id])
        else:
            wal.reset()
            reference.reset()
        assert wal.entries == reference.entries
        assert (len(wal), wal.last_index) == (len(reference),
                                              reference.last_index)
        assert [wal.live_payloads(s) for s in wal.segments] \
            == [s.live_payloads for s in reference.segments]
        assert wal.stats == reference.stats
        assert wal.segment_index() == reference.segment_index()
        for key in ("k0", "k1", "k2", "k3", "k4", "never"):
            assert backup.value_of(key) == reference.value_of(key)
