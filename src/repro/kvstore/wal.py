"""Segmented write-ahead log for backups.

RAMCloud organises each backup's replica data into fixed-size
*segments*: the unit of allocation, of cleaning, and — crucially for
fast crash recovery — of parallel replay.  This module models that
layout in virtual time:

- :class:`SegmentedWal` keeps a backup's log entries bucketed into
  segments in arrival order.  The active segment seals ("rotates") when
  full; sealed segments carry an index summary (entry count, key-hash
  min/max) so readers can *skip* segments that cannot contain a key
  range — segment-indexed reads.
- The backup charges its IO to its host's
  :class:`~repro.sim.resources.VirtualDisk`, a busy-until accumulator:
  every charged IO starts when the previous one finishes, so appends,
  cleaner passes and recovery reads on one backup serialize — the
  modeled disk-bandwidth bound that partitioned recovery works around
  by striping reads across backups.
- Cleaning (log compaction) rewrites a sealed segment whose *live
  payload* ratio dropped below a threshold: superseded values are
  dropped, but every log *index* survives as a slim completion-only
  record (``effects=()``), because recovery's ``rebuild_from_entries``
  requires a gap-free log and RIFL exactly-once needs the
  ``rpc_id → result`` pairs.  Read amplification is the whole-segment
  scan; write amplification is the survivor rewrite.  Which payloads
  are live is worked out in log order where the cleaner reads it.

All of it is pure bookkeeping until a
:class:`~repro.core.config.StorageProfile` is enabled — the WAL itself
schedules nothing and draws no randomness.
"""

from __future__ import annotations

import dataclasses
import typing

from repro.kvstore.hashing import key_hash
from repro.kvstore.log import LogEntry


@dataclasses.dataclass
class BackupStats:
    """Counters for one backup's storage activity."""

    #: entries appended (first-time stores; duplicate resends excluded)
    entries_appended: int = 0
    #: segments sealed because the active segment filled (rotations)
    segments_sealed: int = 0
    #: sealed segments rewritten by the cleaner
    segments_cleaned: int = 0
    #: entries scanned by cleaner passes (the read-amplification source)
    entries_scanned: int = 0
    #: live payloads rewritten by the cleaner (write amplification)
    payloads_rewritten: int = 0
    #: superseded payloads dropped by the cleaner (space reclaimed)
    payloads_reclaimed: int = 0
    #: entries read back for recovery (full-log or partitioned reads)
    recovery_entries_read: int = 0
    #: segments a partitioned/ranged read skipped via the segment index
    segments_skipped: int = 0


@dataclasses.dataclass(frozen=True)
class SegmentInfo:
    """Wire summary of one segment (the recovery coordinator's index)."""

    segment_id: int
    entry_count: int
    first_index: int
    last_index: int
    #: smallest / largest key hash among stored payloads (None when the
    #: segment holds only completion-only records)
    min_hash: int | None
    max_hash: int | None
    #: entries with no effects (completion records) — these belong to
    #: every recovery partition, so a segment holding any can never be
    #: skipped by a hash-range test
    completion_only: int
    sealed: bool

    def overlaps(self, ranges: typing.Sequence[tuple[int, int]]) -> bool:
        """Can this segment contain data for any [lo, hi) in ranges?"""
        if self.completion_only:
            return True
        if self.min_hash is None:
            return False  # empty segment
        return any(self.min_hash < hi and self.max_hash >= lo
                   for lo, hi in ranges)


class Segment:
    """One segment: a contiguous arrival-order slice of the log."""

    __slots__ = ("segment_id", "indices", "sealed", "cleaned", "min_hash",
                 "max_hash", "_completion_only")

    def __init__(self, segment_id: int):
        self.segment_id = segment_id
        #: log indices stored here, in arrival order
        self.indices: list[int] = []
        self.sealed = False
        self.cleaned = False
        #: key-hash range of the stored payloads, filled where it is
        #: read (``SegmentedWal._summarize``), not per append
        self.min_hash: int | None = None
        self.max_hash: int | None = None
        #: completion-only entries; None until a sealed segment is
        #: summarized, after which the whole summary is final
        self._completion_only: int | None = None


class SegmentedWal:
    """A backup's entries, organised into rotation-sealed segments."""

    def __init__(self, segment_size: int,
                 stats: BackupStats | None = None):
        if segment_size < 1:
            raise ValueError("segment_size must be >= 1")
        self.segment_size = segment_size
        self.stats = stats if stats is not None else BackupStats()
        self.segments: list[Segment] = []
        #: log index -> stored entry (None = not stored): a list,
        #: because indices are dense, and a late (out-of-order) arrival
        #: fills its own slot.  The last slot is the highest stored
        #: index, so ``last_index`` — read by every replicate ack —
        #: costs no scan of the log.
        self.entries: list[LogEntry | None] = []
        #: stored entries (``len``; the list has gaps)
        self._count = 0
        #: indices whose stored entry was slimmed by the cleaner (a
        #: master resend of the original full entry is *not* divergence)
        self._compacted: set[int] = set()
        self._open_segment()

    # ------------------------------------------------------------------
    # write path
    # ------------------------------------------------------------------
    def _open_segment(self) -> Segment:
        segment = Segment(len(self.segments))
        self.segments.append(segment)
        self.active = segment
        return segment

    def rotations_for(self, n_new: int) -> int:
        """How many segment seals ``n_new`` fresh appends will trigger."""
        if n_new <= 0:
            return 0
        room = self.segment_size - len(self.active.indices)
        if n_new < room:
            return 0
        return 1 + (n_new - room) // self.segment_size

    def append(self, entry: LogEntry) -> None:
        """Store one *new* entry (caller has checked for duplicates)."""
        segment = self.active
        index = entry.index
        segment.indices.append(index)
        entries = self.entries
        if index >= len(entries):
            entries += [None] * (index + 1 - len(entries))
        entries[index] = entry          # a late arrival fills its gap
        self._count += 1
        self.stats.entries_appended += 1
        if len(segment.indices) >= self.segment_size:
            segment.sealed = True
            self.stats.segments_sealed += 1
            self._open_segment()

    def is_compacted(self, index: int) -> bool:
        return index in self._compacted

    def reset(self) -> None:
        """Drop everything (``reset_log`` wholesale adoption)."""
        self.entries.clear()
        self.segments.clear()
        self._count = 0
        self._compacted.clear()
        self._open_segment()

    # ------------------------------------------------------------------
    # read path
    # ------------------------------------------------------------------
    def get(self, index: int) -> LogEntry | None:
        """The stored entry at ``index`` (None = not stored)."""
        return self.entries[index] if 0 < index < len(self.entries) else None

    def all_entries(self) -> tuple[LogEntry, ...]:
        return tuple(entry for entry in self.entries if entry is not None)

    def segment_index(self) -> tuple[SegmentInfo, ...]:
        """Metadata summary of every non-empty segment (plus the active
        one) — what the recovery coordinator partitions reads over."""
        infos = []
        for segment in self.segments:
            if not segment.indices:
                continue
            completion_only = self._summarize(segment)
            infos.append(SegmentInfo(
                segment_id=segment.segment_id,
                entry_count=len(segment.indices),
                first_index=min(segment.indices),
                last_index=max(segment.indices),
                min_hash=segment.min_hash,
                max_hash=segment.max_hash,
                completion_only=completion_only,
                sealed=segment.sealed))
        return tuple(infos)

    def _summarize(self, segment: Segment) -> int:
        """Fill ``segment.min_hash`` / ``max_hash`` from its stored
        entries and return how many of them are completion-only.

        Computed here, where the summary is read, so that appends never
        hash a key.  A sealed segment's entries change only in
        ``compact``, which re-summarizes it, so its summary is kept; the
        active segment's is recomputed per read.
        """
        if segment._completion_only is not None:
            return segment._completion_only
        stored = [self.entries[index].effects for index in segment.indices]
        hashes = [key_hash(key) for effects in stored
                  for key, _value, _version in effects]
        segment.min_hash = min(hashes, default=None)
        segment.max_hash = max(hashes, default=None)
        completion_only = sum(1 for effects in stored if not effects)
        if segment.sealed:
            segment._completion_only = completion_only
        return completion_only

    # ------------------------------------------------------------------
    # cleaning (compaction)
    # ------------------------------------------------------------------
    def _newest_writers(self, lowest: int) -> dict[str, int]:
        """Key -> highest stored index writing it, over indices from
        ``lowest`` up: one backward pass, in log order, not arrival."""
        newest: dict[str, int] = {}
        entries = self.entries
        for index in range(len(entries) - 1, max(lowest, 1) - 1, -1):
            entry = entries[index]
            if entry is not None:
                for key, _value, _version in entry.effects:
                    newest.setdefault(key, index)
        return newest

    def _live(self, segment: Segment, newest: dict[str, int]) -> list[bool]:
        """One flag per stored payload — one (key, value, version)
        effect — of ``segment``: live while no higher index writes it."""
        return [newest[key] == index for index in segment.indices
                for key, _value, _version in self.entries[index].effects]

    def live_payloads(self, segment: Segment) -> int:
        """Live payloads in ``segment`` now (the cleaner's rewrite)."""
        newest = self._newest_writers(min(segment.indices, default=0))
        return sum(self._live(segment, newest))

    def cleanable(self, live_ratio_threshold: float) -> list[Segment]:
        """Sealed, not-yet-cleaned segments below the live threshold,
        worst (most garbage) first."""
        sealed = [s for s in self.segments if s.sealed and not s.cleaned]
        newest = self._newest_writers(min(
            (min(s.indices) for s in sealed), default=len(self.entries)))
        ratio = {}
        for segment in sealed:
            live = self._live(segment, newest)
            ratio[segment] = sum(live) / len(live) if live else 1.0
        candidates = [s for s in sealed if ratio[s] < live_ratio_threshold]
        candidates.sort(key=ratio.get)
        return candidates

    def compact(self, segment: Segment) -> tuple[int, int, int]:
        """Rewrite ``segment`` keeping only live payloads.

        Every log index survives (as a completion-only record when all
        its payloads were superseded): recovery needs a gap-free log and
        the ``rpc_id → result`` pairs must outlive their values for
        exactly-once.  Returns (entries scanned, payloads reclaimed,
        payloads rewritten).
        """
        newest = self._newest_writers(min(segment.indices, default=0))
        scanned = len(segment.indices)
        reclaimed = 0
        rewritten = 0
        for index in segment.indices:
            entry = self.entries[index]
            if not entry.effects:
                continue
            live = tuple(effect for effect in entry.effects
                         if newest[effect[0]] == index)
            reclaimed += len(entry.effects) - len(live)
            rewritten += len(live)
            if len(live) != len(entry.effects):
                self.entries[index] = LogEntry(
                    index=entry.index, effects=live, rpc_id=entry.rpc_id,
                    result=entry.result, timestamp=entry.timestamp)
                self._compacted.add(index)
        segment._completion_only = None
        self._summarize(segment)
        segment.cleaned = True
        self.stats.segments_cleaned += 1
        self.stats.entries_scanned += scanned
        self.stats.payloads_reclaimed += reclaimed
        self.stats.payloads_rewritten += rewritten
        return scanned, reclaimed, rewritten

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._count

    @property
    def last_index(self) -> int:
        """Highest stored index (0 = empty)."""
        return max(len(self.entries) - 1, 0)
