"""Protocol configuration.

One config object drives both CURP and the paper's comparison systems:
``ReplicationMode`` selects between the protocol variants measured in
Figures 5/6/12 ("Original RAMCloud" = SYNC, "Async" = ASYNC,
"Unreplicated" = UNREPLICATED, CURP = CURP).  Keeping them in one
implementation guarantees the baselines pay identical execution and
dispatch costs, so benchmark deltas isolate the protocol difference —
the same methodology the paper uses by implementing CURP inside
RAMCloud itself.
"""

from __future__ import annotations

import dataclasses
import enum


class ReplicationMode(enum.Enum):
    """Which replication protocol a master runs."""

    #: no backups at all; the latency/throughput upper bound
    UNREPLICATED = "unreplicated"
    #: traditional primary-backup: sync to all backups before replying
    SYNC = "sync"
    #: reply before sync, *without* witnesses (fast but unsafe — loses
    #: acknowledged updates on crash; the paper's "Async" line)
    ASYNC = "async"
    #: the paper's protocol: speculative execution + witnesses
    CURP = "curp"


@dataclasses.dataclass
class OverloadConfig:
    """Overload-protection knobs (admission control, pushback,
    per-tenant fairness).

    Everything here is **off by default** (``enabled=False``): the
    defenses add zero events and zero rng draws when disabled, so every
    pre-existing golden trace is byte-identical.  When enabled:

    - masters bound their admission queue: an update/read arriving
      while ``Resource.queue_length`` of the worker pool is already at
      ``max_queue_depth`` is *shed* with a ``RETRY_LATER`` AppError
      carrying a ``retry_after`` hint (µs) instead of joining an
      unbounded queue.  Shedding costs one cheap reply, not a worker;
      the waiting clients that *are* admitted see bounded queue delay
      instead of collapse (goodput stays flat past saturation).
    - clients honor the pushback: a ``RETRY_LATER`` reply backs off by
      the hint (exponentially grown per consecutive pushback, jittered
      via ``sim.rng``) without refetching the cluster view — overload
      is not a routing problem, and hammering the coordinator during a
      flash crowd would just move the collapse there.
    - the shared multi-tenant :class:`~repro.core.witness.
      WitnessEndpoint` applies windowed per-tenant fair admission so
      one hot tenant's record storm cannot starve the other shards'
      1-RTT fast path (an under-fair-share tenant is always admitted).
    - open-loop drivers shrink their in-flight window AIMD-style on
      pushback — the backpressure half of the contract.
    """

    enabled: bool = False
    #: shed updates/reads once this many acquisitions are queued on the
    #: master's worker pool (the admission bound; the workers themselves
    #: stay busy — shedding only caps *waiting*)
    max_queue_depth: int = 64
    #: base retry hint (µs) carried in the RETRY_LATER pushback
    retry_after: float = 200.0
    #: cap for the exponentially-grown client pushback delay (µs)
    retry_after_cap: float = 2_000.0
    #: record admissions per shared WitnessEndpoint per accounting
    #: window; 0 disables per-tenant fair admission.
    #: A tenant below ``witness_window_records / n_tenants`` is always
    #: admitted; past the global budget, tenants at/over fair share are
    #: rejected (REJECTED → the hot tenant's clients take the 2-RTT
    #: sync path and their AIMD windows shrink).
    witness_window_records: int = 0

    def __post_init__(self) -> None:
        if self.max_queue_depth < 1:
            raise ValueError("max_queue_depth must be >= 1")
        if self.retry_after <= 0:
            raise ValueError("retry_after must be > 0")
        if self.retry_after_cap < self.retry_after:
            raise ValueError("retry_after_cap must be >= retry_after")
        if self.witness_window_records < 0:
            raise ValueError("witness_window_records must be >= 0 "
                             "(0 disables fairness)")


@dataclasses.dataclass
class StorageProfile:
    """Virtual-time cost model for the backups' log-structured store
    (segmented WAL + background compaction, docs/STORAGE.md).

    Everything is **off by default** (``enabled=False``): backups keep
    organising their entries into segments either way (that is pure
    bookkeeping), but with the profile disabled every cost below is
    zero, no cleaner task is spawned, and no rng is consulted — so the
    PR 1–6 golden traces stay byte-identical.  When enabled, every
    durable byte starts costing virtual disk time:

    - ``replicate`` acks wait for the segment append (and any segment
      rotation it triggers) to drain through the backup's single
      virtual disk — the latency CURP hides behind witnesses;
    - the background cleaner rewrites low-live-ratio sealed segments,
      charging read amplification (scan the whole segment) and write
      amplification (rewrite the survivors) on the same disk the
      update path needs;
    - recovery reads are charged per stored entry on each backup's
      disk, which is what makes partitioned recovery's
      read-once/replay-in-parallel shape measurable;
    - tablet migration charges a per-object segment-transfer cost on
      the source master.
    """

    enabled: bool = False
    # -- segment geometry ------------------------------------------------
    #: log entries per segment before the active segment is sealed and
    #: a new one opened (RAMCloud: 8 MB segments; here we count entries
    #: because the simulator's unit of work is the log entry)
    segment_size: int = 128
    # -- write path (µs of disk time) ------------------------------------
    #: disk time to append one log entry to the active segment
    append_time: float = 0.5
    #: disk time to seal a full segment and open a fresh one
    rotation_time: float = 20.0
    # -- read path (µs of disk time) -------------------------------------
    #: disk time to read one *stored* entry back (recovery, compaction
    #: scans — read amplification is this cost times entries scanned)
    read_entry_time: float = 0.3
    # -- background cleaner ----------------------------------------------
    #: cleaner wake-up period (µs); 0 = never spawn the cleaner task
    compaction_interval: float = 0.0
    #: sealed segments whose live-payload ratio drops below this are
    #: cleaned on the next cleaner pass
    compaction_live_ratio: float = 0.5
    #: disk time to rewrite one surviving payload during cleaning
    #: (write amplification = survivors rewritten / payloads reclaimed)
    compaction_write_time: float = 0.5
    # -- recovery master replay ------------------------------------------
    #: CPU time for a recovery master to install one replayed entry
    #: (hash, insert, version bookkeeping); this is the term that
    #: partitioning across k recovery masters divides by k
    replay_entry_time: float = 1.0
    # -- migration ---------------------------------------------------------
    #: per-object segment-transfer cost charged on the source master
    #: during ``migrate_out`` (reading the tablet's objects out of its
    #: backups' segments and shipping them)
    migrate_entry_time: float = 0.0

    def __post_init__(self) -> None:
        if self.segment_size < 1:
            raise ValueError("segment_size must be >= 1")
        if self.append_time < 0:
            raise ValueError("append_time must be >= 0")
        if self.rotation_time < 0:
            raise ValueError("rotation_time must be >= 0")
        if self.read_entry_time < 0:
            raise ValueError("read_entry_time must be >= 0")
        if self.compaction_interval < 0:
            raise ValueError("compaction_interval must be >= 0 "
                             "(0 disables the cleaner)")
        if not 0.0 < self.compaction_live_ratio <= 1.0:
            raise ValueError("compaction_live_ratio must be in (0, 1]")
        if self.compaction_write_time < 0:
            raise ValueError("compaction_write_time must be >= 0")
        if self.replay_entry_time < 0:
            raise ValueError("replay_entry_time must be >= 0")
        if self.migrate_entry_time < 0:
            raise ValueError("migrate_entry_time must be >= 0")


@dataclasses.dataclass
class CurpConfig:
    """Knobs for masters, witnesses and clients."""

    #: fault-tolerance level: number of backups and witnesses (§3.1)
    f: int = 3
    mode: ReplicationMode = ReplicationMode.CURP

    # -- witness gc (§4.5; geometry is WitnessCache's own, §4.2) -------
    #: gc generations before a surviving record is suspected as
    #: uncollected garbage (§4.5: "three is a good number")
    gc_stale_threshold: int = 3

    # -- master sync batching (§4.4, §C.1) ------------------------------
    #: start a backup sync once this many unsynced ops accumulate
    #: ("masters batch at most 50 operations before syncs")
    min_sync_batch: int = 50
    #: flush unsynced ops after this much quiet time (bounds how long a
    #: witness must hold a record; not varied in the paper's figures)
    idle_sync_delay: float = 200.0
    #: window (µs) for the hot-key heuristic: an update to a key updated
    #: this recently triggers a preemptive sync (§4.4); 0 disables
    hot_key_window: float = 0.0

    # -- protocol hot path (docs/PERFORMANCE.md) ------------------------
    #: True = transport-level frame coalescing: messages a host sends
    #: to one destination within one virtual instant are packed into a
    #: single NIC :class:`~repro.net.message.Frame` at the
    #: end-of-instant flush boundary — one transmission (one delivery
    #: record, one rx dispatch, one latency sample, one drop roll) for
    #: the whole batch, unpacked in send order at the receiver.  The
    #: client's 1 + f fan-out and the master's replicate/gc fan-outs
    #: are the primary producers; pipelined/batched workloads coalesce
    #: hardest (CURP §4 batches syncs and gc the same way, and
    #: commutative operations are exactly the ones safe to pack).
    #: Latency physics change per *frame* (tx_cost and wire latency are
    #: paid once per frame, not per message), so False (the default)
    #: preserves the uncoalesced golden trace byte-for-byte; the
    #: coalesced path is pinned by its own golden trace.
    frame_coalescing: bool = False

    # -- client behaviour ------------------------------------------------
    #: per-RPC timeout for client operations
    rpc_timeout: float = 2_000.0
    #: attempts before an update/read raises to the application
    max_attempts: int = 30
    #: backoff between client retries after a timeout/config refresh
    retry_backoff: float = 50.0

    # -- overload protection ---------------------------------------------
    #: admission control, RETRY_LATER pushback and per-tenant fair
    #: witness admission; disabled by default (golden-trace safe)
    overload: OverloadConfig = dataclasses.field(
        default_factory=OverloadConfig)

    # -- durable storage model --------------------------------------------
    #: segmented-WAL cost model for backups + recovery/migration data
    #: movement; disabled by default (golden-trace safe)
    storage: StorageProfile = dataclasses.field(
        default_factory=StorageProfile)

    def __post_init__(self) -> None:
        if self.f < 0:
            raise ValueError(f"f must be >= 0: {self.f}")
        if self.gc_stale_threshold < 1:
            raise ValueError("gc_stale_threshold must be >= 1")
        if self.min_sync_batch < 1:
            raise ValueError("min_sync_batch must be >= 1")
        if self.idle_sync_delay < 0:
            raise ValueError("idle_sync_delay must be >= 0")
        if self.hot_key_window < 0:
            raise ValueError("hot_key_window must be >= 0 (0 disables)")
        if self.rpc_timeout <= 0:
            raise ValueError("rpc_timeout must be > 0")
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.retry_backoff < 0:
            raise ValueError("retry_backoff must be >= 0 (0 disables)")
        if self.mode is ReplicationMode.UNREPLICATED and self.f != 0:
            raise ValueError("unreplicated mode requires f=0")

    @property
    def uses_witnesses(self) -> bool:
        return self.mode is ReplicationMode.CURP and self.f > 0

    @property
    def uses_backups(self) -> bool:
        return self.mode is not ReplicationMode.UNREPLICATED and self.f > 0
