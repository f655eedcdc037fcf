"""Load-driven tablet splitting and rebalancing.

The paper's evaluation leans on skewed YCSB workloads (§5.3, Zipfian
θ=0.99); at cluster scale such skew pins one master while the rest
idle.  This module closes the loop the coordinator already has the
mechanisms for: masters account per-tablet load
(``CurpMaster._handle_load_report``), the :class:`Rebalancer`
periodically pulls those windows, detects a *hot* master
(``Rebalancer.threshold`` × the mean), splits its hottest
tablet at a load-weighted key-hash point, and drives
``Coordinator.migrate`` to hand the split-off half to the coldest
master.  Clients converge through the existing ``WRONG_SHARD`` →
map-refresh path; witness safety is the migration protocol's (§3.6:
the source syncs before cutover, and post-cutover its witnesses
reject/evict records for migrated keys).

Everything here is deterministic — no randomness, virtual-time only —
so a seeded skewed run with rebalancing enabled pins to its own golden
trace (tests/sim/test_scheduler_determinism.py).
"""

from __future__ import annotations

import dataclasses
import typing

from repro.core.messages import LoadReport
from repro.core.recovery import RecoveryFailed
from repro.rpc import RpcError

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.coordinator import Coordinator


@dataclasses.dataclass
class RebalancerStats:
    """Counters the benchmarks and tests read."""

    #: report-pull rounds completed
    rounds: int = 0
    #: individual load reports received
    reports: int = 0
    #: tablet splits performed
    splits: int = 0
    #: tablet migrations driven
    migrations: int = 0
    #: post-move merge passes that actually coalesced tablets
    merges: int = 0
    #: cooling passes that coalesced a cold master's tablets
    cooling_merges: int = 0
    #: log entries handed over across all migrations
    entries_moved: int = 0
    #: moves abandoned because the source/destination kept failing
    aborted_moves: int = 0
    #: hot-master load over the mean, from the latest acted-on window
    last_imbalance: float = 0.0


def weighted_split_point(hash_ops: typing.Sequence[tuple[int, int]],
                         target: float) -> tuple[int, int] | None:
    """Pick the split hash that puts ~``target`` load in the low half.

    ``hash_ops`` is a (key_hash, ops) histogram sorted by hash.  The
    returned ``(split, low_load)`` cuts *between* histogram entries —
    every boundary candidate is considered and the one whose low-half
    load is closest to ``target`` wins (``target`` = half the tablet
    load makes this the load-weighted median).  ``None`` when fewer
    than two distinct hashes carry load, in which case there is no
    boundary that separates anything.
    """
    if len(hash_ops) < 2:
        return None
    best_split, best_low, best_err = None, 0, None
    low = 0
    for index in range(1, len(hash_ops)):
        low += hash_ops[index - 1][1]
        err = abs(low - target)
        if best_err is None or err < best_err:
            best_split, best_low, best_err = hash_ops[index][0], low, err
    return best_split, best_low


class Rebalancer:
    """The coordinator-side rebalancing loop.

    Created idle; :meth:`start` spawns the loop on the coordinator's
    host so its RPCs originate where a real configuration manager's
    would.  The loop only runs once started, so a cluster that never
    starts one keeps its tablets static.
    """

    def __init__(self, coordinator: "Coordinator",
                 interval: float = 500.0,
                 threshold: float = 1.5,
                 min_ops: int = 100,
                 cooling_max_ops: int | None = None):
        if interval < 0:
            raise ValueError("interval must be >= 0 (0 disables)")
        if threshold <= 1.0:
            raise ValueError("threshold must be > 1 (a master at exactly "
                             "the mean is not hot)")
        if min_ops < 1:
            raise ValueError("min_ops must be >= 1")
        self.coordinator = coordinator
        self.sim = coordinator.sim
        #: how often (µs) the loop pulls per-tablet load reports from
        #: the masters; 0 disables the loop outright even if started
        self.interval = interval
        #: imbalance trigger: a master is *hot* when its window load
        #: exceeds ``threshold`` × the mean master load
        self.threshold = threshold
        #: ignore report windows with fewer total ops than this (noise
        #: floor — don't churn tablets on an idle cluster)
        self.min_ops = min_ops
        #: per-master window below which a fragmented master counts as
        #: *cold* and its adjacent tablets get coalesced
        self.cooling_max_ops = (self.min_ops if cooling_max_ops is None
                                else cooling_max_ops)
        self.stats = RebalancerStats()
        self.running = False
        self._process = None

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self):
        """Spawn the periodic loop (no-op interval 0 disables it)."""
        if self._process is not None and not self._process.triggered:
            raise RuntimeError("rebalancer already running")
        self.running = True
        if self.interval <= 0:
            return None
        self._process = self.coordinator.host.spawn(self._loop(),
                                                    name="rebalancer")
        return self._process

    def stop(self) -> None:
        """Stop at the next interval boundary."""
        self.running = False

    def _loop(self):
        while self.running:
            yield self.sim.timeout(self.interval)
            if not self.running:
                return
            yield from self.rebalance_once()

    # ------------------------------------------------------------------
    # one round
    # ------------------------------------------------------------------
    def rebalance_once(self):
        """Generator: pull one load window from every master; if one is
        hot, split its hottest tablet at the load-weighted point and
        migrate the split-off half to the coldest master.  Returns the
        ``(hot_id, cold_id, lo, hi)`` move or ``None``."""
        reports: dict[str, LoadReport] = {}
        for master_id, managed in list(self.coordinator.masters.items()):
            if managed.recovering:
                continue  # its window survives until the next round
            try:
                report = yield self.coordinator.transport.call(
                    managed.host, "load_report", None,
                    timeout=self.coordinator.config.rpc_timeout)
            except RpcError:
                continue  # crashed/unreachable; recovery is out of band
            reports[master_id] = report
        self.stats.rounds += 1
        self.stats.reports += len(reports)
        plan = self._plan_move(reports)
        if plan is None:
            yield from self._cooling_pass(reports)
            return None
        hot_id, cold_id, move_lo, move_hi, splits = plan
        try:
            for tablet_lo, tablet_hi, at in splits:
                yield from self.coordinator.split_tablet(
                    hot_id, tablet_lo, tablet_hi, at)
                self.stats.splits += 1
            moved = yield from self.coordinator.migrate(
                hot_id, cold_id, move_lo, move_hi)
        except (RecoveryFailed, ValueError):
            # The source/destination kept failing (crash mid-move) or
            # ownership changed under us (concurrent recovery): abandon
            # this move; the next window re-plans from fresh reports.
            self.stats.aborted_moves += 1
            return None
        self.stats.migrations += 1
        self.stats.entries_moved += moved
        # Coalesce both sides' adjacent tablets so long split/migrate
        # histories don't grow the ownership lists (and the per-op
        # ownership checks) without bound.  Best effort: a merge that
        # keeps failing just leaves finer tablets for the next round.
        for master_id in (hot_id, cold_id):
            count_before = len(
                self.coordinator.masters[master_id].owned_ranges)
            try:
                merged = yield from self.coordinator.merge_tablets(
                    master_id)
            except RecoveryFailed:
                continue
            if len(merged) < count_before:
                self.stats.merges += 1
        return hot_id, cold_id, move_lo, move_hi

    def _cooling_pass(self, reports: dict[str, LoadReport]):
        """Generator: coalesce adjacent tablets on *cold* masters.

        Split histories outlive the hot spots that caused them: once a
        once-hot shard cools, its fine-grained tablets only lengthen
        ownership lists and per-op ownership checks.  On rounds where no
        move is planned (so a merge can't race an imminent migration),
        any reporting master whose window decayed to
        ``cooling_max_ops`` or below gets its adjacent tablets merged.
        Hot masters are left fragmented on purpose — their fine tablets
        are exactly what the next split plan wants to work with.
        Masters already holding a single tablet are skipped without any
        RPC, so a stable cluster pays nothing for this pass.
        """
        for master_id in sorted(reports):
            if reports[master_id].window_ops > self.cooling_max_ops:
                continue
            managed = self.coordinator.masters.get(master_id)
            if managed is None or managed.recovering:
                continue
            if len(managed.owned_ranges) <= 1:
                continue
            count_before = len(managed.owned_ranges)
            try:
                merged = yield from self.coordinator.merge_tablets(
                    master_id)
            except RecoveryFailed:
                continue
            if len(merged) < count_before:
                self.stats.cooling_merges += 1

    def _plan_move(self, reports: dict[str, LoadReport]
                   ) -> tuple[str, str, int, int,
                              tuple[tuple[int, int, int], ...]] | None:
        """Turn one round of reports into at most one move.

        Returns ``(hot_id, cold_id, move_lo, move_hi, splits)`` —
        perform each ``(tablet_lo, tablet_hi, at)`` split on the hot
        master, then migrate ``[move_lo, move_hi)`` to the cold one —
        or ``None`` when the cluster is balanced or idle."""
        if len(reports) < 2:
            return None
        total = sum(r.window_ops for r in reports.values())
        if total < self.min_ops:
            return None
        mean = total / len(reports)
        hot_id = max(reports, key=lambda m: reports[m].window_ops)
        cold_id = min(reports, key=lambda m: reports[m].window_ops)
        hot = reports[hot_id]
        self.stats.last_imbalance = hot.window_ops / mean
        if hot.window_ops < self.threshold * mean or hot_id == cold_id:
            return None
        #: how much load the move should shift: enough to pull the hot
        #: master toward the mean without pushing the cold one past it
        budget = min(hot.window_ops - mean,
                     mean - reports[cold_id].window_ops)
        if budget <= 0:
            return None
        tablet, tablet_ops = max(hot.tablet_ops, key=lambda item: item[1])
        if tablet_ops <= 0:
            return None
        lo, hi = tablet
        histogram = [(h, c) for h, c in hot.hash_ops if lo <= h < hi]
        if tablet_ops <= budget:
            # The whole hottest tablet fits the budget: move it outright.
            return hot_id, cold_id, lo, hi, ()
        point = weighted_split_point(histogram,
                                     min(budget, tablet_ops / 2))
        if point is None:
            # A single key hash carries the tablet's whole load.  Carve
            # the narrowest possible tablet around it and move that —
            # unless doing so overshoots so far the imbalance would just
            # swap sides.  (A single key's load is unsplittable by
            # design: per-key ordering must stay on one master.)
            (key_hash_value, load), = histogram
            if load > 2 * budget:
                return None
            splits = []
            if lo < key_hash_value:
                splits.append((lo, hi, key_hash_value))
            if key_hash_value + 1 < hi:
                splits.append((key_hash_value, hi, key_hash_value + 1))
            return (hot_id, cold_id, key_hash_value, key_hash_value + 1,
                    tuple(splits))
        split, low_load = point
        if low_load > 2 * budget:
            # Even the best cut overshoots enough to ping-pong.
            return None
        return hot_id, cold_id, lo, split, ((lo, hi, split),)
