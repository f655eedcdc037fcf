"""Tests for load accounting and the load-driven rebalancer (ISSUE 5)."""

from __future__ import annotations

import pytest

from repro.cluster.rebalancer import Rebalancer, weighted_split_point
from repro.core.config import CurpConfig, ReplicationMode
from repro.core.master import LOAD_WINDOW_HASHES
from repro.core.messages import LoadReport
from repro.harness import build_cluster
from repro.kvstore import Write, key_hash


def sharded_cluster(n_masters=2, **kwargs):
    defaults = dict(f=1, mode=ReplicationMode.CURP, min_sync_batch=10,
                    idle_sync_delay=100.0, rpc_timeout=150.0,
                    retry_backoff=10.0)
    defaults.update(kwargs)
    return build_cluster(CurpConfig(**defaults), n_masters=n_masters)


def keys_for(cluster, shard, count, prefix="key"):
    found = []
    i = 0
    while len(found) < count:
        key = f"{prefix}-{i}"
        if cluster.shard_for(key) == shard:
            found.append(key)
        i += 1
    return found


# ----------------------------------------------------------------------
# per-tablet load accounting on masters
# ----------------------------------------------------------------------
def test_load_report_buckets_by_tablet_and_resets_window():
    cluster = sharded_cluster(n_masters=2)
    client = cluster.new_client()
    m0_keys = keys_for(cluster, "m0", 3)
    for key in m0_keys:
        cluster.run(client.update(Write(key, 1)))
        cluster.run(client.read(key))
    managed = cluster.coordinator.masters["m0"]
    report = cluster.run(cluster.sim.process(_pull_report(cluster, "m0")))
    assert isinstance(report, LoadReport)
    assert report.master_id == "m0"
    assert report.window_ops == 6  # 3 updates + 3 reads
    (tablet, ops), = report.tablet_ops
    assert tablet == tuple(managed.owned_ranges[0])
    assert ops == 6
    assert {h for h, _ in report.hash_ops} \
        == {key_hash(k) for k in m0_keys}
    assert list(report.hash_ops) == sorted(report.hash_ops)
    # Cumulative stats kept; the window itself reset.
    assert cluster.master("m0").stats.tablet_ops[tablet] == 6
    assert cluster.master("m0").stats.load_reports == 1
    again = cluster.run(cluster.sim.process(_pull_report(cluster, "m0")))
    assert again.window_ops == 0
    assert cluster.master("m0").stats.tablet_ops[tablet] == 6


def test_unpulled_load_window_is_bounded_and_loses_no_op():
    """No rebalancer pulls: the window restarts at ``LOAD_WINDOW_HASHES``
    distinct hashes — once from the update path, once from the read
    path — and the folded windows plus the next report count every op
    the master admitted."""
    cluster = sharded_cluster(n_masters=1)
    client = cluster.new_client(collect_outcomes=False)
    master = cluster.master("m0")
    largest = 0

    def script():
        nonlocal largest
        for i in range(LOAD_WINDOW_HASHES + 1):
            yield from client.update(Write(f"w{i}", 1))
            largest = max(largest, len(master._load_by_hash))
        for i in range(LOAD_WINDOW_HASHES):
            yield from client.read(f"r{i}")
            largest = max(largest, len(master._load_by_hash))

    cluster.run(script())
    admitted = 2 * LOAD_WINDOW_HASHES + 1
    assert largest == LOAD_WINDOW_HASHES
    assert master.stats.load_window_restarts == 2
    folded = sum(master.stats.tablet_ops.values())
    assert folded == 2 * LOAD_WINDOW_HASHES
    report = cluster.run(cluster.sim.process(_pull_report(cluster, "m0")))
    assert report.hash_ops == ((key_hash(f"r{LOAD_WINDOW_HASHES - 1}"), 1),)
    assert folded + report.window_ops == admitted
    assert sum(master.stats.tablet_ops.values()) == admitted
    assert master.stats.load_reports == 1


def _pull_report(cluster, master_id):
    managed = cluster.coordinator.masters[master_id]
    report = yield cluster.coordinator.transport.call(
        managed.host, "load_report", None, timeout=1_000.0)
    return report


# ----------------------------------------------------------------------
# split planning
# ----------------------------------------------------------------------
def test_weighted_split_point_is_load_weighted_median():
    histogram = [(10, 1), (20, 1), (30, 6), (40, 1), (50, 1)]
    split, low = weighted_split_point(histogram, target=5.0)
    # Cutting before or after the dominant hash is equidistant from the
    # target (|2-5| == |8-5|); the earlier cut wins ties.
    assert split == 30
    assert low == 2
    # An even histogram cuts in the middle.
    split, low = weighted_split_point([(i, 1) for i in range(10)], 5.0)
    assert split == 5
    assert low == 5
    assert weighted_split_point([(10, 7)], 3.0) is None


def test_plan_move_balances_hot_master():
    cluster = sharded_cluster(n_masters=2)
    rebalancer = Rebalancer(cluster.coordinator, threshold=1.2, min_ops=10)
    lo, hi = cluster.coordinator.masters["m0"].owned_ranges[0]
    mid = (lo + hi) // 2
    hot = LoadReport(master_id="m0",
                     tablet_ops=(((lo, hi), 90),),
                     hash_ops=((lo + 10, 45), (mid, 30), (hi - 10, 15)),
                     window_ops=90)
    cold = LoadReport(master_id="m1", tablet_ops=(), hash_ops=(),
                      window_ops=10)
    plan = rebalancer._plan_move({"m0": hot, "m1": cold})
    assert plan is not None
    hot_id, cold_id, move_lo, move_hi, splits = plan
    assert (hot_id, cold_id) == ("m0", "m1")
    # Budget = min(90-50, 50-10) = 40: the best cut puts the first
    # hash (45 ops) in the moved half.
    assert (move_lo, move_hi) == (lo, mid)
    assert splits == ((lo, hi, mid),)


def test_plan_move_isolates_single_hot_key():
    cluster = sharded_cluster(n_masters=2)
    rebalancer = Rebalancer(cluster.coordinator, threshold=1.2, min_ops=10)
    lo, hi = cluster.coordinator.masters["m0"].owned_ranges[0]
    mid = (lo + hi) // 2
    h = lo + 12345
    # The hottest tablet's whole load sits on one key hash: the planner
    # carves the narrowest tablet [h, h+1) around it and moves that.
    hot = LoadReport(master_id="m0",
                     tablet_ops=(((lo, mid), 30), ((mid, hi), 28)),
                     hash_ops=((h, 30), (mid + 5, 14), (mid + 9, 14)),
                     window_ops=58)
    cold = LoadReport(master_id="m1", tablet_ops=(), hash_ops=(),
                      window_ops=10)
    plan = rebalancer._plan_move({"m0": hot, "m1": cold})
    hot_id, cold_id, move_lo, move_hi, splits = plan
    assert (move_lo, move_hi) == (h, h + 1)
    assert splits == ((lo, mid, h), (h, mid, h + 1))


def test_plan_move_declines_unwinnable_single_key_swap():
    """Moving the only loaded key when its load exceeds twice the
    budget would just swap which master is hot — the planner must
    decline rather than oscillate."""
    cluster = sharded_cluster(n_masters=2)
    rebalancer = Rebalancer(cluster.coordinator, threshold=1.2, min_ops=10)
    lo, hi = cluster.coordinator.masters["m0"].owned_ranges[0]
    hot = LoadReport(master_id="m0", tablet_ops=(((lo, hi), 60),),
                     hash_ops=((lo + 7, 60),), window_ops=60)
    cold = LoadReport(master_id="m1", tablet_ops=(), hash_ops=(),
                      window_ops=20)
    assert rebalancer._plan_move({"m0": hot, "m1": cold}) is None


def test_plan_move_skips_balanced_and_idle_windows():
    cluster = sharded_cluster(n_masters=2)
    rebalancer = Rebalancer(cluster.coordinator, threshold=1.5, min_ops=100)
    lo, hi = cluster.coordinator.masters["m0"].owned_ranges[0]
    even = {
        "m0": LoadReport("m0", (((lo, hi), 60),), ((lo + 1, 60),), 60),
        "m1": LoadReport("m1", (), (), 55),
    }
    assert rebalancer._plan_move(even) is None  # 60 < 1.5 × 57.5
    idle = {
        "m0": LoadReport("m0", (((lo, hi), 3),), ((lo + 1, 3),), 3),
        "m1": LoadReport("m1", (), (), 0),
    }
    assert rebalancer._plan_move(idle) is None  # below min_ops


# ----------------------------------------------------------------------
# the full loop against a live cluster
# ----------------------------------------------------------------------
def test_rebalancer_moves_hot_tablet_and_clients_follow():
    cluster = sharded_cluster(n_masters=2)
    client = cluster.new_client()
    hot_keys = keys_for(cluster, "m0", 6)
    rebalancer = cluster.start_rebalancer(interval=400.0, threshold=1.3,
                                          min_ops=10)

    def load():
        for round_number in range(40):
            for key in hot_keys:
                yield from client.update(Write(key, round_number))
    process = client.host.spawn(load(), name="hot-load")
    cluster.run(process, timeout=10_000_000.0)
    rebalancer.stop()
    cluster.settle(2_000.0)
    assert rebalancer.stats.rounds >= 1
    assert rebalancer.stats.migrations >= 1
    assert rebalancer.stats.splits >= 1
    # Some of the hot keys now live on m1, and all keys stay readable
    # with their latest values.
    owners = {cluster.shard_for(key) for key in hot_keys}
    assert owners == {"m0", "m1"}
    for key in hot_keys:
        assert cluster.run(client.read(key), timeout=1_000_000.0) == 39
    # The shard map stayed a partition of the hash space throughout.
    assert cluster.shard_map.covers_full_range()


def test_rebalancer_is_idle_on_balanced_cluster():
    cluster = sharded_cluster(n_masters=2)
    client = cluster.new_client()
    rebalancer = cluster.start_rebalancer(interval=300.0, threshold=2.0,
                                          min_ops=10)
    keys = keys_for(cluster, "m0", 3) + keys_for(cluster, "m1", 3)

    def load():
        for round_number in range(20):
            for key in keys:
                yield from client.update(Write(key, round_number))
    cluster.run(client.host.spawn(load(), name="even-load"),
                timeout=10_000_000.0)
    rebalancer.stop()
    assert rebalancer.stats.rounds >= 1
    assert rebalancer.stats.migrations == 0
    assert cluster.coordinator.masters["m0"].owned_ranges \
        == [tuple(cluster.shard_map.tablets()[0][:2])]


def test_cooling_merge_shrinks_cold_masters_ownership():
    """ISSUE 9 satellite: once load decays, a fragmented master's
    adjacent tablets are coalesced on balanced rounds — the ownership
    list shrinks — while a master still seeing traffic keeps its fine
    tablets."""
    cluster = sharded_cluster(n_masters=2)
    client = cluster.new_client()
    coordinator = cluster.coordinator
    rebalancer = Rebalancer(coordinator, threshold=5.0, min_ops=200,
                            cooling_max_ops=10)
    lo, hi = coordinator.masters["m0"].owned_ranges[0]
    cut1 = lo + (hi - lo) // 3
    cut2 = lo + 2 * (hi - lo) // 3

    def fragment():
        yield from coordinator.split_tablet("m0", lo, hi, cut1)
        yield from coordinator.split_tablet("m0", cut1, hi, cut2)
    cluster.run(cluster.sim.process(fragment()), timeout=1_000_000.0)
    assert len(coordinator.masters["m0"].owned_ranges) == 3

    # While m0 still sees traffic above cooling_max_ops the pass leaves
    # its tablets alone (the next split plan wants them fine-grained).
    m0_keys = keys_for(cluster, "m0", 4)
    def warm_load():
        for round_number in range(4):
            for key in m0_keys:
                yield from client.update(Write(key, round_number))
    cluster.run(client.host.spawn(warm_load(), name="warm"),
                timeout=10_000_000.0)
    cluster.run(cluster.sim.process(rebalancer.rebalance_once()),
                timeout=1_000_000.0)
    assert len(coordinator.masters["m0"].owned_ranges) == 3
    assert rebalancer.stats.cooling_merges == 0

    # After the load decays (the report window reset above, nothing
    # since) the next balanced round coalesces m0 back to one tablet.
    cluster.run(cluster.sim.process(rebalancer.rebalance_once()),
                timeout=1_000_000.0)
    assert len(coordinator.masters["m0"].owned_ranges) == 1
    assert rebalancer.stats.cooling_merges == 1
    assert cluster.shard_map.covers_full_range()
    for key in m0_keys:
        assert cluster.run(client.read(key), timeout=1_000_000.0) == 3


def test_cooling_merge_skips_single_tablet_masters_without_rpcs():
    """A stable cluster pays nothing: with every master on one tablet
    the cooling pass issues no merge RPCs at all."""
    cluster = sharded_cluster(n_masters=2)
    rebalancer = Rebalancer(cluster.coordinator, min_ops=100)
    sent_before = cluster.network.stats.messages_sent
    cluster.run(cluster.sim.process(rebalancer.rebalance_once()),
                timeout=1_000_000.0)
    # Exactly one load_report round trip per master, nothing more.
    assert cluster.network.stats.messages_sent == sent_before + 4
    assert rebalancer.stats.cooling_merges == 0


def test_rebalancer_interval_zero_never_spawns():
    cluster = sharded_cluster(n_masters=2)
    rebalancer = Rebalancer(cluster.coordinator, interval=0.0)
    assert rebalancer.start() is None
    cluster.settle(2_000.0)
    assert rebalancer.stats.rounds == 0


def test_rebalancer_double_start_rejected():
    cluster = sharded_cluster(n_masters=2)
    rebalancer = cluster.start_rebalancer(interval=500.0)
    with pytest.raises(RuntimeError):
        rebalancer.start()


@pytest.mark.parametrize("knob, value", [
    ("threshold", 1.0), ("interval", -1.0), ("min_ops", 0)])
def test_rebalancer_rejects_out_of_range_knob(knob, value):
    cluster = sharded_cluster(n_masters=2)
    with pytest.raises(ValueError, match=knob):
        Rebalancer(cluster.coordinator, **{knob: value})
