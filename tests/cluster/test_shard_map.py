"""ShardMap routing + client re-routing on a stale map (WRONG_SHARD),
plus property-based invariants over random split/migrate/merge
sequences (ISSUE 5)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.shard_map import FULL_SPAN, ShardMap
from repro.core.config import CurpConfig, ReplicationMode
from repro.harness import build_cluster
from repro.kvstore import Write, key_hash


# ----------------------------------------------------------------------
# ShardMap unit tests
# ----------------------------------------------------------------------
def test_from_tablets_sorts_and_routes():
    shard_map = ShardMap.from_tablets(
        [(100, 200, "m1"), (0, 100, "m0"), (200, 300, "m2")], version=7)
    assert shard_map.version == 7
    assert shard_map.n_tablets == 3
    assert shard_map.owners == ("m0", "m1", "m2")
    assert shard_map.master_for_hash(0) == "m0"
    assert shard_map.master_for_hash(99) == "m0"
    assert shard_map.master_for_hash(100) == "m1"
    assert shard_map.master_for_hash(199) == "m1"
    assert shard_map.master_for_hash(299) == "m2"
    assert shard_map.master_for_hash(300) is None  # past the last tablet


def test_gaps_route_to_none():
    shard_map = ShardMap.from_tablets([(0, 10, "m0"), (20, 30, "m1")])
    assert shard_map.master_for_hash(15) is None
    assert not shard_map.covers_full_range()


def test_overlapping_tablets_rejected():
    with pytest.raises(ValueError):
        ShardMap.from_tablets([(0, 10, "m0"), (5, 15, "m1")])
    with pytest.raises(ValueError):
        ShardMap.from_tablets([(10, 10, "m0")])  # empty tablet


def test_master_for_key_uses_key_hash():
    shard_map = ShardMap.from_tablets([(0, 2 ** 63, "lo"),
                                       (2 ** 63, 2 ** 64, "hi")])
    assert shard_map.covers_full_range()
    for key in ("user1", "user2", "abc", "zz-top"):
        expected = "lo" if key_hash(key) < 2 ** 63 else "hi"
        assert shard_map.master_for_key(key) == expected


def test_coordinator_map_matches_linear_tablet_scan():
    cluster = build_cluster(CurpConfig(f=1, mode=ReplicationMode.CURP),
                            n_masters=4)
    view = cluster.coordinator.current_view()
    shard_map = cluster.shard_map
    assert shard_map.covers_full_range()
    assert shard_map.shard_ids() == ("m0", "m1", "m2", "m3")
    tablets = [(lo, hi, managed.master_id)
               for managed in cluster.coordinator.masters.values()
               for lo, hi in managed.owned_ranges]
    for probe in (0, 1, 2 ** 62, 2 ** 63, 2 ** 64 - 1,
                  key_hash("user1"), key_hash("user999")):
        linear = next((owner for lo, hi, owner in tablets
                       if lo <= probe < hi), None)
        assert shard_map.master_for_hash(probe) == linear
    # The view routes through the same map object.
    assert view.shard_map is shard_map


def test_shard_map_invalidated_on_config_change():
    cluster = build_cluster(CurpConfig(f=1, mode=ReplicationMode.CURP),
                            n_masters=2)
    before = cluster.shard_map
    key = next(f"key-{i}" for i in range(100)
               if before.master_for_key(f"key-{i}") == "m0")
    h = key_hash(key)
    cluster.run(cluster.sim.process(
        cluster.coordinator.migrate("m0", "m1", h, h + 1)),
        timeout=1_000_000.0)
    after = cluster.shard_map
    assert after.version > before.version
    assert before.master_for_hash(h) == "m0"
    assert after.master_for_hash(h) == "m1"
    assert cluster.shard_for(key) == "m1"


# ----------------------------------------------------------------------
# stale-map client re-routing
# ----------------------------------------------------------------------
def sharded_cluster(**kwargs):
    defaults = dict(f=1, mode=ReplicationMode.CURP, min_sync_batch=50,
                    idle_sync_delay=200.0, rpc_timeout=100.0,
                    # huge backoff: the WRONG_SHARD path must never wait
                    retry_backoff=5_000.0)
    defaults.update(kwargs)
    return build_cluster(CurpConfig(**defaults), n_masters=2)


def test_stale_shard_map_rerouted_through_coordinator():
    """A client holding a stale ShardMap gets WRONG_SHARD from the old
    owner, refetches the map from the coordinator with no backoff, and
    completes on the retry — one wasted attempt plus one coordinator
    round trip on top of the normal 1-RTT fast path (3 RTTs total at
    the test profile's 2 µs one-way latency)."""
    cluster = sharded_cluster()
    client = cluster.new_client()
    key = next(f"key-{i}" for i in range(100)
               if cluster.shard_for(f"key-{i}") == "m0")
    fresh = cluster.run(client.update(Write(key, 1)))
    assert fresh.attempts == 1
    assert fresh.latency == pytest.approx(4.0)  # 1 RTT
    h = key_hash(key)
    cluster.run(cluster.sim.process(
        cluster.coordinator.migrate("m0", "m1", h, h + 1)),
        timeout=1_000_000.0)
    assert client.view.shard_map.master_for_hash(h) == "m0"  # view now stale

    stale = cluster.run(client.update(Write(key, 2)))
    assert stale.attempts == 2
    # failed attempt (1 RTT) + map refresh (1 RTT) + retry (1 RTT);
    # anything near retry_backoff would mean the client slept.
    assert stale.latency == pytest.approx(12.0)
    assert client.view.shard_map.master_for_hash(h) == "m1"
    assert cluster.master("m1").store.read(key) == 2
    # The wasted attempt's witness records on the OLD shard must not
    # stay pinned: m1's sync+gc can't reach them and the key no longer
    # routes to m0, so the client gc's its own aborted records.
    cluster.settle(1_000.0)
    for name in cluster.witness_hosts["m0"]:
        witness = cluster.coordinator.witness_servers[(name, "m0")]
        assert witness.cache.occupied_slots() == 0


def _topology_cluster(n_masters=3):
    """A cheap cluster for topology churn: no backups or witnesses, so
    split/migrate/merge rounds are a handful of RPCs each."""
    return build_cluster(
        CurpConfig(f=0, mode=ReplicationMode.UNREPLICATED,
                   rpc_timeout=100.0, retry_backoff=10.0),
        n_masters=n_masters)


def _apply_topology_op(cluster, data) -> str | None:
    """Draw and apply one random split/migrate/merge; None = the drawn
    op was inapplicable (e.g. an unsplittable one-hash tablet)."""
    coordinator = cluster.coordinator
    ids = sorted(coordinator.masters)
    kind = data.draw(st.sampled_from(["split", "migrate", "merge"]),
                     label="op")
    if kind == "split":
        master_id = data.draw(st.sampled_from(ids), label="split-master")
        tablets = [t for t in coordinator.masters[master_id].owned_ranges
                   if t[1] - t[0] >= 2]
        if not tablets:
            return None
        lo, hi = data.draw(st.sampled_from(tablets), label="split-tablet")
        fraction = data.draw(st.floats(0.05, 0.95), label="split-fraction")
        split = min(hi - 1, max(lo + 1, lo + int((hi - lo) * fraction)))
        cluster.run(cluster.sim.process(
            coordinator.split_tablet(master_id, lo, hi, split)),
            timeout=1_000_000.0)
    elif kind == "migrate":
        src = data.draw(st.sampled_from(ids), label="migrate-src")
        tablets = list(coordinator.masters[src].owned_ranges)
        if not tablets:
            return None
        dst = data.draw(st.sampled_from([m for m in ids if m != src]),
                        label="migrate-dst")
        lo, hi = data.draw(st.sampled_from(tablets), label="migrate-tablet")
        if hi - lo >= 2 and data.draw(st.booleans(), label="migrate-half"):
            hi = lo + (hi - lo) // 2  # move only the low half
        cluster.run(cluster.sim.process(
            coordinator.migrate(src, dst, lo, hi)), timeout=1_000_000.0)
    else:
        master_id = data.draw(st.sampled_from(ids), label="merge-master")
        cluster.run(cluster.sim.process(
            coordinator.merge_tablets(master_id)), timeout=1_000_000.0)
    return kind


@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_random_topology_churn_preserves_map_invariants(data):
    """Any sequence of splits, migrations and merges must leave the
    shard map a partition of the full hash space — complete coverage,
    no overlap (``from_tablets`` raises on overlap, so building the
    map at all asserts it) — with monotonically increasing versions:
    strictly increasing whenever the tablet layout changed, unchanged
    on a no-op (a merge that found nothing adjacent must not churn
    client maps)."""
    cluster = _topology_cluster()
    last_version = cluster.shard_map.version
    n_ops = data.draw(st.integers(1, 8), label="n_ops")
    for _ in range(n_ops):
        tablets_before = cluster.shard_map.tablets()
        applied = _apply_topology_op(cluster, data)
        if applied is None:
            continue
        shard_map = cluster.shard_map
        assert shard_map.covers_full_range()
        assert shard_map.starts[0] == 0 and shard_map.ends[-1] == FULL_SPAN
        if shard_map.tablets() != tablets_before:
            assert shard_map.version > last_version
        else:
            assert shard_map.version == last_version
        last_version = shard_map.version
        # Coordinator bookkeeping and every live master agree on
        # ownership of arbitrary probes.
        for probe in (0, 1, 2 ** 63, FULL_SPAN - 1,
                      key_hash("userX"), key_hash("probe-key")):
            owner = shard_map.master_for_hash(probe)
            assert owner is not None
            assert cluster.master(owner).owns_hash(probe)
            for other in cluster.coordinator.masters:
                if other != owner:
                    assert not cluster.master(other).owns_hash(probe)


@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_stale_map_client_converges_within_three_rtts(data):
    """However far the topology drifted since a client's view, one
    WRONG_SHARD bounce + one map refresh + one retry must complete any
    read: ≤ 3 RTTs total (12 µs at the test profile's 2 µs one-way)."""
    cluster = _topology_cluster()
    client = cluster.new_client()
    keys = [f"pk-{i}" for i in range(4)]
    for key in keys:
        cluster.run(client.update(Write(key, "v")))
    stale_view = client.view
    for _ in range(data.draw(st.integers(1, 6), label="n_ops")):
        _apply_topology_op(cluster, data)
    for key in keys:
        client.view = stale_view  # maximally stale for every read
        started = cluster.sim.now
        assert cluster.run(client.read(key), timeout=1_000_000.0) == "v"
        elapsed = cluster.sim.now - started
        assert elapsed <= 12.0 + 1e-9, (
            f"read of {key} took {elapsed} µs (> 3 RTTs) — stale-map "
            f"convergence regressed")


@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_shard_map_bisect_matches_linear_scan(data):
    """Pure routing property: the bisect lookup agrees with a linear
    tablet scan for arbitrary valid tablet sets and probes."""
    n_tablets = data.draw(st.integers(1, 8), label="n_tablets")
    bounds = sorted(data.draw(
        st.lists(st.integers(1, FULL_SPAN - 1), min_size=n_tablets - 1,
                 max_size=n_tablets - 1, unique=True),
        label="bounds"))
    edges = [0] + bounds + [FULL_SPAN]
    tablets = [(edges[i], edges[i + 1], f"m{i % 3}")
               for i in range(n_tablets)]
    shard_map = ShardMap.from_tablets(tablets, version=1)
    assert shard_map.covers_full_range()
    probes = data.draw(st.lists(st.integers(0, FULL_SPAN - 1), min_size=1,
                                max_size=10), label="probes")
    for probe in probes:
        linear = next((owner for lo, hi, owner in tablets
                       if lo <= probe < hi), None)
        assert shard_map.master_for_hash(probe) == linear


def test_stale_shard_map_read_rerouted():
    cluster = sharded_cluster()
    client = cluster.new_client()
    key = next(f"key-{i}" for i in range(100)
               if cluster.shard_for(f"key-{i}") == "m0")
    cluster.run(client.update(Write(key, "v")))
    cluster.settle(1_000.0)
    h = key_hash(key)
    cluster.run(cluster.sim.process(
        cluster.coordinator.migrate("m0", "m1", h, h + 1)),
        timeout=1_000_000.0)
    started = cluster.sim.now
    assert cluster.run(client.read(key)) == "v"
    # read (1 RTT, WRONG_SHARD) + refresh (1 RTT) + re-read (1 RTT),
    # with no retry_backoff sleep in between.
    assert cluster.sim.now - started == pytest.approx(12.0)
    assert client.view.shard_map.master_for_hash(h) == "m1"


# ----------------------------------------------------------------------
# group_keys (cross-shard transaction fan-out, §B.2)
# ----------------------------------------------------------------------
def test_group_keys_partitions_by_owner():
    half = FULL_SPAN // 2
    shard_map = ShardMap.from_tablets(((0, half, "m0"),
                                       (half, FULL_SPAN, "m1")))
    keys = [f"key{i}" for i in range(20)]
    groups = shard_map.group_keys(keys)
    assert set(groups) <= {"m0", "m1"}
    regrouped = [key for shard in groups for key in groups[shard]]
    assert sorted(regrouped) == sorted(keys)
    for shard, shard_keys in groups.items():
        assert all(shard_map.master_for_key(k) == shard
                   for k in shard_keys)
        # first-seen order within each group
        assert list(shard_keys) == [k for k in keys if k in shard_keys]


def test_group_keys_raises_on_coverage_gap():
    half = FULL_SPAN // 2
    shard_map = ShardMap.from_tablets(((0, half, "m0"),))  # upper half dark
    dark_key = next(k for k in (f"key{i}" for i in range(1000))
                    if key_hash(k) >= half)
    with pytest.raises(KeyError):
        shard_map.group_keys([dark_key])
