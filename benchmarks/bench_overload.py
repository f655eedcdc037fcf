"""Overload protection: goodput vs offered load, defenses on vs off.

The open-loop engine offers Poisson traffic at a multiple of the
cluster's service capacity; unlike every closed-loop bench, the offered
rate does not self-throttle to what the cluster absorbs.  Undefended,
the master's worker queue grows without bound past saturation, queueing
delay exceeds every client's RPC patience (``rpc_timeout`` ×
``max_attempts``), and *goodput collapses* — workers burn their cycles
on requests whose clients already gave up.  With the defenses on
(bounded admission queue + ``RETRY_LATER`` pushback + client AIMD
windows + edge drops), goodput stays flat at capacity no matter how
hard the engine pushes.

The cluster is deliberately tiny — 2 workers × 50 µs/op ≈ 40k ops/s —
so a 10× overload is cheap to simulate; the defense mechanisms don't
care about the absolute numbers.  A witness reports a record to the
§4.5 orphan-replay path only once it is older than every client's
retry horizon (``CurpConfig.suspect_after``), so records that live
clients are still retrying are never re-executed as extra capacity.

Acceptance (ISSUE 6): goodput at 10× saturation ≥ 80% of peak with
defenses on; the defenses-off run must actually collapse (< 50% of
peak) or the bench is not measuring overload at all.  It has collapsed
by 2× (7.5% of peak), so the defenses-off arm stops there: its 5× and
10× points only sink further and cost most of the sweep's wall time.
All virtual-time, deterministic per seed.
"""

from __future__ import annotations

import dataclasses

from benchmarks.conftest import run_once
from repro.baselines import curp_config
from repro.core.config import OverloadConfig
from repro.harness.builder import build_cluster
from repro.harness.profiles import TEST_PROFILE
from repro.metrics import format_table, jain_fairness
from repro.workload.openloop import (
    ConstantRate,
    KeySetWorkload,
    OpenLoopEngine,
    TenantSpec,
)
from repro.workload.ycsb import YcsbWorkload

#: 2 workers × 50 µs/op ≈ 40k ops/s of master service capacity
OVERLOAD_PROFILE = dataclasses.replace(TEST_PROFILE, name="overload",
                                       master_workers=2, execute_time=50.0)
CAPACITY_OPS_PER_SEC = 40_000.0

#: small key space keeps zipfian setup cheap; the mix is 50/50 so both
#: the update and read shed paths are exercised
MIX = YcsbWorkload(name="overload-mix", read_fraction=0.5, item_count=200,
                   value_size=8)

#: arrival→completion SLO (µs) for goodput filtering, and the client-
#: side edge-drop bound that keeps admitted work fresh under surges
SLO = 20_000.0
MAX_QUEUE_WAIT = 5_000.0

#: the highest offered-load multiple the defenses-off arm runs at
OFF_ARM_LIMIT = 2.0


def overload_config(enabled: bool, **overrides):
    overrides.setdefault("rpc_timeout", 2_000.0)
    overrides.setdefault("max_attempts", 6)
    overrides.setdefault("retry_backoff", 200.0)
    overrides.setdefault("overload", OverloadConfig(
        enabled=enabled, max_queue_depth=16, retry_after=300.0,
        retry_after_cap=3_000.0))
    return curp_config(1, **overrides)


def _tenants(rate: float, n_clients: int = 8) -> list[TenantSpec]:
    """Two equal tenants on disjoint key spaces splitting ``rate`` —
    per-tenant goodput at saturation feeds the Jain fairness index."""
    return [
        TenantSpec("a", ConstantRate(rate / 2),
                   dataclasses.replace(MIX, key_prefix="a/"), n_clients),
        TenantSpec("b", ConstantRate(rate / 2),
                   dataclasses.replace(MIX, key_prefix="b/"), n_clients),
    ]


def _run_point(enabled: bool, rate: float, duration: float, warmup: float,
               seed: int) -> dict:
    cluster = build_cluster(overload_config(enabled),
                            profile=OVERLOAD_PROFILE, seed=seed)
    engine = OpenLoopEngine(cluster, _tenants(rate), max_window=32,
                            max_queue_wait=MAX_QUEUE_WAIT, slo=SLO)
    result = engine.run(duration=duration, warmup=warmup)
    master = cluster.master()
    result["shed"] = master.stats.shed_updates + master.stats.shed_reads
    result["executed"] = master.stats.updates + master.stats.reads
    result["master_queue"] = master.workers.queue_length
    # Undefended runs stop with thousands of operations in flight:
    # close them so one collection frees the cluster (docs/PERFORMANCE.md,
    # "Retained state per committed op").
    cluster.close()
    return result


def goodput_curve(multipliers=(0.5, 1.0, 2.0, 5.0, 10.0),
                  duration: float = 50_000.0, warmup: float = 10_000.0,
                  seed: int = 7) -> dict:
    """The headline series: goodput at each offered-load multiple of
    capacity, defenses on (every multiple) vs off (up to
    ``OFF_ARM_LIMIT``), plus the derived acceptance numbers.
    ``collapse_ratio_off`` is read at ``collapse_load``, the highest
    load the defenses-off arm ran."""
    curve: dict = {}
    for mult in multipliers:
        rate = CAPACITY_OPS_PER_SEC * mult
        point: dict = {"offered_per_sec": rate}
        for label, enabled in (("on", True), ("off", False)):
            if enabled or mult <= OFF_ARM_LIMIT:
                point[label] = _run_point(enabled, rate, duration, warmup,
                                          seed)
        curve[f"{mult:g}x"] = point
    sat_on = curve[list(curve)[-1]]["on"]
    collapse_load = [label for label, point in curve.items()
                     if "off" in point][-1]
    peak_on = max(point["on"]["goodput"] for point in curve.values())
    peak_off = max(point["off"]["goodput"] for point in curve.values()
                   if "off" in point)
    return {
        "capacity_ops_per_sec": CAPACITY_OPS_PER_SEC,
        "curve": curve,
        "peak_goodput": peak_on,
        "goodput_at_saturation": sat_on["goodput"],
        "retention": sat_on["goodput"] / peak_on if peak_on else 0.0,
        "collapse_load": collapse_load,
        "collapse_ratio_off": (curve[collapse_load]["off"]["goodput"]
                               / peak_off if peak_off else 0.0),
        "fairness_jain": jain_fairness(
            [t["goodput"] for t in sat_on["per_tenant"].values()]),
    }


# ----------------------------------------------------------------------
# per-tenant witness fairness (shared endpoints)
# ----------------------------------------------------------------------
def _keys_owned_by(cluster, master_id: str, count: int) -> tuple:
    """First ``count`` keys whose hash routes to ``master_id``."""
    keys = []
    i = 0
    while len(keys) < count:
        key = f"fair{i}"
        if cluster.shard_for(key) == master_id:
            keys.append(key)
        i += 1
    return tuple(keys)


def fairness_comparison(duration: float = 30_000.0, warmup: float = 5_000.0,
                        seed: int = 11) -> dict:
    """Two masters share multi-tenant witness endpoints; the hot
    master's tenant offers 10× capacity while the quiet one trickles.
    Per-tenant fair admission must keep the quiet master's records
    flowing — its throttle rate stays ~0 while the hot master absorbs
    every rejection its own excess caused."""
    # The witness budget must sit *below* the record rate the master's
    # own admission control lets through (records fan out at attempt
    # time, so admitted ≈ capacity ≈ 40 records/ms here): 30/ms makes
    # the endpoint the binding constraint, which is the scenario under
    # test.  A rejected record is not an error — the sender falls back
    # to the 2-RTT sync path.
    config = overload_config(True, overload=OverloadConfig(
        enabled=True, max_queue_depth=16, retry_after=300.0,
        retry_after_cap=3_000.0, witness_window_records=30))
    cluster = build_cluster(config, profile=OVERLOAD_PROFILE, n_masters=2,
                            seed=seed, multi_tenant_witnesses=True)
    masters = sorted(cluster.masters)
    hot_id, quiet_id = masters[0], masters[1]
    hot = KeySetWorkload("hot", _keys_owned_by(cluster, hot_id, 16))
    quiet = KeySetWorkload("quiet", _keys_owned_by(cluster, quiet_id, 16))
    engine = OpenLoopEngine(cluster, [
        TenantSpec("hot", ConstantRate(CAPACITY_OPS_PER_SEC * 10), hot,
                   n_clients=8),
        TenantSpec("quiet", ConstantRate(CAPACITY_OPS_PER_SEC / 8), quiet,
                   n_clients=2),
    ], max_window=32, max_queue_wait=MAX_QUEUE_WAIT, slo=SLO)
    result = engine.run(duration=duration, warmup=warmup)

    endpoints = list(cluster.coordinator.witness_endpoints.values())
    per_master: dict[str, dict] = {
        m: {"records": 0, "throttled": 0} for m in masters}
    for endpoint in endpoints:
        for master_id, tenant in endpoint.tenants.items():
            per_master[master_id]["records"] += tenant.records_admitted
            per_master[master_id]["throttled"] += tenant.records_throttled
    for detail in per_master.values():
        offered = detail["records"] + detail["throttled"]
        detail["throttle_rate"] = (detail["throttled"] / offered
                                   if offered else 0.0)
    cluster.close()
    return {
        "result": result,
        "hot_master": hot_id,
        "quiet_master": quiet_id,
        "per_master": per_master,
        "hot_throttle_rate": per_master[hot_id]["throttle_rate"],
        "quiet_throttle_rate": per_master[quiet_id]["throttle_rate"],
        "quiet_goodput": result["per_tenant"]["quiet"]["goodput"],
        "quiet_offered_per_sec":
            result["per_tenant"]["quiet"]["offered_per_sec"],
    }


# ----------------------------------------------------------------------
# pytest-benchmark entry points
# ----------------------------------------------------------------------
def test_overload_goodput_retention(benchmark, scale):
    duration = 50_000.0 * min(scale, 2)

    def experiment():
        return goodput_curve(duration=duration)

    series = run_once(benchmark, experiment)

    rows = []
    for label, point in series["curve"].items():
        off = point.get("off")
        rows.append([
            label, round(point["offered_per_sec"]),
            round(point["on"]["goodput"]), point["on"]["shed"],
            point["on"]["pushbacks"], point["on"]["dropped"],
            *((round(off["goodput"]), off["failed"], off["master_queue"])
              if off else ("—", "—", "—"))])
    print()
    print(format_table(
        ["offered", "offered/s", "ON goodput/s", "shed", "pushbacks",
         "edge drops", "OFF goodput/s", "OFF give-ups", "OFF queue"],
        rows,
        title=f"Open-loop goodput vs offered load "
              f"(capacity ≈ {round(series['capacity_ops_per_sec'])} ops/s)"))

    # ISSUE 6 acceptance: flat past saturation with defenses on...
    assert series["retention"] >= 0.8, \
        f"goodput retention at 10x only {series['retention']:.2f}"
    # ...and a real collapse without them, else nothing was measured.
    assert series["collapse_ratio_off"] < 0.5, \
        f"defenses-off run failed to collapse at " \
        f"{series['collapse_load']} " \
        f"({series['collapse_ratio_off']:.2f} of peak)"
    assert series["fairness_jain"] >= 0.9, \
        f"equal tenants diverged: jain={series['fairness_jain']:.3f}"
    benchmark.extra_info["retention"] = series["retention"]
    benchmark.extra_info["goodput_at_saturation"] = \
        series["goodput_at_saturation"]


def test_overload_witness_fairness(benchmark, scale):
    duration = 30_000.0 * min(scale, 2)

    def experiment():
        return fairness_comparison(duration=duration)

    series = run_once(benchmark, experiment)

    rows = [[m, d["records"], d["throttled"],
             round(d["throttle_rate"], 3)]
            for m, d in sorted(series["per_master"].items())]
    print()
    print(format_table(
        ["master", "records admitted", "records throttled",
         "throttle rate"], rows,
        title="Shared witness endpoints — per-tenant admission"))

    # The hot master must absorb its own excess...
    assert series["hot_throttle_rate"] > 0.2, \
        "hot tenant was never throttled — the budget is not binding"
    # ...while the quiet master's records sail through.
    assert series["quiet_throttle_rate"] < 0.02, \
        f"quiet tenant throttled at " \
        f"{series['quiet_throttle_rate']:.3f} by a hot neighbour"
    # And the quiet tenant's traffic actually completes.
    assert series["quiet_goodput"] >= \
        0.8 * series["quiet_offered_per_sec"]
    benchmark.extra_info["quiet_throttle_rate"] = \
        series["quiet_throttle_rate"]
