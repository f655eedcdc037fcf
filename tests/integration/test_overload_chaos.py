"""Overload chaos: flash crowds, mid-surge crashes, tenant fairness.

ISSUE 6's storm: an open-loop flash crowd pushes offered load far past
the cluster's execution capacity while the master crashes and recovers
*mid-surge*.  With the defenses on (admission control + pushback +
AIMD backpressure) every acknowledged operation must still form a
linearizable history in all four completion × framing modes — overload
protection may shed and delay, but never corrupt.

Plus the fairness half of the contract: on shared multi-tenant witness
endpoints, a hot tenant's record storm must not drive another tenant's
witness rejection rate above the noise floor.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.core.config import CurpConfig, OverloadConfig, ReplicationMode
from repro.harness import TEST_PROFILE, build_cluster
from repro.kvstore.operations import Read, Write
from repro.verify import History, check_linearizable
from repro.workload import (
    ConstantRate,
    FlashCrowd,
    KeySetWorkload,
    OpenLoopEngine,
    TenantSpec,
)

#: 1 worker × 200 µs/op = 5k ops/s — small enough that a modest surge
#: is a genuine overload and histories stay checkable
CHAOS_PROFILE = dataclasses.replace(TEST_PROFILE, name="overload-chaos",
                                    master_workers=1, execute_time=200.0)
CAPACITY = 5_000.0

#: frame_coalescing off / on
MODES = [False, True]


class UniqueValueWorkload:
    """Writes carry globally-unique values so the linearizability audit
    has teeth (identical values would let any read trivially match)."""

    def __init__(self, keys, read_fraction=0.35):
        self.keys = list(keys)
        self.read_fraction = read_fraction
        self._n = 0

    def generator(self):
        return self

    def next_op(self, rng):
        key = self.keys[rng.randrange(len(self.keys))]
        if rng.random() < self.read_fraction:
            return Read(key)
        self._n += 1
        return Write(key, f"v{self._n}")


def chaos_config(frame_coalescing, **overload_overrides):
    overload = dict(enabled=True, max_queue_depth=8, retry_after=150.0,
                    retry_after_cap=1_500.0)
    overload.update(overload_overrides)
    return CurpConfig(f=2, mode=ReplicationMode.CURP, min_sync_batch=8,
                      idle_sync_delay=150.0, retry_backoff=30.0,
                      rpc_timeout=1_000.0, max_attempts=100,
                      gc_stale_threshold=1_000_000,
                      frame_coalescing=frame_coalescing,
                      overload=OverloadConfig(**overload))


@pytest.mark.parametrize("frame_coalescing", MODES)
@pytest.mark.parametrize("seed", [17, 18, 19, 20])
def test_flash_crowd_with_mid_surge_crash_stays_linearizable(
        seed, frame_coalescing):
    """A 10× flash crowd hits at t=8 ms; the master crashes at t=12 ms
    (mid-surge) and is recovered onto a standby while arrivals keep
    coming.  Acknowledged ops stay linearizable, the engine keeps
    counting, and traffic completes again after recovery."""
    cluster = build_cluster(
        chaos_config(frame_coalescing),
        profile=CHAOS_PROFILE, seed=seed)
    history = History()
    surge = FlashCrowd(CAPACITY / 5, multiplier=10.0,
                       surge_start=8_000.0, surge_end=20_000.0)
    spec = TenantSpec(name="crowd", schedule=surge,
                      workload=UniqueValueWorkload(
                          [f"fk{i}" for i in range(6)]),
                      n_clients=6)
    engine = OpenLoopEngine(cluster, [spec], max_window=16,
                            max_queue_wait=6_000.0, history=history)

    recovered = []

    def storm():
        yield cluster.sim.timeout(12_000.0)  # mid-surge
        cluster.master().host.crash()
        yield cluster.sim.timeout(200.0)
        standby = cluster.add_host("surge-standby", role="master")
        yield cluster.sim.process(
            cluster.coordinator.recover_master("m0", standby))
        recovered.append(cluster.sim.now)

    engine.start()
    storm_process = cluster.sim.process(storm())
    cluster.sim.run(until=cluster.sim.now + 30_000.0)
    engine.stop()
    assert engine.drain(timeout=5_000_000.0), "in-flight ops stuck"
    assert storm_process.triggered and recovered

    tenant = engine.tenants[0]
    result = engine.results(elapsed=30_000.0)["per_tenant"]["crowd"]
    assert result["offered"] > 50, "flash crowd never arrived"
    assert result["completed"] > 0
    # The surge pushed past capacity: the defenses actually engaged.
    assert result["pushbacks"] > 0 or result["dropped"] > 0
    # Post-recovery the cluster still serves: ops completed after the
    # crash instant, not just before it.
    assert any(not r.is_pending and r.completed_at > recovered[0]
               for r in history.records), "nothing completed post-recovery"
    assert tenant.in_flight == 0
    check_linearizable(history)


@pytest.mark.parametrize("frame_coalescing", MODES)
@pytest.mark.parametrize("seed", [23, 24])
def test_defenses_off_flash_crowd_still_linearizable(seed, frame_coalescing):
    """Sanity for the contract's other half: with defenses *off* the
    naive open loop may collapse into timeouts and give-ups, but
    acknowledged operations are still linearizable (overload is a
    performance failure, never a safety one)."""
    config = chaos_config(frame_coalescing)
    config.overload = OverloadConfig(enabled=False)
    config.max_attempts = 5  # let the collapse actually give up
    cluster = build_cluster(config, profile=CHAOS_PROFILE, seed=seed)
    history = History()
    spec = TenantSpec(name="naive", schedule=ConstantRate(CAPACITY * 4),
                      workload=UniqueValueWorkload(
                          [f"nk{i}" for i in range(4)]),
                      n_clients=4)
    engine = OpenLoopEngine(cluster, [spec], history=history)
    engine.run(duration=15_000.0)
    engine.drain(timeout=5_000_000.0)
    result = engine.results(elapsed=15_000.0)["per_tenant"]["naive"]
    assert result["offered"] > 100
    check_linearizable(history)


def test_hot_tenant_cannot_starve_quiet_tenants_witnesses():
    """Two masters share multi-tenant witness endpoints with windowed
    fair admission.  A hot tenant pinned to m0 offers 4× the cluster's
    capacity; a quiet tenant pinned to m1 offers a trickle.  The hot
    tenant's record storm gets throttled — the quiet tenant's witness
    rejection rate stays at the noise floor and its goodput tracks its
    offered load."""
    # Budget sizing: the hot tenant's record rate (admitted attempts +
    # retries) runs ~20 records/ms here, the quiet tenant's ~2/ms.  A
    # budget of 8/ms with two tenants puts fair share at 4/ms — the hot
    # tenant binds hard, the quiet one stays comfortably under share.
    config = chaos_config(False, witness_window_records=8)
    cluster = build_cluster(config, profile=CHAOS_PROFILE, seed=29,
                            n_masters=2, multi_tenant_witnesses=True)

    def keys_owned_by(master_id, count):
        keys = [k for k in (f"fair{i}" for i in range(400))
                if cluster.shard_for(k) == master_id]
        assert len(keys) >= count
        return tuple(keys[:count])

    tenants = [
        TenantSpec(name="hot",
                   schedule=ConstantRate(CAPACITY * 4),
                   workload=KeySetWorkload(name="hot",
                                           keys=keys_owned_by("m0", 12),
                                           value_size=8),
                   n_clients=8),
        TenantSpec(name="quiet",
                   schedule=ConstantRate(CAPACITY / 5),
                   workload=KeySetWorkload(name="quiet",
                                           keys=keys_owned_by("m1", 6),
                                           value_size=8),
                   n_clients=2),
    ]
    engine = OpenLoopEngine(cluster, tenants, max_window=32,
                            max_queue_wait=5_000.0)
    result = engine.run(duration=25_000.0, warmup=5_000.0)

    records = {"m0": 0, "m1": 0}
    throttled = {"m0": 0, "m1": 0}
    endpoints = list(cluster.coordinator.witness_endpoints.values())
    assert endpoints, "multi-tenant endpoints were not built"
    for endpoint in endpoints:
        for master_id in records:
            records[master_id] += endpoint.tenant_records.get(master_id, 0)
            throttled[master_id] += \
                endpoint.tenant_throttled.get(master_id, 0)

    def throttle_rate(master_id):
        total = records[master_id] + throttled[master_id]
        return throttled[master_id] / total if total else 0.0

    assert records["m0"] > 0 and records["m1"] > 0
    # The budget binds on the hot tenant...
    assert throttle_rate("m0") > 0.05, (records, throttled)
    # ...and never on the quiet one.
    assert throttle_rate("m1") < 0.02, (records, throttled)
    quiet = result["per_tenant"]["quiet"]
    assert quiet["goodput"] >= 0.8 * quiet["offered_per_sec"]
