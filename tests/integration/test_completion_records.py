"""Completion records stay bounded by the updates in flight, however long
the run.

Clients never leave this model, so the only collector of a master's
completion records is the acknowledgment each client piggybacks on its
next update (§3.3); there is no lease to expire them (§4.8's second
modification does not apply).  At ``settle()`` a master keeps only what
no later ack covered: each client's unacknowledged tail, its last
update and any it still had in flight when it sent it.  A closed loop
has one update in flight per client, so its tail is one record per
client; an open loop's tail is as wide as its last updates overlapped.
On a closed loop and on an open loop whose master is killed and rebuilt
by recovery, the master holds no record outside that tail, and a run
three times longer holds no more records than the short one.
"""

from __future__ import annotations

import pytest

from repro.baselines import curp_config
from repro.cluster import FailureDetector
from repro.harness import RAMCLOUD_PROFILE, build_cluster
from repro.metrics import LatencyRecorder
from repro.net.faults import FaultPlan, HostFlap
from repro.workload import (ClosedLoopClient, ConstantRate, OpenLoopEngine,
                            TenantSpec, YcsbWorkload)

MIX = YcsbWorkload(name="half-writes", read_fraction=0.5, item_count=2_000,
                   distribution="uniform")


def closed_loop(cluster, run_us: float) -> None:
    latency = LatencyRecorder()
    loops = [ClosedLoopClient(client=cluster.new_client(), stream=MIX.generator(),
                              write_latency=latency, read_latency=latency)
             for _ in range(4)]
    for loop in loops:
        loop.client.host.spawn(loop.loop(), name="workload")
    cluster.sim.run(until=cluster.sim.now + run_us)
    for loop in loops:
        loop.running = False


def open_loop_master_kill(cluster, run_us: float) -> None:
    standby = cluster.add_host("standby-master", role="master")
    detector = FailureDetector(cluster.coordinator, [standby],
                               interval=500.0, miss_threshold=3,
                               ping_timeout=200.0)
    detector.start()
    engine = OpenLoopEngine(
        cluster, [TenantSpec("load", ConstantRate(50_000.0), MIX,
                             n_clients=4)])
    engine.start()
    cluster.inject_faults(FaultPlan(events=(HostFlap(
        host=cluster.coordinator.masters["m0"].host,
        start=cluster.sim.now + 1_000.0),)))
    cluster.sim.run(until=cluster.sim.now + run_us)
    engine.stop()
    engine.drain()
    detector.stop()
    assert detector.recoveries_completed == 1


def held_and_tail(shape, run_us: float) -> tuple[int, int, int]:
    """(records the master holds at ``settle()``, the clients'
    unacknowledged tail, the client count)."""
    cluster = build_cluster(
        curp_config(3, rpc_timeout=500.0, max_attempts=40,
                    retry_backoff=100.0),
        profile=RAMCLOUD_PROFILE, seed=11)
    shape(cluster, run_us)
    cluster.settle()
    registry = cluster.master("m0").registry
    tail = 0
    for client in cluster.clients:
        # nothing is in flight after settle(): the last seq sent is the
        # one below first_incomplete; the master dropped every record
        # below the client's last ack
        last_seq = client.tracker.first_incomplete - 1
        acked = registry._ack_level.get(client.tracker.client_id, 1)
        tail += last_seq - acked + 1
    held = registry.record_count()
    clients = len(cluster.clients)
    cluster.close()
    return held, tail, clients


@pytest.mark.parametrize("shape", [closed_loop, open_loop_master_kill],
                         ids=["closed_loop", "open_loop_master_kill"])
def test_completion_records_stay_bounded_by_updates_in_flight(shape):
    short = held_and_tail(shape, 4_000.0)
    long = held_and_tail(shape, 12_000.0)
    for held, tail, clients in (short, long):
        assert 0 < held <= tail
        if shape is closed_loop:
            assert tail == clients
    assert long[0] <= short[0]
