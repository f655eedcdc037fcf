"""Scheduler determinism: the hot-path overhaul must not change virtual
time.

The now-queue scheduler (deque for same-instant entries, record-carrying
heap for the future) must dispatch in *exactly* the order of the seed
scheduler's single global ``(time, seq)`` heap.  Two layers of defence:

- unit tests pinning same-instant FIFO ordering across every scheduling
  shape (timeouts, zero-delay callbacks, event dispatch, late
  ``add_callback``), including the subtle merge case where a heap entry
  and a now-queue entry coexist at the same instant;
- golden-trace tests: seeded YCSB-style experiments whose end state
  ``(now, processed_events, per-host traffic stats)`` is pinned and
  must stay byte-identical.
"""

from __future__ import annotations

import pytest

from repro.baselines import curp_config
from repro.harness.builder import Cluster, build_cluster
from repro.harness.profiles import (RAMCLOUD_PROFILE, REDIS_PROFILE,
                                    TEST_PROFILE)
from repro.metrics.stats import LatencyRecorder
from repro.sim import Simulator
from repro.workload import run_closed_loop, run_pipelined_loop
from repro.workload.clients import PipelinedClient
from repro.workload.ycsb import YcsbWorkload


# ----------------------------------------------------------------------
# same-instant FIFO ordering pins
# ----------------------------------------------------------------------
def test_same_instant_timeouts_fifo(sim: Simulator):
    order = []
    for tag in ("a", "b", "c"):
        sim.timeout(5.0, value=tag).add_callback(
            lambda e: order.append(e.value))
    sim.run()
    assert order == ["a", "b", "c"]


def test_zero_delay_timeouts_fifo(sim: Simulator):
    order = []
    for tag in ("a", "b", "c"):
        sim.timeout(0.0, value=tag).add_callback(
            lambda e: order.append(e.value))
    sim.run()
    assert order == ["a", "b", "c"]


def test_zero_delay_callbacks_interleave_with_timeouts(sim: Simulator):
    """Scheduling order is the tiebreaker regardless of entry shape."""
    order = []
    sim.timeout(0.0, value="t1").add_callback(lambda e: order.append("t1"))
    sim.schedule_callback(0.0, order.append, "cb")
    sim.timeout(0.0, value="t2").add_callback(lambda e: order.append("t2"))
    sim.run()
    assert order == ["t1", "cb", "t2"]


def test_heap_entry_wins_over_later_now_entry(sim: Simulator):
    """The merge case: a callback dispatching at t=5 schedules a
    zero-delay callback; a *previously scheduled* t=5 entry still on
    the heap must dispatch first (it has the smaller sequence number).
    The seed scheduler's global heap did this implicitly; the now-queue
    must reproduce it."""
    order = []
    sim.schedule_callback(5.0, lambda: (order.append("a"),
                                        sim.schedule_callback(
                                            0.0, order.append, "zero")))
    sim.schedule_callback(5.0, order.append, "b")
    sim.run()
    assert order == ["a", "b", "zero"]


def test_event_dispatch_ordered_after_earlier_same_time_entries(
        sim: Simulator):
    """succeed() at t=5 queues dispatch *behind* a t=5 heap entry that
    was scheduled earlier."""
    order = []
    event = sim.event()
    event.add_callback(lambda e: order.append("event"))
    sim.schedule_callback(5.0, lambda: (order.append("first"),
                                        event.succeed()))
    sim.schedule_callback(5.0, order.append, "second")
    sim.run()
    assert order == ["first", "second", "event"]


def test_add_callback_after_dispatch_delivers_at_same_time(sim: Simulator):
    """A callback added after the event already ran its callbacks fires
    on a later entry at the *same* virtual time, after entries that were
    queued before it."""
    order = []
    event = sim.timeout(3.0)

    def late_subscribe() -> None:
        order.append("subscribing")
        sim.schedule_callback(0.0, order.append, "queued-before")
        event.add_callback(lambda e: order.append("late-callback"))

    event.add_callback(lambda e: late_subscribe())
    sim.run()
    assert order == ["subscribing", "queued-before", "late-callback"]
    assert sim.now == 3.0


def test_schedule_callback_arg_form(sim: Simulator):
    seen = []
    sim.schedule_callback(1.0, seen.append, "x")
    sim.schedule_callback(2.0, lambda a, b: seen.append((a, b)), 1, 2)
    sim.run()
    assert seen == ["x", (1, 2)]


def test_run_until_deadline_drains_now_queue_at_deadline(sim: Simulator):
    """Entries that keep spawning zero-delay work exactly at the
    deadline are all processed before the clock stops."""
    order = []
    sim.schedule_callback(5.0, lambda: sim.schedule_callback(
        0.0, lambda: sim.schedule_callback(0.0, order.append, "nested")))
    sim.run(until=5.0)
    assert order == ["nested"]
    assert sim.now == 5.0


def test_step_merges_now_queue_and_heap(sim: Simulator):
    """Single-stepping obeys the same merged order as run()."""
    order = []
    sim.schedule_callback(5.0, lambda: (order.append("a"),
                                        sim.schedule_callback(
                                            0.0, order.append, "zero")))
    sim.schedule_callback(5.0, order.append, "b")
    while sim.step():
        pass
    assert order == ["a", "b", "zero"]


def test_processed_events_exact_across_nested_runs(sim: Simulator):
    """run() flushes its step count additively, so a callback that
    re-enters the scheduler (as harness code does) must not lose
    counts."""
    def inner() -> None:
        sim.schedule_callback(0.0, lambda: None)
        sim.run()  # re-enter the scheduler mid-dispatch

    sim.schedule_callback(1.0, inner)
    sim.schedule_callback(2.0, lambda: None)
    sim.run()
    assert sim.processed_events == 3


# ----------------------------------------------------------------------
# golden trace
# ----------------------------------------------------------------------
#: end state of the experiment below: the CURP update lifecycle
#: (call_cb + QuorumEvent fan-outs, the master's continuation-passing
#: operation path) on the now-queue scheduler.  If this test fails,
#: *virtual-time* behaviour changed — that is a correctness regression,
#: not a perf tradeoff.
GOLDEN = {
    "now": 4532.0,
    "processed_events": 19025,
    "operations": 2702,
    "messages_sent": 14676,
    "bytes_sent": 2358920,
    "messages_dropped": 0,
    "per_host_sent": {
        "client1": 1621,
        "client2": 1604,
        "client3": 1566,
        "client4": 1603,
        "coordinator": 8,
        "m0-backup0": 236,
        "m0-backup1": 236,
        "m0-host": 4098,
        "m0-witness0": 1852,
        "m0-witness1": 1852,
    },
}


def _golden_experiment() -> dict:
    """The seeded YCSB experiment behind every golden pin."""
    cluster = build_cluster(curp_config(2), seed=1234)
    workload = YcsbWorkload(name="golden", read_fraction=0.5,
                            item_count=1000, value_size=16,
                            distribution="zipfian")
    result = run_closed_loop(cluster, workload, n_clients=4,
                             duration=3_000.0, warmup=500.0)
    cluster.settle(1_000.0)
    return {
        "now": cluster.sim.now,
        "processed_events": cluster.sim.processed_events,
        "operations": result["operations"],
        "messages_sent": cluster.network.stats.messages_sent,
        "bytes_sent": cluster.network.stats.bytes_sent,
        "messages_dropped": cluster.network.stats.messages_dropped,
        "per_host_sent": dict(sorted(
            cluster.network.stats.per_host_sent.items())),
    }


def test_golden_trace_seeded_ycsb_unchanged():
    assert _golden_experiment() == GOLDEN


# ----------------------------------------------------------------------
# golden trace, pipelined clients
# ----------------------------------------------------------------------
#: end state of the seeded *pipelined* experiment (4 clients × 40
#: waves × depth 4, zipfian 25% reads): each wave puts depth
#: same-instant RPCs to each destination on the client NIC back to
#: back — the shape the e2e ``burst_write_f3`` workload runs.
GOLDEN_PIPELINED = {
    "now": 1368.0,
    "processed_events": 6234,
    "operations": 640,
    "messages_sent": 3700,
    "bytes_sent": 630520,
    "messages_dropped": 0,
    "per_host_sent": {
        "client1": 410,
        "client2": 423,
        "client3": 432,
        "client4": 417,
        "coordinator": 8,
        "m0-backup0": 42,
        "m0-backup1": 42,
        "m0-host": 834,
        "m0-witness0": 546,
        "m0-witness1": 546,
    },
}


def _pipelined_experiment() -> dict:
    """The seeded pipelined experiment behind GOLDEN_PIPELINED."""
    cluster = build_cluster(curp_config(2), seed=1234)
    workload = YcsbWorkload(name="golden-pipelined", read_fraction=0.25,
                            item_count=1000, value_size=16,
                            distribution="zipfian")
    result = run_pipelined_loop(cluster, workload, n_clients=4,
                                waves=40, depth=4)
    cluster.settle(1_000.0)
    stats = cluster.network.stats
    return {
        "now": cluster.sim.now,
        "processed_events": cluster.sim.processed_events,
        "operations": result["operations"],
        "messages_sent": stats.messages_sent,
        "bytes_sent": stats.bytes_sent,
        "messages_dropped": stats.messages_dropped,
        "per_host_sent": dict(sorted(stats.per_host_sent.items())),
    }


def test_golden_trace_pipelined_pinned():
    assert _pipelined_experiment() == GOLDEN_PIPELINED


# ----------------------------------------------------------------------
# step() dispatches exactly like run()
# ----------------------------------------------------------------------
def _pipelined_cluster(profile):
    """A seeded pipelined cluster with its wave loops spawned but not
    yet run (connecting the clients already ran the simulator)."""
    cluster = build_cluster(curp_config(2), profile=profile, seed=1234)
    workload = YcsbWorkload(name="step-vs-run", read_fraction=0.25,
                            item_count=1000, value_size=16,
                            distribution="zipfian")
    recorder = LatencyRecorder()
    for _ in range(4):
        client = cluster.new_client(collect_outcomes=False)
        loop = PipelinedClient(client=client, stream=workload.generator(),
                               depth=4, wave_latency=recorder)
        client.host.spawn(loop.loop(max_waves=40), name="pipelined")
    return cluster


def _next_instant(sim: Simulator) -> float:
    if sim._now_queue:
        return sim.now
    return sim._heap[0][0] if sim._heap else float("inf")


def _end_state(cluster) -> dict:
    stats = cluster.network.stats
    return {
        "now": cluster.sim.now,
        "processed_events": cluster.sim.processed_events,
        "messages_sent": stats.messages_sent,
        "per_host_sent": dict(sorted(stats.per_host_sent.items())),
        "log_end": cluster.master().store.log.end,
    }


@pytest.mark.parametrize("profile",
                         [TEST_PROFILE, RAMCLOUD_PROFILE, REDIS_PROFILE],
                         ids=["test", "ramcloud", "redis"])
def test_step_dispatches_exactly_like_run(profile):
    """One copy advances a record at a time with ``step()`` to instant
    T (every record at T included), a second copy with ``run(until=T)``;
    the two must agree on every dispatch-visible number.  T is the
    instant of the stepped copy's 3,000th record, so it is one the
    workload really dispatches at."""
    stepped = _pipelined_cluster(profile)
    sim = stepped.sim
    for _ in range(3_000):
        assert sim.step()
    until = sim.now
    while _next_instant(sim) <= until:
        sim.step()
    ran = _pipelined_cluster(profile)
    ran.sim.run(until=until)
    assert _end_state(stepped) == _end_state(ran)
    assert _end_state(ran)["log_end"] > 0  # the window holds updates


# ----------------------------------------------------------------------
# golden trace, load-driven rebalancing (ISSUE 5)
# ----------------------------------------------------------------------
#: end state of the seeded skewed two-shard experiment with the
#: rebalancer enabled (interval 400, threshold 1.25): one split of the
#: hot shard's tablet at the load-weighted point, one migration of the
#: split-off half to the cold shard, and the post-move merge pass
#: coalescing the receiver's now-adjacent tablets back into one — the
#: final layout is two tablets with the boundary at the split point.
#: Any drift in virtual-time behaviour moves this pin.
GOLDEN_REBALANCE = {
    "now": 4532.0,
    "processed_events": 19717,
    "operations": 2600,
    "messages_sent": 14930,
    "bytes_sent": 2341120,
    "messages_dropped": 0,
    "splits": 1,
    "migrations": 1,
    "tablets": ((0, 9735153152272807980, "m0"),
                (9735153152272807980, 18446744073709551616, "m1")),
    "per_host_sent": {
        "client1": 1519,
        "client2": 1503,
        "client3": 1563,
        "client4": 1510,
        "coordinator": 40,
        "m0-backup0": 146,
        "m0-backup1": 146,
        "m0-host": 1906,
        "m0-witness0": 823,
        "m0-witness1": 823,
        "m1-backup0": 190,
        "m1-backup1": 190,
        "m1-host": 2455,
        "m1-witness0": 1058,
        "m1-witness1": 1058,
    },
}


def _rebalance_experiment(rebalance: bool = True) -> tuple[dict, Cluster]:
    """The seeded *skewed* experiment behind the rebalancer golden: two
    shards, a zipfian mix whose head lands ~70% of the load on m1, and
    the rebalancer (when enabled) splitting/migrating mid-run.  Returns
    the pinned observation and the cluster."""
    cluster = build_cluster(curp_config(2), seed=1234, n_masters=2)
    if rebalance:
        cluster.start_rebalancer(interval=400.0, threshold=1.25,
                                 min_ops=60)
    workload = YcsbWorkload(name="golden-skewed", read_fraction=0.5,
                            item_count=375, value_size=16,
                            distribution="zipfian")
    result = run_closed_loop(cluster, workload, n_clients=4,
                             duration=3_000.0, warmup=500.0)
    if cluster.rebalancer is not None:
        cluster.rebalancer.stop()
    cluster.settle(1_000.0)
    stats = cluster.rebalancer.stats if rebalance else None
    return {
        "now": cluster.sim.now,
        "processed_events": cluster.sim.processed_events,
        "operations": result["operations"],
        "messages_sent": cluster.network.stats.messages_sent,
        "bytes_sent": cluster.network.stats.bytes_sent,
        "messages_dropped": cluster.network.stats.messages_dropped,
        "splits": stats.splits if stats else 0,
        "migrations": stats.migrations if stats else 0,
        "tablets": cluster.shard_map.tablets(),
        "per_host_sent": dict(sorted(
            cluster.network.stats.per_host_sent.items())),
    }, cluster


def test_golden_trace_rebalance_pinned():
    """ISSUE 5 golden: the seeded skewed run with rebalancing enabled
    is pinned end-to-end — virtual end time, dispatch count, traffic,
    *and* the exact post-rebalance tablet layout.  Any drift in the
    rebalancer's virtual-time behaviour (report cadence, split-point
    choice, migration protocol) moves this pin.

    Rebalancing *disabled* is pinned by omission everywhere else: the
    load-accounting counters add no events, so GOLDEN /
    GOLDEN_PIPELINED above must stay byte-identical — those tests are
    the disabled half of this satellite."""
    observed, cluster = _rebalance_experiment()
    assert observed == GOLDEN_REBALANCE
    assert GOLDEN_REBALANCE["migrations"] >= 1  # the pin has a subject
    # Every load window the rebalancer read was whole: the key space is
    # smaller than ``LOAD_WINDOW_HASHES``, so no window restarted.
    for master_id in ("m0", "m1"):
        stats = cluster.master(master_id).stats
        assert stats.load_reports > 0
        assert stats.load_window_restarts == 0


def test_rebalance_disabled_trace_static_tablets():
    """The identical skewed experiment without the rebalancer keeps the
    even two-tablet split (nothing else in the PR moves tablets), and
    its virtual end time matches the enabled run's — rebalancing
    changes placement and message counts, never the measured window."""
    observed, _cluster = _rebalance_experiment(rebalance=False)
    assert observed["splits"] == 0 and observed["migrations"] == 0
    assert observed["tablets"] == ((0, 2 ** 63, "m0"),
                                   (2 ** 63, 2 ** 64, "m1"))
    assert observed["now"] == GOLDEN_REBALANCE["now"]
