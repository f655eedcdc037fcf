"""Unit tests for the fault-injection subsystem (net/faults.py).

Covers the network fault hooks directly (one-way partitions, gray
links, gray hosts) and the scheduled FaultInjector on top, including
the golden-trace contract: an empty plan schedules nothing, draws
nothing, and leaves the main rng stream untouched.
"""

from __future__ import annotations

import types

import pytest

from repro.net import Network
from repro.net.faults import (FaultInjector, FaultPlan, GrayHost, GrayLink,
                              HostFlap, LinkProfile, OneWayPartition,
                              SlowDisk, SymmetricPartition)
from repro.net.latency import LatencyModel
from repro.sim import Fixed, Simulator


def two_hosts(network: Network):
    a = network.add_host("a")
    b = network.add_host("b")
    inbox = []
    back = []
    b.set_message_handler(lambda p: inbox.append((network.sim.now, p)))
    a.set_message_handler(lambda p: back.append((network.sim.now, p)))
    return a, b, inbox, back


def request(method: str):
    """A duck-typed RPC request frame: anything with a .method."""
    return types.SimpleNamespace(method=method)


# ----------------------------------------------------------------------
# network hooks, driven directly
# ----------------------------------------------------------------------

def test_one_way_partition_is_asymmetric(sim: Simulator, network: Network):
    a, b, inbox, back = two_hosts(network)
    network.partition_one_way("a", "b")
    a.send("b", "forward")
    b.send("a", "reverse")
    sim.run()
    assert inbox == []                      # a → b blocked
    assert [p for _, p in back] == ["reverse"]  # b → a flows
    network.heal_one_way("a", "b")
    assert not network._faults_active
    a.send("b", "healed")
    sim.run()
    assert [p for _, p in inbox] == ["healed"]


def test_gray_link_total_loss(sim: Simulator, network: Network):
    import random
    a, _b, inbox, _ = two_hosts(network)
    network.fault_rng = random.Random(7)
    network.set_link_fault("a", "b", LinkProfile(loss_rate=1.0))
    for i in range(5):
        a.send("b", i)
    sim.run()
    assert inbox == []
    assert network.stats.messages_dropped == 5
    network.clear_link_fault("a", "b")
    assert not network._faults_active


def test_gray_link_delay_spike(sim: Simulator, network: Network):
    a, _b, inbox, _ = two_hosts(network)
    network.set_link_fault("a", "b", LinkProfile(extra_delay=100.0))
    a.send("b", "slow")
    sim.run()
    assert inbox == [(102.0, "slow")]       # 2 µs wire + 100 µs spike


def test_gray_link_duplication(sim: Simulator, network: Network):
    import random
    a, _b, inbox, _ = two_hosts(network)
    network.fault_rng = random.Random(7)
    network.set_link_fault("a", "b",
                           LinkProfile(duplicate_rate=1.0, duplicate_lag=3.0))
    a.send("b", "twice")
    sim.run()
    assert [p for _, p in inbox] == ["twice", "twice"]
    assert inbox[1][0] > inbox[0][0]
    assert network.stats.messages_duplicated == 1
    assert network.stats.messages_sent == 1  # protocol traffic unchanged


def test_symmetric_link_fault_hits_both_directions(sim: Simulator,
                                                   network: Network):
    import random
    a, b, inbox, back = two_hosts(network)
    network.fault_rng = random.Random(7)
    network.set_link_fault("a", "b", LinkProfile(loss_rate=1.0),
                           symmetric=True)
    a.send("b", 1)
    b.send("a", 2)
    sim.run()
    assert inbox == [] and back == []


def test_gray_host_filters_requests_not_responses(sim: Simulator,
                                                  network: Network):
    a, _b, inbox, _ = two_hosts(network)
    network.set_gray_host("b", allow=("ping",))
    a.send("b", request("ping"))            # allowed control path
    a.send("b", request("record"))          # data path: dropped
    a.send("b", "raw-payload")              # no .method: passes
    sim.run()
    methods = [getattr(p, "method", p) for _, p in inbox]
    assert methods == ["ping", "raw-payload"]
    network.clear_gray_host("b")
    a.send("b", request("record"))
    sim.run()
    assert getattr(inbox[-1][1], "method", None) == "record"


def test_gray_host_filters_each_message_of_a_burst(sim: Simulator,
                                                   network: Network):
    a, _b, inbox, _ = two_hosts(network)
    network.set_gray_host("b", allow=("ping",))
    a.send("b", request("record"))
    a.send("b", request("ping"))
    a.send("b", request("replicate"))
    sim.run()
    assert [p.method for _, p in inbox] == ["ping"]
    assert network.stats.messages_dropped == 2


def test_link_fault_delays_each_message_one_way(sim: Simulator,
                                                network: Network):
    a, b, inbox, back = two_hosts(network)
    network.set_link_fault("a", "b", LinkProfile(extra_delay=50.0))
    a.send("b", "x")
    a.send("b", "y")
    b.send("a", "reverse")
    sim.run()
    assert inbox == [(52.0, "x"), (52.0, "y")]
    assert back == [(2.0, "reverse")]


# ----------------------------------------------------------------------
# the scheduled injector
# ----------------------------------------------------------------------

def test_injector_applies_and_reverts_on_schedule(sim: Simulator,
                                                  network: Network):
    a, _b, inbox, _ = two_hosts(network)
    plan = FaultPlan(events=(OneWayPartition(src="a", dst="b",
                                             start=10.0, end=20.0),))
    injector = FaultInjector(network, plan)
    injector.start()
    send_times = [5.0, 15.0, 25.0]
    for t in send_times:
        sim.schedule_callback(t, a.send, "b", t)
    sim.run()
    assert [p for _, p in inbox] == [5.0, 25.0]   # 15.0 fell in the window
    assert [t for t, _ in injector.applied] == [10.0]
    assert [t for t, _ in injector.reverted] == [20.0]
    assert injector.active == []


def test_symmetric_partition_blocks_both_ways_until_its_end(
        sim: Simulator, network: Network):
    a, b, inbox, back = two_hosts(network)
    injector = FaultInjector(network, FaultPlan(events=(
        SymmetricPartition(a="a", b="b", start=10.0, end=20.0),)))
    injector.start()
    for t in (5.0, 15.0, 25.0):
        sim.schedule_callback(t, a.send, "b", t)
        sim.schedule_callback(t, b.send, "a", t)
    sim.run()
    assert [p for _, p in inbox] == [5.0, 25.0]
    assert [p for _, p in back] == [5.0, 25.0]
    assert [t for t, _ in injector.reverted] == [20.0]
    assert not network._faults_active


def test_host_flap_crashes_and_restarts(sim: Simulator, network: Network):
    a, _b, inbox, _ = two_hosts(network)
    plan = FaultPlan(events=(HostFlap(host="b", start=10.0, end=20.0),))
    FaultInjector(network, plan).start()
    for t in (5.0, 15.0, 25.0):
        sim.schedule_callback(t, a.send, "b", t)
    sim.run()
    assert [p for _, p in inbox] == [5.0, 25.0]


def test_permanent_fault_never_reverts(sim: Simulator, network: Network):
    a, _b, inbox, _ = two_hosts(network)
    plan = FaultPlan(events=(GrayHost(host="b", start=0.0),))
    injector = FaultInjector(network, plan)
    injector.start()
    sim.schedule_callback(50.0, a.send, "b", request("record"))
    sim.run()
    assert inbox == []
    assert injector.active  # still gray
    injector.heal_all()
    assert injector.active == []
    a.send("b", request("record"))
    sim.run()
    assert len(inbox) == 1


def test_injector_start_is_idempotent(sim: Simulator, network: Network):
    _a, _b, _inbox, _ = two_hosts(network)
    plan = FaultPlan(events=(SymmetricPartition(a="a", b="b", start=1.0),))
    injector = FaultInjector(network, plan)
    injector.start()
    injector.start()
    sim.run()
    assert len(injector.applied) == 1


def test_slow_disk_multiplier(sim: Simulator):
    from repro.kvstore.wal import VirtualDisk
    disk = VirtualDisk(sim)
    assert disk.charge(2.0) == 2.0
    disk.multiplier = 10.0
    assert disk.charge(2.0) == pytest.approx(22.0)  # queue 2 + 10×2
    disk.multiplier = 1.0
    assert disk.charge(0.0) == 0.0


def test_slow_disk_event_requires_coordinator(sim: Simulator,
                                              network: Network):
    injector = FaultInjector(network, FaultPlan(
        events=(SlowDisk(host="b", start=0.0),)))
    with pytest.raises(ValueError):
        injector.disk("b")


def test_plan_shifted(sim: Simulator):
    plan = FaultPlan(events=(HostFlap(host="x", start=5.0, end=9.0),
                             GrayHost(host="y", start=2.0)))
    moved = plan.shifted(100.0)
    assert [(e.start, e.end) for e in moved.events] == [(105.0, 109.0),
                                                        (102.0, None)]
    assert moved.seed == plan.seed


def test_event_validation():
    with pytest.raises(ValueError):
        HostFlap(host="x", start=-1.0)
    with pytest.raises(ValueError):
        HostFlap(host="x", start=5.0, end=5.0)
    with pytest.raises(ValueError):
        LinkProfile(loss_rate=1.5)
    with pytest.raises(ValueError):
        SlowDisk(host="x", multiplier=0.0)


# ----------------------------------------------------------------------
# the golden-trace contract
# ----------------------------------------------------------------------

def _trace(plan: FaultPlan | None, seed: int = 42):
    """Run a small lossy workload; return (delivery trace, rng state)."""
    sim = Simulator(seed=seed)
    network = Network(sim, latency=LatencyModel(Fixed(2.0)), drop_rate=0.1)
    a, _b, inbox, _ = two_hosts(network)
    if plan is not None:
        FaultInjector(network, plan).start()
    for i in range(50):
        sim.schedule_callback(float(i), a.send, "b", i)
    sim.run()
    return inbox, sim.rng.getstate()


def test_empty_plan_keeps_traces_byte_identical():
    bare_trace, bare_rng = _trace(None)
    empty_trace, empty_rng = _trace(FaultPlan())
    assert empty_trace == bare_trace
    assert empty_rng == bare_rng


def test_fault_plans_replay_deterministically():
    plan = FaultPlan(events=(
        GrayLink(src="a", dst="b", start=5.0, end=30.0, loss_rate=0.4,
                 jitter=1.5, duplicate_rate=0.3),
        OneWayPartition(src="a", dst="b", start=35.0, end=40.0),
    ), seed=9)
    first, first_rng = _trace(plan)
    second, second_rng = _trace(plan)
    assert first == second
    assert first_rng == second_rng


def test_fault_rng_is_isolated_from_sim_rng():
    """The same fault plan with different fault seeds must leave the
    *main* rng stream consuming the same draws for surviving messages:
    loss rolls come only from the dedicated stream."""
    base = (GrayLink(src="a", dst="b", start=0.0, loss_rate=0.5),)
    _t1, rng1 = _trace(FaultPlan(events=base, seed=1))
    _t2, rng2 = _trace(FaultPlan(events=base, seed=2))
    # Different fault seeds drop different messages, but every message
    # that reaches the drop_rate roll consumes exactly one sim.rng draw
    # either way... so the total sim.rng consumption differs only via
    # latency sampling of survivors.  The strong invariant we pin:
    # with loss_rate=0 the fault seed is irrelevant to the main stream.
    none = (GrayLink(src="a", dst="b", start=0.0, extra_delay=1.0),)
    t3, rng3 = _trace(FaultPlan(events=none, seed=1))
    t4, rng4 = _trace(FaultPlan(events=none, seed=2))
    assert rng3 == rng4
    assert [p for _, p in t3] == [p for _, p in t4]
