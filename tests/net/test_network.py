"""Unit tests for the network fabric."""

from __future__ import annotations

import random
import types

import pytest

from repro.net import Network
from repro.net.faults import LinkProfile
from repro.net.latency import LatencyModel
from repro.sim import Fixed, Simulator


def two_hosts(network: Network, tx: float = 0.0):
    a = network.add_host("a", tx_cost=tx)
    b = network.add_host("b", tx_cost=tx)
    inbox = []
    b.set_message_handler(lambda m: inbox.append((network.sim.now, m.payload)))
    return a, b, inbox


def test_delivery_after_one_way_latency(sim: Simulator, network: Network):
    a, _b, inbox = two_hosts(network)
    a.send("b", "hello")
    sim.run()
    assert inbox == [(2.0, "hello")]


def test_duplicate_host_name_rejected(sim: Simulator, network: Network):
    network.add_host("x")
    with pytest.raises(ValueError):
        network.add_host("x")


def test_unknown_destination_rejected(sim: Simulator, network: Network):
    a = network.add_host("a")
    with pytest.raises(KeyError):
        a.send("ghost", "hi")


def test_nic_serialization_staggers_messages(sim: Simulator, network: Network):
    a, _b, inbox = two_hosts(network, tx=0.5)
    for i in range(3):
        a.send("b", i)
    sim.run()
    # Departures at 0.5, 1.0, 1.5; +2.0 wire each.
    assert [t for t, _ in inbox] == [2.5, 3.0, 3.5]
    assert [p for _, p in inbox] == [0, 1, 2]


def test_per_pair_latency_override(sim: Simulator):
    latency = LatencyModel(Fixed(2.0))
    network = Network(sim, latency=latency)
    a, _b, inbox = two_hosts(network)
    network.set_link_latency("a", "b", Fixed(50.0))
    a.send("b", "slow")
    sim.run()
    assert inbox == [(50.0, "slow")]


def test_partition_blocks_both_directions(sim: Simulator, network: Network):
    a, b, inbox = two_hosts(network)
    back = []
    a.set_message_handler(lambda m: back.append(m.payload))
    network.partition("a", "b")
    a.send("b", "x")
    b.send("a", "y")
    sim.run()
    assert inbox == [] and back == []
    assert network.stats.messages_dropped == 2
    network.heal("a", "b")
    a.send("b", "z")
    sim.run()
    assert [p for _, p in inbox] == ["z"]


def test_isolate_and_rejoin(sim: Simulator, network: Network):
    a, _b, inbox = two_hosts(network)
    network.add_host("c")
    network.isolate("a")
    a.send("b", 1)
    sim.run()
    assert inbox == []
    # Isolation holds against hosts added afterwards, in both
    # directions (the watchdog quarantines with isolate(), and
    # Cluster.new_client() adds hosts at any time).
    a_inbox = []
    a.set_message_handler(lambda m: a_inbox.append(m.payload))
    late = network.add_host("late")
    late.send("a", 3)
    a.send("late", 4)
    late.send("b", 5)
    sim.run()
    assert a_inbox == []
    assert [p for _, p in inbox] == [5]
    network.rejoin("a")
    a.send("b", 2)
    late.send("a", 6)
    sim.run()
    assert [p for _, p in inbox] == [5, 2]
    assert a_inbox == [6]
    # ... and a rejoined host is reachable from hosts added after that.
    later = network.add_host("later")
    later.send("a", 7)
    sim.run()
    assert a_inbox == [6, 7]


def test_heal_all_ends_isolation_for_late_hosts(sim: Simulator,
                                                network: Network):
    _a, _b, inbox = two_hosts(network)
    network.isolate("b")
    network.heal_all()
    network.add_host("late").send("b", 1)
    sim.run()
    assert [p for _, p in inbox] == [1]


def test_drop_rate_drops_messages(sim: Simulator):
    network = Network(sim, latency=LatencyModel(Fixed(1.0)), drop_rate=0.5)
    a, _b, inbox = two_hosts(network)
    for i in range(200):
        a.send("b", i)
    sim.run()
    assert 40 < len(inbox) < 160  # ~100 expected
    assert network.stats.messages_dropped == 200 - len(inbox)


def test_invalid_drop_rate():
    with pytest.raises(ValueError):
        Network(Simulator(), drop_rate=1.0)


def test_crashed_receiver_loses_messages(sim: Simulator, network: Network):
    a, b, inbox = two_hosts(network)
    b.crash()
    a.send("b", "lost")
    sim.run()
    assert inbox == []


def test_crashed_sender_sends_nothing(sim: Simulator, network: Network):
    a, _b, inbox = two_hosts(network)
    a.crash()
    a.send("b", "never")
    sim.run()
    assert inbox == []


def test_restart_allows_delivery_again(sim: Simulator, network: Network):
    a, b, inbox = two_hosts(network)
    b.crash()
    b.restart()
    a.send("b", "back")
    sim.run()
    assert [p for _, p in inbox] == ["back"]


def test_traffic_stats_count_bytes(sim: Simulator, network: Network):
    a, _b, _inbox = two_hosts(network)
    a.send("b", "m1", size_bytes=100)
    a.send("b", "m2", size_bytes=50)
    sim.run()
    assert network.stats.messages_sent == 2
    assert network.stats.bytes_sent == 150
    assert network.stats.per_host_bytes["a"] == 150


def test_loopback_is_instant(sim: Simulator, network: Network):
    a = network.add_host("solo")
    inbox = []
    a.set_message_handler(lambda m: inbox.append(sim.now))
    a.send("solo", "self")
    sim.run()
    assert inbox == [0.0]


def test_latency_model_sampling_matches_the_distributions():
    """The model compiles one sampler per default/override and caches
    it; what it returns is still exactly ``dist.sample`` on the caller's
    rng — before and after an override appears, and across rngs."""
    import random

    from repro.sim import LogNormal, Shifted

    default = Shifted(1.18, LogNormal(median=1.05, sigma=0.18))
    slow = Shifted(50.0, LogNormal(median=5.0, sigma=0.3))
    model = LatencyModel(default)
    rng, twin = random.Random(5), random.Random(5)
    for _ in range(100):
        assert model.sample(rng, "a", "b") == default.sample(twin)
    model.set_pair("a", "c", slow)
    for _ in range(100):
        assert model.sample(rng, "a", "c") == slow.sample(twin)
        assert model.sample(rng, "c", "a") == slow.sample(twin)
        assert model.sample(rng, "a", "b") == default.sample(twin)
    other, other_twin = random.Random(6), random.Random(6)
    assert model.sample(other, "a", "b") == default.sample(other_twin)
    assert model.sample(rng, "a", "b") == default.sample(twin)
    assert rng.getstate() == twin.getstate()


# ----------------------------------------------------------------------
# a cached link is never stale
# ----------------------------------------------------------------------
# A host resolves (target, wire sampler) per destination on first send
# and probes one network flag per send after that.  Every way of
# stopping or bending a transmission has to govern the very next send
# on an already-cached link, and every way of undoing it has to give
# the plain path back.

def probe(sim: Simulator, a, inbox: list) -> float | None:
    """Send one RPC-request-shaped message a → b now: its delivery
    delay, or None when it was lost."""
    del inbox[:]
    sent_at = sim.now
    a.send("b", types.SimpleNamespace(method="record"))
    sim.run()
    return inbox[0][0] - sent_at if inbox else None


LOST = None
CHANGES = {
    "partition/heal": (
        lambda n: n.partition("a", "b"), lambda n: n.heal("a", "b"), LOST),
    "partition/heal_all": (
        lambda n: n.partition("b", "a"), lambda n: n.heal_all(), LOST),
    "partition_one_way/heal_one_way": (
        lambda n: n.partition_one_way("a", "b"),
        lambda n: n.heal_one_way("a", "b"), LOST),
    "isolate/rejoin": (
        lambda n: n.isolate("b"), lambda n: n.rejoin("b"), LOST),
    "isolate/heal_all": (
        lambda n: n.isolate("a"), lambda n: n.heal_all(), LOST),
    "set_link_fault/clear_link_fault": (
        lambda n: n.set_link_fault("a", "b", LinkProfile(loss_rate=1.0)),
        lambda n: n.clear_link_fault("a", "b"), LOST),
    "set_link_fault(delay)/clear_link_fault": (
        lambda n: n.set_link_fault("b", "a", LinkProfile(extra_delay=8.0),
                                   symmetric=True),
        lambda n: n.clear_link_fault("b", "a", symmetric=True), 10.0),
    "set_gray_host/clear_gray_host": (
        lambda n: n.set_gray_host("b", allow=("ping",)),
        lambda n: n.clear_gray_host("b"), LOST),
    "drop_rate": (
        lambda n: setattr(n, "drop_rate", 0.999999),
        lambda n: setattr(n, "drop_rate", 0.0), LOST),
    "set_link_latency": (
        lambda n: n.set_link_latency("a", "b", Fixed(50.0)),
        lambda n: n.set_link_latency("a", "b", Fixed(2.0)), 50.0),
}


@pytest.mark.parametrize("change", CHANGES)
def test_cached_link_obeys_the_next_change_and_its_undo(
        sim: Simulator, network: Network, change: str):
    apply, undo, expected = CHANGES[change]
    a, _b, inbox = two_hosts(network)
    network.fault_rng = random.Random(7)
    assert probe(sim, a, inbox) == 2.0          # binds the a → b link
    assert "b" in a._links
    apply(network)
    assert probe(sim, a, inbox) == expected
    assert probe(sim, a, inbox) == expected     # ... and stays in force
    undo(network)
    assert probe(sim, a, inbox) == 2.0
    assert not network._guarded                 # plain path again


def test_tap_added_after_the_link_was_cached_sees_the_next_send(
        sim: Simulator, network: Network):
    a, _b, inbox = two_hosts(network)
    assert probe(sim, a, inbox) == 2.0
    tapped = []
    network.taps.append(tapped.append)
    assert probe(sim, a, inbox) == 2.0
    assert [(m.src, m.dst) for m in tapped] == [("a", "b")]
    network.taps.remove(tapped.append)
    assert probe(sim, a, inbox) == 2.0
    assert len(tapped) == 1


def test_isolation_holds_on_cached_links_and_against_late_hosts(
        sim: Simulator, network: Network):
    a, b, inbox = two_hosts(network)
    assert probe(sim, a, inbox) == 2.0
    network.isolate("b")
    late = network.add_host("late")
    a.send("b", "cached link")
    late.send("b", "fresh link")
    b.send("late", "outbound")
    sim.run()
    assert [p for _, p in inbox[1:]] == []      # nothing after the probe
    assert network.stats.messages_dropped == 3
    network.rejoin("b")
    late.send("b", "rejoined")
    sim.run()
    assert [p for _, p in inbox[1:]] == ["rejoined"]


def test_unknown_destination_raises_at_every_send(sim: Simulator,
                                                  network: Network):
    a, _b, inbox = two_hosts(network)
    assert probe(sim, a, inbox) == 2.0
    for _ in range(2):                 # a failed lookup is not cached
        with pytest.raises(KeyError):
            a.send("ghost", "hi")
    assert network.stats.messages_sent == 1
    network.add_host("ghost")          # ... so a late host is found
    a.send("ghost", "hi")
    assert network.stats.messages_sent == 2


def test_drop_rate_is_validated_on_assignment(network: Network):
    with pytest.raises(ValueError):
        network.drop_rate = 1.0
    assert network.drop_rate == 0.0 and not network._guarded
