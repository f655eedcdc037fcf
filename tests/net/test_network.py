"""Unit tests for the network fabric."""

from __future__ import annotations

import collections
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
    b.set_message_handler(lambda p: inbox.append((network.sim.now, p)))
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
    a.set_message_handler(back.append)
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
    a.set_message_handler(a_inbox.append)
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


def test_in_flight_message_outlives_sender_crash(sim: Simulator,
                                                 network: Network):
    """A message already on the wire is not recalled by a later sender
    crash."""
    a, _b, inbox = two_hosts(network)
    a.send("b", "sent")
    sim.schedule_callback(1.0, a.crash)
    sim.run()
    assert [p for _, p in inbox] == ["sent"]


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


def test_per_host_traffic_keys_senders_only_and_survives_restart(
        sim: Simulator, network: Network):
    """Each host keeps its own counts; the per-host views have the keys
    and values the counting dicts had: a host that never sent is absent
    (a zero-byte sender is not), and a crash / restart keeps what the
    host sent in its earlier life."""
    a, b, _inbox = two_hosts(network)
    network.add_host("quiet")
    network.add_host("empty").send("b", "ping", size_bytes=0)
    a.send("b", "m1", size_bytes=100)
    a.crash()
    a.send("b", "lost", size_bytes=999)  # a dead host sends nothing
    a.restart()
    a.send("b", "m2", size_bytes=50)
    b.crash()
    b.restart()
    sim.run()
    stats = network.stats
    assert stats.per_host_sent == {"a": 2, "empty": 1}
    assert stats.per_host_bytes == {"a": 150, "empty": 0}
    assert "quiet" not in stats.per_host_sent and "b" not in stats.per_host_bytes
    assert stats.messages_sent == sum(stats.per_host_sent.values())
    assert stats.bytes_sent == sum(stats.per_host_bytes.values())


def test_messages_per_update_counts_transmissions(sim: Simulator,
                                                  network: Network):
    a, _b, _inbox = two_hosts(network)
    for i in range(8):
        a.send("b", i)
    sim.run()
    stats = network.stats
    assert stats.messages_per_update(2) == 4.0
    assert stats.messages_per_update(0) == 0.0
    # one payload per transmission: the ratio e2e reports is always 1
    assert stats.payloads_sent == stats.messages_sent == 8


# ----------------------------------------------------------------------
# one message per send
# ----------------------------------------------------------------------
def test_same_instant_sends_each_cross_the_wire_in_send_order(
        sim: Simulator, network: Network):
    a, _b, inbox = two_hosts(network)
    for i in range(5):
        a.send("b", i)
    sim.run()
    assert inbox == [(2.0, i) for i in range(5)]
    assert network.stats.messages_sent == 5


def test_one_nic_serializes_sends_to_every_destination(sim: Simulator,
                                                       network: Network):
    a = network.add_host("a", tx_cost=0.5)
    seen = []
    for name in ("b", "c"):
        network.add_host(name).set_message_handler(
            lambda p, name=name: seen.append((sim.now, name, p)))
    a.send("b", 1)
    a.send("c", 2)
    a.send("b", 3)
    sim.run()
    # Departures at 0.5, 1.0, 1.5 whatever the destination; +2.0 wire.
    assert seen == [(2.5, "b", 1), (3.0, "c", 2), (3.5, "b", 3)]


def test_drop_roll_is_per_message(sim: Simulator):
    """Same-instant bursts of four lose single messages, not whole
    bursts: every transmission rolls on its own."""
    network = Network(sim, latency=LatencyModel(Fixed(1.0)), drop_rate=0.5)
    a, _b, inbox = two_hosts(network)
    for wave in range(100):
        for i in range(4):
            sim.schedule_callback(float(wave), a.send, "b", (wave, i))
    sim.run()
    assert network.stats.messages_dropped == 400 - len(inbox)
    kept = collections.Counter(wave for _, (wave, _i) in inbox)
    assert any(0 < kept[wave] < 4 for wave in range(100))


# ----------------------------------------------------------------------
# the link state at send time governs
# ----------------------------------------------------------------------
def test_partition_after_send_does_not_recall_the_message(
        sim: Simulator, network: Network):
    a, _b, inbox = two_hosts(network)
    a.send("b", "sent")
    network.partition("a", "b")             # same instant, after the send
    sim.run()
    assert [p for _, p in inbox] == ["sent"]
    assert network.stats.messages_dropped == 0


def test_heal_after_send_does_not_resurrect_the_message(
        sim: Simulator, network: Network):
    a, _b, inbox = two_hosts(network)
    network.partition("a", "b")
    a.send("b", "lost")
    network.heal("a", "b")                  # same instant, after the send
    sim.run()
    assert inbox == []
    assert network.stats.messages_dropped == 1


def test_healing_does_not_resurrect_dropped_messages(sim: Simulator,
                                                     network: Network):
    a, _b, inbox = two_hosts(network)
    network.partition("a", "b")
    sim.schedule_callback(1.0, a.send, "b", "lost-1")
    sim.schedule_callback(2.0, a.send, "b", "lost-2")
    sim.schedule_callback(5.0, network.heal, "a", "b")
    sim.schedule_callback(6.0, a.send, "b", "after-heal")
    sim.run()
    assert [p for _, p in inbox] == ["after-heal"]
    assert network.stats.messages_dropped == 2


def test_link_state_is_read_at_send_not_at_nic_departure(
        sim: Simulator, network: Network):
    """Messages still queued on the sender's NIC when a partition lands
    were admitted when sent and go out; a send after it is lost."""
    a, _b, inbox = two_hosts(network, tx=1.0)
    for i in range(3):
        a.send("b", i)                      # departures 1.0, 2.0, 3.0
    sim.schedule_callback(0.5, network.partition, "a", "b")
    sim.schedule_callback(0.5, a.send, "b", "after-partition")
    sim.run()
    assert inbox == [(3.0, 0), (4.0, 1), (5.0, 2)]
    assert network.stats.messages_dropped == 1


def test_one_way_partition_is_read_at_send_time(sim: Simulator,
                                                network: Network):
    a, b, inbox = two_hosts(network)
    back = []
    a.set_message_handler(back.append)
    a.send("b", "sent")
    b.send("a", "counterflow")
    network.partition_one_way("a", "b")     # same instant, after both
    sim.run()
    assert [p for _, p in inbox] == ["sent"]
    assert back == ["counterflow"]
    a.send("b", "blocked")
    b.send("a", "reverse")
    sim.run()
    assert [p for _, p in inbox] == ["sent"]
    assert back == ["counterflow", "reverse"]


def test_gray_filtered_message_counts_as_sent_and_dropped(
        sim: Simulator, network: Network):
    a, _b, inbox = two_hosts(network)
    network.set_gray_host("b", allow=("ping",))
    a.send("b", types.SimpleNamespace(method="ping"), size_bytes=10)
    a.send("b", types.SimpleNamespace(method="record"), size_bytes=1_000)
    a.send("b", types.SimpleNamespace(method="ping"), size_bytes=10)
    sim.run()
    assert [p.method for _, p in inbox] == ["ping", "ping"]
    stats = network.stats
    assert (stats.messages_sent, stats.bytes_sent) == (3, 1_020)
    assert stats.messages_dropped == 1


# ----------------------------------------------------------------------
# crashes around a burst
# ----------------------------------------------------------------------
#: receiver RX paths: none, independent, shared with TX (dispatch thread)
RX_PATHS = {"no-rx-cost": dict(),
            "independent-rx": dict(rx_cost=0.4),
            "shared-dispatch": dict(rx_cost=0.4, shared_dispatch=True)}


@pytest.mark.parametrize("rx_path", RX_PATHS)
def test_receiver_crash_in_handler_drops_the_rest_of_a_burst(
        sim: Simulator, network: Network, rx_path: str):
    """A handler that crashes its host refuses every later message of
    the same-instant burst, whichever way the RX path dispatches."""
    a = network.add_host("a")
    b = network.add_host("b", **RX_PATHS[rx_path])
    seen = []

    def handler(payload) -> None:
        seen.append(payload)
        if payload == "poison":
            b.crash()
    b.set_message_handler(handler)
    for payload in ("ok", "poison", "lost", "lost-too"):
        a.send("b", payload)
    sim.run()
    assert seen == ["ok", "poison"]


def test_restart_does_not_queue_behind_the_previous_lifes_nic_backlog(
        sim: Simulator, network: Network):
    a, _b, inbox = two_hosts(network, tx=1.0)
    for i in range(5):
        a.send("b", i)                      # NIC busy until 5.0
    sim.schedule_callback(1.0, a.crash)
    sim.schedule_callback(2.0, a.restart)
    sim.schedule_callback(2.0, a.send, "b", "fresh")
    sim.run()
    # Departs 3.0 on the new life's idle NIC, not after 5.0.
    assert (5.0, "fresh") in inbox


def test_loopback_is_instant(sim: Simulator, network: Network):
    a = network.add_host("solo")
    inbox = []
    a.set_message_handler(lambda p: inbox.append(sim.now))
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
