"""Frame coalescing: same-instant same-destination sends share one
NIC frame (``Network(frame_coalescing=True)``).

Covers the ISSUE 4 transport tentpole: packing and send-order
determinism, per-frame cost accounting (tx, rx, latency, drop roll),
whole-frame loss under partitions/drops, and the crash semantics —
a pending (unflushed) buffer dies with the host so a restarted
incarnation can never flush its previous life's RPCs.
"""

from __future__ import annotations

import types

import pytest

from repro.net import Network
from repro.net.latency import LatencyModel
from repro.net.message import Frame
from repro.sim import Fixed, Simulator


@pytest.fixture
def coalescing_network(sim: Simulator) -> Network:
    return Network(sim, latency=LatencyModel(Fixed(2.0)),
                   frame_coalescing=True)


def two_hosts(network: Network, tx: float = 0.0, rx: float = 0.0):
    a = network.add_host("a", tx_cost=tx)
    b = network.add_host("b", rx_cost=rx)
    inbox = []
    b.set_message_handler(lambda m: inbox.append((network.sim.now, m.payload)))
    return a, b, inbox


# ----------------------------------------------------------------------
# packing
# ----------------------------------------------------------------------
def test_same_instant_sends_pack_into_one_frame(
        sim: Simulator, coalescing_network: Network):
    a, _b, inbox = two_hosts(coalescing_network)
    for i in range(5):
        a.send("b", i)
    sim.run()
    stats = coalescing_network.stats
    assert [p for _, p in inbox] == [0, 1, 2, 3, 4]  # send order kept
    assert {t for t, _ in inbox} == {2.0}  # one wire latency, shared
    assert stats.messages_sent == 1
    assert stats.payloads_sent == 5
    assert stats.frames_sent == 1
    assert stats.frame_payloads == 5


def test_different_destinations_use_separate_frames(
        sim: Simulator, coalescing_network: Network):
    a = coalescing_network.add_host("a")
    seen = []
    for name in ("b", "c"):
        host = coalescing_network.add_host(name)
        host.set_message_handler(
            lambda m, name=name: seen.append((name, m.payload)))
    a.send("b", 1)
    a.send("c", 2)
    a.send("b", 3)
    sim.run()
    assert sorted(seen) == [("b", 1), ("b", 3), ("c", 2)]
    assert coalescing_network.stats.messages_sent == 2
    assert coalescing_network.stats.frames_sent == 1  # only the b pair


def test_different_instants_use_separate_frames(
        sim: Simulator, coalescing_network: Network):
    a, _b, inbox = two_hosts(coalescing_network)
    a.send("b", "t0")
    sim.schedule_callback(1.0, a.send, "b", "t1")
    sim.run()
    assert inbox == [(2.0, "t0"), (3.0, "t1")]
    assert coalescing_network.stats.messages_sent == 2
    assert coalescing_network.stats.frames_sent == 0


def test_singleton_buffer_delivers_like_a_plain_message(
        sim: Simulator, coalescing_network: Network):
    """One buffered message transmits as a bare Message: same delivery
    time and stats as the uncoalesced path."""
    a, _b, inbox = two_hosts(coalescing_network)
    a.send("b", "solo", size_bytes=77)
    sim.run()
    assert inbox == [(2.0, "solo")]
    stats = coalescing_network.stats
    assert stats.messages_sent == 1
    assert stats.frames_sent == 0
    assert stats.bytes_sent == 77


def test_messages_per_update_helper(sim: Simulator,
                                    coalescing_network: Network):
    a, _b, _inbox = two_hosts(coalescing_network)
    for i in range(8):
        a.send("b", i)
    sim.run()
    assert coalescing_network.stats.messages_per_update(2) == 0.5
    assert coalescing_network.stats.messages_per_update(0) == 0.0


# ----------------------------------------------------------------------
# cost model: one tx occupation, one rx dispatch per frame
# ----------------------------------------------------------------------
def test_frame_occupies_nic_once(sim: Simulator,
                                 coalescing_network: Network):
    """Three messages in one frame pay tx_cost once; a second-instant
    frame queues behind the first (nic_free_at advances per frame)."""
    a, _b, inbox = two_hosts(coalescing_network, tx=0.5)
    for i in range(3):
        a.send("b", i)
    sim.run()
    # One frame: departs at 0.5, +2.0 wire; all three payloads together.
    assert [t for t, _ in inbox] == [2.5, 2.5, 2.5]


def test_frame_charges_rx_cost_once(sim: Simulator,
                                    coalescing_network: Network):
    a, _b, inbox = two_hosts(coalescing_network, rx=0.4)
    for i in range(3):
        a.send("b", i)
    sim.run()
    # One rx occupation for the whole frame: all dispatch at 2.4, in
    # order (uncoalesced messages would stagger at 2.4 / 2.8 / 3.2).
    assert [t for t, _ in inbox] == [2.4, 2.4, 2.4]
    assert [p for _, p in inbox] == [0, 1, 2]


# ----------------------------------------------------------------------
# loss: a dropped frame drops every contained RPC
# ----------------------------------------------------------------------
def test_partitioned_frame_loses_all_payloads(
        sim: Simulator, coalescing_network: Network):
    a, _b, inbox = two_hosts(coalescing_network)
    coalescing_network.partition("a", "b")
    for i in range(4):
        a.send("b", i)
    sim.run()
    assert inbox == []
    stats = coalescing_network.stats
    assert stats.messages_dropped == 1  # one transmission lost
    assert stats.payloads_dropped == 4  # ...containing all four RPCs
    coalescing_network.heal("a", "b")
    a.send("b", "after")
    sim.run()
    assert [p for _, p in inbox] == ["after"]


def test_frame_buffered_before_partition_obeys_partition_at_transmit(
        sim: Simulator, coalescing_network: Network):
    """The race the fault injector can create: sends buffer a frame,
    then the partition lands in the same instant (before the
    instant-end flush).  The link state at *transmit* time governs —
    the already-buffered frame must not slip through."""
    a, _b, inbox = two_hosts(coalescing_network)
    for i in range(3):
        a.send("b", i)                      # buffered, not yet flushed
    coalescing_network.partition("a", "b")  # same instant, post-send
    sim.run()
    assert inbox == []
    stats = coalescing_network.stats
    assert stats.messages_dropped == 1
    assert stats.payloads_dropped == 3


def test_frame_buffered_during_partition_flushed_after_heal_delivers(
        sim: Simulator, coalescing_network: Network):
    """The symmetric race: partitioned when the frame buffers, healed
    before the instant-end flush — transmit-time semantics let it
    through (nothing was dropped yet, so nothing is resurrected)."""
    a, _b, inbox = two_hosts(coalescing_network)
    coalescing_network.partition("a", "b")
    a.send("b", "lucky")
    coalescing_network.heal("a", "b")       # still the same instant
    sim.run()
    assert [p for _, p in inbox] == ["lucky"]
    assert coalescing_network.stats.messages_dropped == 0


def test_healing_does_not_resurrect_dropped_frames(
        sim: Simulator, coalescing_network: Network):
    """Frames transmitted into a partition are gone for good: a later
    heal must not deliver them, only traffic sent after it."""
    a, _b, inbox = two_hosts(coalescing_network)
    coalescing_network.partition("a", "b")
    sim.schedule_callback(1.0, a.send, "b", "lost-1")
    sim.schedule_callback(2.0, a.send, "b", "lost-2")
    sim.schedule_callback(5.0, coalescing_network.heal, "a", "b")
    sim.schedule_callback(6.0, a.send, "b", "after-heal")
    sim.run()
    assert [p for _, p in inbox] == ["after-heal"]
    stats = coalescing_network.stats
    assert stats.messages_dropped == 2      # the two pre-heal frames
    assert stats.payloads_dropped == 2


def test_one_way_fault_partition_races_with_frames(
        sim: Simulator, coalescing_network: Network):
    """Same transmit-time contract through the fault-injection hooks:
    a one-way block applied after the frame buffered still drops it,
    the reverse direction stays open, and a mid-instant heal lets the
    buffered frame through."""
    a = coalescing_network.add_host("a")
    b = coalescing_network.add_host("b")
    seen_a, seen_b = [], []
    a.set_message_handler(lambda m: seen_a.append(m.payload))
    b.set_message_handler(lambda m: seen_b.append(m.payload))
    a.send("b", "blocked")                  # buffered a→b
    b.send("a", "counterflow")              # buffered b→a
    coalescing_network.partition_one_way("a", "b")  # post-send
    sim.run()
    assert seen_b == []                     # obeyed at transmit time
    assert seen_a == ["counterflow"]        # one-way: reverse flows
    a.send("b", "still-blocked")
    coalescing_network.heal_one_way("a", "b")  # same instant, pre-flush
    sim.run()
    assert seen_b == ["still-blocked"]      # healed at transmit time


def test_drop_roll_is_per_frame(sim: Simulator):
    """With drop_rate=0.5 and 100 frames of 4 payloads, payload losses
    come in whole-frame multiples."""
    network = Network(sim, latency=LatencyModel(Fixed(1.0)),
                      drop_rate=0.5, frame_coalescing=True)
    a, _b, inbox = two_hosts(network)
    for wave in range(100):
        sim.schedule_callback(float(wave), _send_burst, a, wave)
    sim.run()
    stats = network.stats
    assert stats.payloads_dropped == 4 * stats.messages_dropped
    assert len(inbox) == 400 - stats.payloads_dropped
    assert 10 < stats.messages_dropped < 90  # ~50 expected


def _send_burst(host, wave: int) -> None:
    for i in range(4):
        host.send("b", (wave, i))


def test_receiver_crash_mid_frame_drops_the_tail(
        sim: Simulator, coalescing_network: Network):
    """A handler that crashes the host while unpacking a frame loses
    the remaining payloads, exactly as separately-sent messages would
    be refused on arrival at a dead host."""
    a = coalescing_network.add_host("a")
    b = coalescing_network.add_host("b")
    seen = []

    def handler(message) -> None:
        seen.append(message.payload)
        if message.payload == "poison":
            b.crash()
    b.set_message_handler(handler)
    for payload in ("ok", "poison", "lost", "lost-too"):
        a.send("b", payload)
    sim.run()
    assert seen == ["ok", "poison"]


def test_gray_filtered_frame_carries_the_size_of_what_it_kept(
        sim: Simulator, coalescing_network: Network):
    """``Frame.size_bytes`` is the sum of the *contained* messages'
    sizes: payloads a gray destination filtered out are not in the
    frame and must not be in its size (they stay in ``bytes_sent`` —
    they were sent)."""
    a, b, inbox = two_hosts(coalescing_network)
    frames = []
    deliver = b._deliver
    b._deliver = lambda arrived: (frames.append(arrived), deliver(arrived))
    coalescing_network.set_gray_host("b", allow=("ping",))
    a.send("b", types.SimpleNamespace(method="ping"), size_bytes=10)
    a.send("b", types.SimpleNamespace(method="record"), size_bytes=1_000)
    a.send("b", types.SimpleNamespace(method="ping"), size_bytes=10)
    sim.run()
    assert [p.method for _, p in inbox] == ["ping", "ping"]
    assert [type(frame) for frame in frames] == [Frame]
    assert len(frames[0].messages) == 2
    assert frames[0].size_bytes == 20
    assert coalescing_network.stats.bytes_sent == 1_020


# ----------------------------------------------------------------------
# crash: pending buffers die with the host
# ----------------------------------------------------------------------
def test_crash_discards_pending_frame_buffer(
        sim: Simulator, coalescing_network: Network):
    """Buffered-but-unflushed messages die with the host: a crash in
    the same instant (before the end-of-instant flush) must not let a
    restarted incarnation transmit its previous life's RPCs."""
    a, _b, inbox = two_hosts(coalescing_network)
    a.send("b", "pre-crash")
    a.crash()
    a.restart()
    a.send("b", "post-restart")
    sim.run()
    assert [p for _, p in inbox] == ["post-restart"]
    assert coalescing_network.stats.payloads_sent == 1


def test_crash_without_restart_flushes_nothing(
        sim: Simulator, coalescing_network: Network):
    a, _b, inbox = two_hosts(coalescing_network)
    a.send("b", "doomed")
    a.crash()
    sim.run()
    assert inbox == []
    assert coalescing_network.stats.messages_sent == 0


def test_in_flight_frame_outlives_sender_crash(
        sim: Simulator, coalescing_network: Network):
    """A frame already on the wire is not recalled by a later sender
    crash — matching per-message semantics."""
    a, _b, inbox = two_hosts(coalescing_network)
    a.send("b", 1)
    a.send("b", 2)
    sim.schedule_callback(1.0, a.crash)  # after the t=0 flush
    sim.run()
    assert [p for _, p in inbox] == [1, 2]


def test_unknown_destination_raises_at_send(
        sim: Simulator, coalescing_network: Network):
    """The coalesced path must surface a bad destination at the call
    site, like the uncoalesced path — not as a KeyError erupting from
    the end-of-instant flush with the sender's stack gone."""
    a = coalescing_network.add_host("a")
    with pytest.raises(KeyError):
        a.send("ghost", "hi")
    sim.run()  # and nothing is left to explode at the flush boundary
