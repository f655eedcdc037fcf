"""The delivery contract: a message handler is called with the payload
a peer passed to ``Host.send`` — the object itself — and a
:class:`~repro.net.message.Message` envelope exists only for the
network's taps and fault checks (``Network._admit``)."""

from __future__ import annotations

import random

import pytest

import repro.net.host
from repro.net import Network
from repro.net.faults import LinkProfile
from repro.net.message import Message
from repro.sim import Simulator


def two_hosts(network: Network, rx_cost: float = 0.0):
    a = network.add_host("a")
    b = network.add_host("b", rx_cost=rx_cost)
    inbox = []
    b.set_message_handler(inbox.append)
    return a, b, inbox


@pytest.mark.parametrize("rx_cost", [0.0, 0.5])
def test_handler_receives_the_sent_payload_itself(
        sim: Simulator, network: Network, rx_cost: float):
    a, _b, inbox = two_hosts(network, rx_cost)
    first, second = object(), {"frame": 2}
    a.send("b", first)
    a.send("b", second)         # queues behind the first on the RX path
    sim.run()
    assert len(inbox) == 2
    assert inbox[0] is first and inbox[1] is second


def test_tap_sees_a_full_message(sim: Simulator, network: Network):
    a, _b, inbox = two_hosts(network)
    tapped = []
    network.taps.append(tapped.append)
    payload = object()
    sim.run(until=3.0)
    a.send("b", payload, size_bytes=321)
    sim.run()
    [message] = tapped
    assert isinstance(message, Message)
    assert (message.src, message.dst, message.size_bytes,
            message.sent_at) == ("a", "b", 321, 3.0)
    assert message.payload is payload
    assert inbox == [payload]   # the handler still gets the payload


@pytest.fixture
def counted_messages(monkeypatch):
    """Count every ``Message`` that ``Host.send`` builds."""
    built = []

    class CountedMessage(Message):
        __slots__ = ()

        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self)
    monkeypatch.setattr(repro.net.host, "Message", CountedMessage)
    return built


def test_unguarded_send_builds_no_message(sim: Simulator, network: Network,
                                          counted_messages):
    a, b, inbox = two_hosts(network)
    for i in range(5):
        a.send("b", i)
    b.send("a", "back")
    sim.run()
    assert inbox == [0, 1, 2, 3, 4]
    assert counted_messages == []


def test_guards_and_taps_each_build_the_envelope(
        sim: Simulator, network: Network, counted_messages):
    a, _b, inbox = two_hosts(network)
    network.partition("a", "b")
    a.send("b", "blocked")
    network.heal("a", "b")
    network.drop_rate = 0.5
    a.send("b", "maybe")
    network.drop_rate = 0.0
    network.taps.append(lambda message: None)
    a.send("b", "tapped")
    sim.run()
    assert [m.payload for m in counted_messages] == \
        ["blocked", "maybe", "tapped"]
    assert inbox[-1] == "tapped"


def test_gray_link_duplicate_delivers_the_same_payload_twice(
        sim: Simulator, network: Network):
    """Both deliveries hand over the one sent object; an RPC frame
    delivered twice still gets reply state per delivery, because the
    transport copies it before binding (``tests/rpc/test_transport.py``,
    ``test_duplicated_request_is_handled_twice_with_its_own_reply_state``)."""
    a, _b, inbox = two_hosts(network)
    network.fault_rng = random.Random(7)
    network.set_link_fault("a", "b",
                           LinkProfile(duplicate_rate=1.0, duplicate_lag=3.0))
    payload = object()
    a.send("b", payload)
    sim.run()
    assert len(inbox) == 2
    assert inbox[0] is payload and inbox[1] is payload

