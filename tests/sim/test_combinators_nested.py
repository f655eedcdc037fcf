"""Nested event combinators and cross-cutting sim properties."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import AllOf, AnyOf, Simulator


def test_any_of_all_of_nesting(sim: Simulator):
    """Race two groups: the faster group's AllOf wins the AnyOf."""
    fast_group = AllOf(sim, [sim.timeout(1.0), sim.timeout(3.0)])
    slow_group = AllOf(sim, [sim.timeout(2.0), sim.timeout(10.0)])
    race = AnyOf(sim, [fast_group, slow_group])
    sim.run(race)
    assert sim.now == 3.0
    assert fast_group in race.value


def test_all_of_of_any_ofs(sim: Simulator):
    first = AnyOf(sim, [sim.timeout(5.0), sim.timeout(1.0)])
    second = AnyOf(sim, [sim.timeout(7.0), sim.timeout(2.0)])
    both = AllOf(sim, [first, second])
    sim.run(both)
    assert sim.now == 2.0


def test_process_waiting_on_nested_combinator(sim: Simulator):
    def worker():
        groups = AllOf(sim, [
            AnyOf(sim, [sim.timeout(4.0, "a"), sim.timeout(9.0, "b")]),
            sim.timeout(6.0, "c"),
        ])
        results = yield groups
        return len(results)
    assert sim.run(sim.process(worker())) == 2
    assert sim.now == 6.0


@given(st.lists(st.floats(min_value=0.1, max_value=100.0), min_size=1,
                max_size=8))
@settings(max_examples=60, deadline=None)
def test_property_all_of_finishes_at_max(delays):
    sim = Simulator()
    combo = AllOf(sim, [sim.timeout(d) for d in delays])
    sim.run(combo)
    assert sim.now == pytest.approx(max(delays))


@given(st.lists(st.floats(min_value=0.1, max_value=100.0), min_size=1,
                max_size=8))
@settings(max_examples=60, deadline=None)
def test_property_any_of_finishes_at_min(delays):
    sim = Simulator()
    combo = AnyOf(sim, [sim.timeout(d) for d in delays])
    sim.run(combo)
    assert sim.now == pytest.approx(min(delays))


@given(st.integers(0, 2 ** 31), st.integers(2, 30))
@settings(max_examples=30, deadline=None)
def test_property_message_conservation(seed, n_messages):
    """Every sent message is delivered or accounted as dropped."""
    from repro.net import Network
    from repro.net.latency import LatencyModel
    from repro.sim.distributions import Uniform
    sim = Simulator(seed=seed)
    network = Network(sim, latency=LatencyModel(Uniform(0.5, 5.0)),
                      drop_rate=0.3)
    sender = network.add_host("sender")
    receiver = network.add_host("receiver")
    received = []
    receiver.set_message_handler(received.append)
    for i in range(n_messages):
        sender.send("receiver", i)
    sim.run()
    assert len(received) + network.stats.messages_dropped == n_messages
    assert network.stats.messages_sent == n_messages
