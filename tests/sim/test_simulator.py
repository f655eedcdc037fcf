"""Unit tests for the simulator core."""

from __future__ import annotations

import pytest

from repro.sim import Simulator


def test_time_starts_at_zero():
    assert Simulator().now == 0.0


def test_run_until_time_advances_clock(sim: Simulator):
    sim.run(until=100.0)
    assert sim.now == 100.0


def test_run_until_past_time_rejected(sim: Simulator):
    sim.run(until=10.0)
    with pytest.raises(ValueError):
        sim.run(until=5.0)


def test_run_until_event_returns_value(sim: Simulator):
    event = sim.timeout(4.0, value="v")
    assert sim.run(event) == "v"
    assert sim.now == 4.0


def test_run_until_event_deadlock_detected(sim: Simulator):
    never = sim.event()
    with pytest.raises(RuntimeError, match="deadlock"):
        sim.run(never)


def test_same_time_events_fifo(sim: Simulator):
    order = []
    for tag in ("a", "b", "c"):
        sim.schedule_callback(5.0, lambda t=tag: order.append(t))
    sim.run()
    assert order == ["a", "b", "c"]


def test_events_before_deadline_processed(sim: Simulator):
    hits = []
    sim.schedule_callback(3.0, lambda: hits.append(3))
    sim.schedule_callback(7.0, lambda: hits.append(7))
    sim.run(until=5.0)
    assert hits == [3]
    sim.run(until=10.0)
    assert hits == [3, 7]


def test_negative_delay_rejected(sim: Simulator):
    with pytest.raises(ValueError):
        sim.schedule_callback(-1.0, lambda: None)


def test_nan_times_rejected(sim: Simulator):
    """NaN fails ``delay < 0`` and would reach the heap, where a NaN key
    compares false against everything and silently breaks the order."""
    nan = float("nan")
    with pytest.raises(ValueError):
        sim.schedule_callback(nan, lambda: None)
    with pytest.raises(ValueError):
        sim.schedule_at(nan, lambda: None)
    with pytest.raises(ValueError):
        sim.timeout(nan)
    assert sim.queue_length == 0


def test_schedule_at_runs_at_the_absolute_instant(sim: Simulator):
    hits = []
    sim.run(until=0.1)
    at = sim.now + 0.7  # the caller's float, kept bit for bit
    sim.schedule_at(at, lambda tag: hits.append((tag, sim.now)), "later")
    sim.schedule_at(sim.now, lambda tag: hits.append((tag, sim.now)), "now")
    sim.schedule_callback(0.0, lambda: hits.append(("fifo", sim.now)))
    sim.run()
    assert hits == [("now", 0.1), ("fifo", 0.1), ("later", at)]
    assert sim.processed_events == 3


def test_schedule_at_orders_with_schedule_callback_by_sequence(
        sim: Simulator):
    order = []
    sim.schedule_callback(5.0, order.append, "first")
    sim.schedule_at(5.0, order.append, "second")
    sim.schedule_callback(5.0, order.append, "third")
    sim.run()
    assert order == ["first", "second", "third"]


def test_schedule_at_rejects_the_past(sim: Simulator):
    sim.run(until=10.0)
    with pytest.raises(ValueError):
        sim.schedule_at(9.0, lambda: None)
    assert sim.queue_length == 0


def test_determinism_same_seed():
    def trace(seed: int) -> list[float]:
        simulator = Simulator(seed=seed)
        samples = []
        def proc():
            for _ in range(20):
                yield simulator.timeout(simulator.rng.uniform(0, 10))
                samples.append(simulator.now)
        simulator.process(proc())
        simulator.run()
        return samples
    assert trace(7) == trace(7)
    assert trace(7) != trace(8)


def test_max_steps_guard(sim: Simulator):
    def forever():
        while True:
            yield sim.timeout(1.0)
    sim.process(forever())
    with pytest.raises(RuntimeError, match="max_steps"):
        sim.run(max_steps=100)


def test_processed_events_counter(sim: Simulator):
    sim.schedule_callback(1.0, lambda: None)
    sim.schedule_callback(2.0, lambda: None)
    sim.run()
    assert sim.processed_events == 2


# ----------------------------------------------------------------------
# one instant, two loops: run() and step() dispatch alike
# ----------------------------------------------------------------------
def drain(sim: Simulator, loop: str) -> None:
    if loop == "run":
        sim.run()
    else:
        while sim.step():
            pass


LOOPS = ["run", "step"]


@pytest.mark.parametrize("loop", LOOPS)
def test_same_instant_heap_entries_merge_with_zero_delay_work_by_sequence(
        sim: Simulator, loop: str):
    """An entry already on the heap for this instant was scheduled
    before the zero-delay work the instant's first entry spawns, so it
    runs first."""
    order = []

    def at_five() -> None:
        order.append("first")
        sim.schedule_callback(0.0, order.append, "spawned")
    sim.schedule_callback(5.0, at_five)
    sim.schedule_callback(5.0, order.append, "second")
    sim.schedule_callback(6.0, order.append, "later")
    drain(sim, loop)
    assert order == ["first", "second", "spawned", "later"]


@pytest.mark.parametrize("loop", LOOPS)
def test_zero_delay_chains_drain_before_time_moves(sim: Simulator,
                                                   loop: str):
    order = []

    def link(n: int) -> None:
        order.append((n, sim.now))
        if n < 3:
            sim.schedule_callback(0.0, link, n + 1)
    sim.schedule_callback(3.0, order.append, ("future", 3.0))
    sim.schedule_callback(1.0, link, 0)
    drain(sim, loop)
    assert order == [(0, 1.0), (1, 1.0), (2, 1.0), (3, 1.0),
                     ("future", 3.0)]
    assert sim.processed_events == 5


@pytest.mark.parametrize("loop", LOOPS)
def test_an_entry_that_raises_is_counted_and_the_rest_stay_queued(
        sim: Simulator, loop: str):
    def boom() -> None:
        raise KeyError("boom")
    sim.schedule_callback(1.0, boom)
    sim.schedule_callback(1.0, lambda: None)
    with pytest.raises(KeyError):
        drain(sim, loop)
    assert sim.processed_events == 1
    assert sim.queue_length == 1
    drain(sim, loop)
    assert sim.processed_events == 2


def test_max_steps_catches_a_self_rearming_zero_delay_callback(
        sim: Simulator):
    """Work that keeps re-arming itself at the current instant never
    lets time move; the runaway backstop must trip, not hang run()."""
    def rearm() -> None:
        sim.schedule_callback(0.0, rearm)
    sim.schedule_callback(0.0, rearm)
    with pytest.raises(RuntimeError, match="max_steps"):
        sim.run(max_steps=100)
    assert sim.processed_events == 100
    assert sim.now == 0.0


def test_run_until_deadline_dispatches_the_whole_deadline_instant(
        sim: Simulator):
    order = []

    def at_five() -> None:
        order.append("first")
        sim.schedule_callback(0.0, order.append, "spawned")
    sim.schedule_callback(5.0, at_five)
    sim.schedule_callback(5.0, order.append, "second")
    sim.schedule_callback(5.5, order.append, "after")
    sim.run(until=5.0)
    assert order == ["first", "second", "spawned"]
    assert sim.now == 5.0
    assert sim.queue_length == 1


def test_step_on_an_empty_queue_returns_false_and_keeps_the_clock(
        sim: Simulator):
    sim.schedule_callback(2.5, lambda: None)
    assert sim.step()
    assert sim.now == 2.5
    assert not sim.step()
    assert sim.now == 2.5
    assert sim.processed_events == 1
