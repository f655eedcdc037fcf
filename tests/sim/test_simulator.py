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
# end-of-instant hooks (the frame-coalescing flush boundary)
# ----------------------------------------------------------------------
def test_instant_hook_runs_after_now_queue_before_time_advances(
        sim: Simulator):
    order = []
    sim.schedule_callback(0.0, order.append, "entry-1")
    sim.at_instant_end(lambda: order.append(("hook", sim.now)))
    sim.schedule_callback(0.0, order.append, "entry-2")
    sim.schedule_callback(5.0, order.append, "future")
    sim.run()
    assert order == ["entry-1", "entry-2", ("hook", 0.0), "future"]


def test_instant_hook_runs_after_same_time_heap_entries(sim: Simulator):
    """Heap entries at the hook's instant are part of the instant: the
    hook must wait for them even though they arrived via the heap."""
    order = []

    def at_five() -> None:
        order.append("first")
        sim.at_instant_end(lambda: order.append(("hook", sim.now)))
    sim.schedule_callback(5.0, at_five)
    sim.schedule_callback(5.0, order.append, "second")
    sim.schedule_callback(6.0, order.append, "later")
    sim.run()
    assert order == ["first", "second", ("hook", 5.0), "later"]


def test_instant_hook_chains_drain_before_time_moves(sim: Simulator):
    """A hook may enqueue same-instant work and further hooks; all of
    it runs before the clock advances."""
    order = []

    def hook_one() -> None:
        order.append("hook-one")
        sim.schedule_callback(0.0, order.append, "spawned-entry")
        sim.at_instant_end(lambda: order.append("hook-two"))
    sim.at_instant_end(hook_one)
    sim.schedule_callback(3.0, order.append, "future")
    sim.run()
    assert order == ["hook-one", "spawned-entry", "hook-two", "future"]


def test_instant_hooks_carry_args_and_do_not_count_as_events(
        sim: Simulator):
    seen = []
    sim.at_instant_end(seen.append, "x")
    sim.schedule_callback(0.0, lambda: None)
    sim.run()
    assert seen == ["x"]
    assert sim.processed_events == 1  # the callback only, not the hook


def test_step_drains_instant_hooks(sim: Simulator):
    order = []
    sim.at_instant_end(order.append, "hook")
    sim.schedule_callback(1.0, order.append, "entry")
    while sim.step():
        pass
    assert order == ["hook", "entry"]


def test_run_until_deadline_flushes_hooks_at_deadline(sim: Simulator):
    order = []
    sim.schedule_callback(5.0,
                          lambda: sim.at_instant_end(order.append, "hook"))
    sim.run(until=5.0)
    assert order == ["hook"]
    assert sim.now == 5.0


def test_max_steps_catches_self_rearming_instant_hook(sim: Simulator):
    """End-of-instant hooks consume max_steps budget: a hook that keeps
    re-arming itself must trip the runaway backstop, not hang run()."""
    def rearm() -> None:
        sim.at_instant_end(rearm)
    sim.at_instant_end(rearm)
    with pytest.raises(RuntimeError, match="max_steps"):
        sim.run(max_steps=100)
    assert sim.processed_events == 0  # hooks never count as events
