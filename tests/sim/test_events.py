"""Unit tests for sim events and combinators."""

from __future__ import annotations

import pytest

from repro.sim import AllOf, AnyOf, EventFailed, QuorumEvent, Simulator


def test_event_starts_pending(sim: Simulator):
    event = sim.event()
    assert not event.triggered
    with pytest.raises(RuntimeError):
        _ = event.value


def test_succeed_carries_value(sim: Simulator):
    event = sim.event()
    event.succeed("hello")
    assert event.triggered and event.ok
    assert event.value == "hello"


def test_event_cannot_trigger_twice(sim: Simulator):
    event = sim.event()
    event.succeed()
    with pytest.raises(RuntimeError):
        event.succeed()
    with pytest.raises(RuntimeError):
        event.fail(ValueError("x"))


def test_fail_requires_exception(sim: Simulator):
    event = sim.event()
    with pytest.raises(TypeError):
        event.fail("not an exception")  # type: ignore[arg-type]


def test_failed_event_value_raises(sim: Simulator):
    event = sim.event()
    event.fail(ValueError("boom"))
    assert event.triggered and not event.ok
    with pytest.raises(ValueError):
        _ = event.value


def test_callbacks_run_at_trigger_time(sim: Simulator):
    event = sim.event()
    seen = []
    event.add_callback(lambda e: seen.append(sim.now))
    sim.schedule_callback(5.0, lambda: event.succeed())
    sim.run()
    assert seen == [5.0]


def test_callback_after_trigger_still_fires(sim: Simulator):
    event = sim.event()
    event.succeed(7)
    seen = []
    event.add_callback(lambda e: seen.append(e.value))
    sim.run()
    assert seen == [7]


def test_timeout_fires_at_deadline(sim: Simulator):
    times = []
    sim.timeout(3.0).add_callback(lambda e: times.append(sim.now))
    sim.timeout(1.0).add_callback(lambda e: times.append(sim.now))
    sim.run()
    assert times == [1.0, 3.0]


def test_timeout_value(sim: Simulator):
    event = sim.timeout(1.0, value="done")
    sim.run()
    assert event.value == "done"


def test_negative_timeout_rejected(sim: Simulator):
    with pytest.raises(ValueError):
        sim.timeout(-1.0)
    with pytest.raises(ValueError):
        sim.timeout(float("nan"))
    assert sim.queue_length == 0


def test_all_of_waits_for_every_child(sim: Simulator):
    a = sim.timeout(1.0, value="a")
    b = sim.timeout(5.0, value="b")
    combo = AllOf(sim, [a, b])
    sim.run(combo)
    assert sim.now == 5.0
    assert combo.value == {a: "a", b: "b"}


def test_all_of_empty_triggers_immediately(sim: Simulator):
    combo = AllOf(sim, [])
    assert combo.triggered
    assert combo.value == {}


def test_all_of_fails_fast(sim: Simulator):
    a = sim.event()
    b = sim.timeout(100.0)
    combo = AllOf(sim, [a, b])
    sim.schedule_callback(1.0, lambda: a.fail(ValueError("dead")))
    with pytest.raises(ValueError):
        sim.run(combo)
    assert sim.now == 1.0


def test_any_of_takes_first(sim: Simulator):
    a = sim.timeout(2.0, value="fast")
    b = sim.timeout(9.0, value="slow")
    combo = AnyOf(sim, [a, b])
    sim.run(combo)
    assert sim.now == 2.0
    assert combo.value[a] == "fast"
    assert b not in combo.value


def test_any_of_with_already_triggered_child(sim: Simulator):
    a = sim.event()
    a.succeed("pre")
    combo = AnyOf(sim, [a, sim.timeout(50.0)])
    sim.run(combo)
    assert combo.value[a] == "pre"
    assert sim.now == 0.0


def test_event_failed_importable():
    assert issubclass(EventFailed, Exception)


# ----------------------------------------------------------------------
# QuorumEvent — the hot-path join (and Event.when_done beneath it)
# ----------------------------------------------------------------------
def test_when_done_carries_args(sim: Simulator):
    seen = []
    event = sim.timeout(3.0, value="v")
    event.when_done(lambda e, tag, n: seen.append((e.value, tag, n)),
                    "x", 7)
    sim.run()
    assert seen == [("v", "x", 7)]


def test_when_done_after_dispatch_delivers_at_same_time(sim: Simulator):
    seen = []
    event = sim.timeout(3.0)
    event.add_callback(
        lambda e: e.when_done(lambda ev, tag: seen.append(tag), "late"))
    sim.run()
    assert seen == ["late"]
    assert sim.now == 3.0


def test_quorum_child_result_positional(sim: Simulator):
    quorum = QuorumEvent(sim, 3)
    quorum.child_result(1, "b")
    quorum.child_result(0, "a")
    assert not quorum.triggered
    quorum.child_result(2, "c")
    assert quorum.triggered
    assert quorum.value == ["a", "b", "c"]


def test_quorum_zero_total_succeeds_immediately(sim: Simulator):
    quorum = QuorumEvent(sim, 0)
    assert quorum.triggered
    assert quorum.value == []


def test_quorum_need_less_than_total(sim: Simulator):
    quorum = QuorumEvent(sim, 3, need=2)
    quorum.child_result(0, "a")
    quorum.child_result(2, "c")
    assert quorum.triggered
    assert quorum.value == ["a", None, "c"]
    # Late reporters are ignored: the results list is frozen.
    quorum.child_result(1, "b")
    assert quorum.value == ["a", None, "c"]


def test_quorum_error_lands_in_results(sim: Simulator):
    quorum = QuorumEvent(sim, 2)
    boom = ValueError("boom")
    quorum.child_result(0, None, boom)
    quorum.child_result(1, "ok")
    assert quorum.ok
    assert quorum.value[0] is boom
    assert quorum.value[1] == "ok"


def test_quorum_fail_fast_mirrors_allof(sim: Simulator):
    quorum = QuorumEvent(sim, 2, fail_fast=True)
    quorum.child_result(0, None, ValueError("dead"))
    assert quorum.triggered and not quorum.ok
    with pytest.raises(ValueError):
        _ = quorum.value
    # Remaining children are ignored, as with AllOf's fail-fast.
    quorum.child_result(1, "late")


def test_quorum_validates_counts(sim: Simulator):
    with pytest.raises(ValueError):
        QuorumEvent(sim, -1)
    with pytest.raises(ValueError):
        QuorumEvent(sim, 2, need=3)
