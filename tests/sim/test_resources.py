"""Unit tests for counted resources and the per-host virtual disk."""

from __future__ import annotations

import pytest

from repro.sim import Interrupt, Resource, Simulator
from repro.sim.resources import VirtualDisk


def test_grants_up_to_capacity_immediately(sim: Simulator):
    resource = Resource(sim, capacity=2)
    assert resource.request().triggered
    assert resource.request().triggered
    third = resource.request()
    assert not third.triggered
    assert resource.queue_length == 1


def test_release_hands_to_waiter_fifo(sim: Simulator):
    resource = Resource(sim, capacity=1)
    resource.request()
    first_waiter = resource.request()
    second_waiter = resource.request()
    resource.release()
    sim.run()
    assert first_waiter.triggered
    assert not second_waiter.triggered


def test_release_without_request_raises(sim: Simulator):
    resource = Resource(sim, capacity=1)
    with pytest.raises(RuntimeError):
        resource.release()


def hold(sim: Simulator, resource: Resource, duration: float, done: list):
    """A holder: wait for a unit, keep it ``duration`` µs, release."""
    yield resource.request()
    yield sim.timeout(duration)
    resource.release()
    done.append(sim.now)


def test_request_release_serializes_holders(sim: Simulator):
    resource = Resource(sim, capacity=1, name="nic")
    finish_times = []
    for _ in range(3):
        sim.process(hold(sim, resource, 10.0, finish_times))
    sim.run()
    assert finish_times == [10.0, 20.0, 30.0]
    assert resource.in_use == 0


def test_use_releases_on_interrupt(sim: Simulator):
    """A crashed holder must not leak the resource."""
    resource = Resource(sim, capacity=1)
    def holder():
        try:
            yield from resource.use(100.0)
        except Interrupt:
            pass
    process = sim.process(holder())
    sim.schedule_callback(5.0, lambda: process.interrupt("crash"))
    sim.run()
    assert resource.in_use == 0
    # And a new user can acquire it.
    done = []
    def next_user():
        yield from resource.use(1.0)
        done.append(True)
    sim.process(next_user())
    sim.run()
    assert done == [True]


def test_capacity_validation(sim: Simulator):
    with pytest.raises(ValueError):
        Resource(sim, capacity=0)


def test_parallel_capacity_two(sim: Simulator):
    resource = Resource(sim, capacity=2)
    finish_times = []
    for _ in range(4):
        sim.process(hold(sim, resource, 10.0, finish_times))
    sim.run()
    assert finish_times == [10.0, 10.0, 20.0, 20.0]


def test_virtual_disk_serializes_charges():
    sim = Simulator(seed=0)
    disk = VirtualDisk(sim)
    assert disk.charge(0.0) == 0.0  # free when disabled
    assert disk.charge(10.0) == 10.0
    # queued behind the first IO: 10 remaining + 5 of its own
    assert disk.charge(5.0) == 15.0
    assert disk.busy_time == 15.0
    sim.schedule_callback(100.0, lambda *args: None, (), None, 0)
    sim.run()
    # after the disk drained, a new charge pays only its own cost
    assert disk.charge(2.0) == 2.0
