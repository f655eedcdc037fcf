"""Unit tests for the AOF and its fsyncs on the host's disk."""

from __future__ import annotations

import pytest

from repro.net import Network
from repro.net.latency import LatencyModel
from repro.redislike.aof import AppendOnlyFile
from repro.sim import Fixed, Simulator


@pytest.fixture
def host(sim: Simulator):
    network = Network(sim, latency=LatencyModel(Fixed(1.0)))
    return network.add_host("server")


def build_aof(host, fsync_duration=70.0):
    return AppendOnlyFile(host, Fixed(fsync_duration))


def test_append_assigns_sequences(sim, host):
    aof = build_aof(host)
    assert aof.append("cmd1") == 1
    assert aof.append("cmd2") == 2
    assert aof.end_seq == 2
    assert aof.durable_seq == 0


def test_request_durable_runs_one_fsync(sim, host):
    aof = build_aof(host)
    aof.append("cmd1")
    done = aof.request_durable(1)
    sim.run(done)
    assert sim.now == 70.0
    assert aof.durable_seq == 1
    assert aof.fsyncs == 1


def test_one_fsync_covers_everything_appended(sim, host):
    """Entries appended before the fsync starts ride along."""
    aof = build_aof(host)
    for i in range(5):
        aof.append(f"cmd{i}")
    waits = [aof.request_durable(i + 1) for i in range(5)]
    sim.run(sim.all_of(waits))
    assert aof.fsyncs == 1
    assert aof.durable_seq == 5


def test_entries_during_fsync_wait_for_next(sim, host):
    aof = build_aof(host)
    aof.append("first")
    first = aof.request_durable(1)
    # Mid-fsync, append another and ask for durability.
    def late_append():
        yield sim.timeout(30.0)
        aof.append("second")
        done = aof.request_durable(2)
        yield done
        return sim.now
    process = sim.process(late_append())
    assert sim.run(process) == 140.0  # second fsync after the first
    assert aof.fsyncs == 2


def test_already_durable_resolves_immediately(sim, host):
    aof = build_aof(host)
    aof.append("cmd")
    sim.run(aof.request_durable(1))
    done = aof.request_durable(1)
    assert done.triggered
    assert aof.fsyncs == 1


def test_crash_truncates_unsynced_tail(sim, host):
    aof = build_aof(host)
    aof.append("durable-cmd")
    sim.run(aof.request_durable(1))
    aof.append("volatile-cmd")
    host.crash()
    assert aof.end_seq == 1
    assert [cmd for _seq, cmd, _rpc, _res in aof.durable_entries()] \
        == ["durable-cmd"]


def test_on_durable_callbacks_fire(sim, host):
    aof = build_aof(host)
    seen = []
    aof.on_durable.append(lambda seq: seen.append(seq))
    aof.append("a")
    aof.append("b")
    sim.run(aof.request_durable(2))
    assert seen == [2]


def test_two_fsyncs_on_one_host_disk_serialize(sim, host):
    """The host has one disk: a second file's fsync queues behind the
    first's instead of running beside it."""
    first, second = build_aof(host, 50.0), build_aof(host, 50.0)
    finish = []
    for aof in (first, second):
        aof.append("cmd")
        aof.request_durable(1).add_callback(
            lambda _event: finish.append(sim.now))
    sim.run()
    assert finish == [50.0, 100.0]
    assert host.disk.busy_time == 100.0


def test_crash_mid_fsync_makes_nothing_durable(sim, host):
    """The fsync in flight dies with the host: its completion marks
    nothing durable and runs no ``on_durable``, and after the restart
    a new request runs its own fsync, queued behind what is left of
    the aborted one on the disk."""
    aof = build_aof(host)
    seen = []
    aof.on_durable.append(seen.append)
    aof.append("lost")
    lost = aof.request_durable(1)
    sim.run(until=30.0)
    host.crash()
    host.restart()
    aof.append("kept")
    done = aof.request_durable(1)
    sim.run(until=100.0)  # past the aborted fsync's completion at 70
    assert (aof.durable_seq, seen, aof.fsyncs) == (0, [], 2)
    assert not lost.triggered and not done.triggered
    sim.run(done)
    assert sim.now == 140.0  # 40 µs left of the aborted IO, then its own
    assert (aof.durable_seq, seen) == (1, [1])
    assert [cmd for _seq, cmd, _rpc, _res in aof.durable_entries()] \
        == ["kept"]


def test_result_rides_entries(sim, host):
    aof = build_aof(host)
    aof.append("cmd", rpc_id="rpc-1", result="OK")
    sim.run(aof.request_durable(1))
    seq, cmd, rpc_id, result = aof.durable_entries()[0]
    assert (seq, cmd, rpc_id, result) == (1, "cmd", "rpc-1", "OK")
