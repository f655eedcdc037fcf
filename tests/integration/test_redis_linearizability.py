"""Linearizability of the CURP-Redis instantiation (§5.4).

Same methodology as the kvstore suite: concurrent clients, crash +
recovery (AOF replay + witness replay), Wing–Gong check.  The
non-durable baseline is the negative control: it loses acknowledged
SETs on a crash.
"""

from __future__ import annotations

import pytest

from repro.harness.redis import build_redis_cluster
from repro.kvstore import Increment, Read, Write
from repro.redislike.server import DurabilityMode
from repro.sim.distributions import Fixed
from repro.verify import (
    History,
    LinearizabilityError,
    check_linearizable,
)


class RedisHistoryClient:
    """Records SET/GET/INCR operations into a verify.History."""

    def __init__(self, client, history: History):
        self.client = client
        self.history = history
        self.sim = client.sim

    def set(self, key, value):
        record = self.history.begin(self.client.tracker.client_id,
                                    Write(key, value), self.sim.now)
        outcome = yield from self.client.set(key, value)
        self.history.complete(record, value, self.sim.now)
        return outcome

    def get(self, key):
        record = self.history.begin(self.client.tracker.client_id,
                                    Read(key), self.sim.now)
        outcome = yield from self.client.get(key)
        self.history.complete(record, outcome.result, self.sim.now)
        return outcome

    def incr(self, key):
        record = self.history.begin(self.client.tracker.client_id,
                                    Increment(key, 1), self.sim.now)
        outcome = yield from self.client.incr(key)
        self.history.complete(record, int(outcome.result), self.sim.now)
        return outcome


@pytest.mark.parametrize("seed", [1, 2])
def test_concurrent_redis_clients_linearizable(seed):
    cluster = build_redis_cluster(DurabilityMode.CURP, n_witnesses=2,
                                  fsync_duration=Fixed(70.0), seed=seed,
                                  curp_fsync_batch=5)
    history = History()
    keys = ["a", "b"]
    processes = []
    for index in range(3):
        client = RedisHistoryClient(
            cluster.new_client(collect_outcomes=False), history)

        def script(client=client, index=index):
            rng = cluster.sim.rng
            for op_number in range(15):
                key = keys[rng.randrange(len(keys))]
                if rng.random() < 0.5:
                    yield from client.set(key, f"c{index}-{op_number}")
                else:
                    yield from client.get(key)
        processes.append(client.client.host.spawn(script(), name="load"))
    cluster.run(cluster.sim.all_of(processes), timeout=1e9)
    check_linearizable(history)


def test_redis_crash_recovery_preserves_history():
    """Acknowledged fast-path SETs + crash + AOF/witness recovery: the
    full history (including post-recovery reads) is linearizable."""
    cluster = build_redis_cluster(DurabilityMode.CURP, n_witnesses=1,
                                  fsync_duration=Fixed(70.0),
                                  curp_fsync_batch=100)
    history = History()
    client = RedisHistoryClient(cluster.new_client(collect_outcomes=False),
                                history)

    def phase1():
        for i in range(6):
            yield from client.set(f"k{i}", f"v{i}")
    cluster.run(cluster.sim.process(phase1()), timeout=1e9)
    assert cluster.server.aof.durable_seq == 0  # all speculative
    cluster.server.host.crash()
    cluster.server.host.restart()
    cluster.run(cluster.sim.process(cluster.server.recover()), timeout=1e9)

    def phase2():
        for i in range(6):
            yield from client.get(f"k{i}")
    cluster.run(cluster.sim.process(phase2()), timeout=1e9)
    check_linearizable(history)


def test_redis_increments_exactly_once_across_crash():
    cluster = build_redis_cluster(DurabilityMode.CURP, n_witnesses=1,
                                  fsync_duration=Fixed(70.0),
                                  curp_fsync_batch=3)
    history = History()
    client = RedisHistoryClient(cluster.new_client(collect_outcomes=False),
                                history)

    def load():
        for _ in range(7):
            yield from client.incr("counter")
    cluster.run(cluster.sim.process(load()), timeout=1e9)
    cluster.server.host.crash()
    cluster.server.host.restart()
    cluster.run(cluster.sim.process(cluster.server.recover()), timeout=1e9)

    def verify():
        yield from client.get("counter")
    cluster.run(cluster.sim.process(verify()), timeout=1e9)
    # GET returns a string; normalize for the counter model.
    for record in history.records:
        if record.kind == "read" and record.result is not None:
            record.result = int(record.result)
    check_linearizable(history)


def test_nondurable_redis_negative_control():
    """Stock Redis loses acknowledged writes on crash — the checker
    must reject the history (and does not for CURP, above)."""
    cluster = build_redis_cluster(DurabilityMode.NONDURABLE,
                                  fsync_duration=Fixed(70.0))
    history = History()
    client = RedisHistoryClient(cluster.new_client(collect_outcomes=False),
                                history)

    def phase1():
        yield from client.set("x", "precious")
    cluster.run(cluster.sim.process(phase1()), timeout=1e9)
    cluster.server.host.crash()
    cluster.server.host.restart()
    cluster.run(cluster.sim.process(cluster.server.recover()), timeout=1e9)

    def phase2():
        yield from client.get("x")
    cluster.run(cluster.sim.process(phase2()), timeout=1e9)
    with pytest.raises(LinearizabilityError):
        check_linearizable(history)
