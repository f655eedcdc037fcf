"""Linearizability of the CURP consensus extension (§A.2) under leader
crashes and partitions, checked with the Wing–Gong machinery."""

from __future__ import annotations

import pytest

from repro.consensus import client as consensus_client
from repro.consensus import RaftConfig, RaftCurpClient, RaftNode
from repro.kvstore import Read, Write
from repro.net import Network
from repro.net.latency import LatencyModel
from repro.sim import Fixed, Simulator
from repro.verify import History, check_linearizable


class RaftHistoryClient:
    """Records RaftCurpClient operations into a verify.History."""

    def __init__(self, client: RaftCurpClient, history: History):
        self.client = client
        self.history = history
        self.sim = client.sim

    def write(self, key, value):
        record = self.history.begin(self.client.tracker.client_id,
                                    Write(key, value), self.sim.now)
        try:
            yield from self.client.update(Write(key, value))
        except Exception:
            return  # pending: may or may not have happened
        self.history.complete(record, value, self.sim.now)

    def read(self, key):
        record = self.history.begin(self.client.tracker.client_id,
                                    Read(key), self.sim.now)
        try:
            value = yield from self.client.read(key)
        except Exception:
            return
        self.history.complete(record, value, self.sim.now)
        return value


def build(n=3, seed=0):
    sim = Simulator(seed=seed)
    network = Network(sim, latency=LatencyModel(Fixed(20.0)))
    names = [f"r{i}" for i in range(n)]
    nodes = [RaftNode(network.add_host(name), name, names,
                      config=RaftConfig(curp=True))
             for name in names]
    return sim, network, nodes


def wait_leader(sim, nodes, deadline=300_000.0):
    end = sim.now + deadline
    while sim.now < end:
        sim.run(until=sim.now + 1_000.0)
        leaders = [n for n in nodes
                   if n.role == "leader" and n.serving and n.host.alive]
        if len(leaders) == 1:
            return leaders[0]
    raise AssertionError("no leader")


@pytest.mark.parametrize("seed", [1, 2])
def test_concurrent_consensus_clients_linearizable(seed):
    sim, network, nodes = build(seed=seed)
    wait_leader(sim, nodes)
    history = History()
    keys = ["a", "b"]
    processes = []
    for index in range(3):
        host = network.add_host(f"client{index}")
        client = RaftHistoryClient(
            RaftCurpClient(host, [n.name for n in nodes]), history)

        def script(client=client, index=index):
            rng = sim.rng
            for op_number in range(10):
                key = keys[rng.randrange(len(keys))]
                if rng.random() < 0.5:
                    yield from client.write(key, f"c{index}-{op_number}")
                else:
                    yield from client.read(key)
        processes.append(sim.process(script()))
    deadline = sim.now + 10_000_000.0
    while not all(p.triggered for p in processes):
        if sim.now > deadline or not sim.step():
            break
    check_linearizable(history)


@pytest.mark.parametrize("seed", [4, 5])
def test_consensus_linearizable_across_leader_crash(seed, monkeypatch):
    # clients that outlast the election; the witnesses' §4.5 horizon,
    # derived when the group is built, follows the longer budget
    monkeypatch.setattr(consensus_client, "MAX_ATTEMPTS", 60)
    sim, network, nodes = build(seed=seed)
    wait_leader(sim, nodes)
    history = History()
    processes = []
    for index in range(2):
        host = network.add_host(f"client{index}")
        client = RaftHistoryClient(
            RaftCurpClient(host, [n.name for n in nodes]), history)

        def script(client=client, index=index):
            rng = sim.rng
            for op_number in range(10):
                key = ["a", "b"][rng.randrange(2)]
                if rng.random() < 0.6:
                    yield from client.write(key, f"c{index}-{op_number}")
                else:
                    yield from client.read(key)
                yield sim.timeout(rng.uniform(0, 300.0))
        processes.append(sim.process(script()))

    def chaos():
        yield sim.timeout(1_500.0)
        leader = next((n for n in nodes
                       if n.role == "leader" and n.host.alive), None)
        if leader is not None:
            leader.host.crash()
    chaos_process = sim.process(chaos())
    deadline = sim.now + 30_000_000.0
    while not all(p.triggered for p in processes + [chaos_process]):
        if sim.now > deadline or not sim.step():
            break
    assert all(p.triggered for p in processes), "clients stuck"
    completed = sum(1 for r in history.records if not r.is_pending)
    assert completed >= 12  # most ops survived the crash window
    check_linearizable(history)
