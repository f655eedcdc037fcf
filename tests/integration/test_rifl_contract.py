"""The RIFL contract (§3.3, §4.8), checked once for all three backends:
the RAMCloud-style master, CURP-Redis and Raft with the CURP extension.

Each backend is driven through the same raw client: the update RPC plus
a record on every witness, sent by ``core.curp.fan_out`` with RpcIds
and acks the test picks.  The contract:

1. a retried update is answered from its completion record, tagged
   ``synced`` exactly when its entry is durable;
2. a retry below the client's ack level gets ``STALE_RPC`` naming its
   RpcId;
3. after retries and one crash recovered with witness replay, every
   completed RpcId has exactly one entry in the log (master log, Redis
   AOF, Raft log).
"""

from __future__ import annotations

import collections

import pytest

from repro.consensus import RaftConfig, RaftNode
from repro.consensus.raft import RAFT_WITNESS, ProposeArgs
from repro.core.config import CurpConfig, ReplicationMode
from repro.core.curp import fan_out
from repro.core.messages import RecordArgs, RecordedRequest, UpdateArgs
from repro.harness import build_cluster
from repro.harness.redis import build_redis_cluster
from repro.kvstore import Increment
from repro.net import Network
from repro.net.latency import LatencyModel
from repro.redislike.commands import Command
from repro.redislike.server import CommandArgs, DurabilityMode
from repro.rifl import RpcId
from repro.rpc import AppError, RpcTransport
from repro.sim import Fixed, Simulator

CLIENT = 9
TIMEOUT = 2_000.0


class _Master:
    """CURP f=1; nothing syncs unless asked to."""

    #: a retry of an RPC whose entry is not durable is answered at once
    retry_waits_for_durability = False

    def __init__(self):
        self.cluster = build_cluster(CurpConfig(
            f=1, mode=ReplicationMode.CURP, min_sync_batch=1_000,
            idle_sync_delay=1e9, retry_backoff=10.0, rpc_timeout=100.0))
        self.sim = self.cluster.sim
        self.transport = RpcTransport(self.cluster.network.add_host("raw"))

    def op(self, seq: int):
        return Increment(f"k{seq}", seq)

    def send(self, op, rpc_id: RpcId, ack_seq: int):
        managed = self.cluster.coordinator.masters["m0"]
        args = UpdateArgs(op, rpc_id, ack_seq, managed.witness_list_version)
        record = RecordArgs("m0", op.touched_hashes(), rpc_id,
                            RecordedRequest(op, rpc_id))
        return fan_out(self.transport, managed.host, "update", args,
                       managed.witnesses, record, TIMEOUT)

    def make_durable(self) -> None:
        self.cluster.run(self.transport.call(
            self.cluster.coordinator.masters["m0"].host, "sync", None))

    def crash_and_recover(self) -> int:
        self.cluster.master().host.crash()
        standby = self.cluster.add_host("standby", role="master")
        stats = self.cluster.run(self.sim.process(
            self.cluster.coordinator.recover_master("m0", standby)),
            timeout=1_000_000.0)
        return stats["replayed"]

    def logged_rpc_ids(self) -> list:
        master = self.cluster.coordinator.masters["m0"].master
        return [entry.rpc_id for entry in master.store.log.all_entries()]


class _Redis:
    """CURP-Redis with one witness; fsyncs only when asked to."""

    retry_waits_for_durability = False

    def __init__(self):
        self.cluster = build_redis_cluster(DurabilityMode.CURP,
                                           curp_fsync_batch=1_000)
        self.cluster.server.curp_idle_fsync_delay = 1e9
        self.sim = self.cluster.sim
        self.transport = RpcTransport(self.cluster.network.add_host("raw"))

    def op(self, seq: int):
        return Command("SET", (f"k{seq}", str(seq)))

    def send(self, op, rpc_id: RpcId, ack_seq: int):
        server = self.cluster.server
        record = RecordArgs(server.master_id, op.touched_hashes(), rpc_id,
                            RecordedRequest(op, rpc_id))
        return fan_out(self.transport, server.host.name, "command",
                       CommandArgs(op, rpc_id, ack_seq), server.witnesses,
                       record, TIMEOUT)

    def make_durable(self) -> None:
        self.cluster.run(self.transport.call(
            self.cluster.server.host.name, "sync", None))

    def crash_and_recover(self) -> int:
        server = self.cluster.server
        server.host.crash()
        server.host.restart()
        return self.cluster.run(self.sim.process(server.recover()),
                                timeout=1e9)

    def logged_rpc_ids(self) -> list:
        return [rpc_id for _seq, _command, rpc_id, _result
                in self.cluster.server.aof.durable_entries()]


class _Raft:
    """Three replicas with the §A.2 extension."""

    #: a retry of an uncommitted entry waits for its commit (Raft's own
    #: probe of in-flight log entries), so every answer is synced
    retry_waits_for_durability = True

    def __init__(self):
        self.sim = Simulator(seed=0)
        network = Network(self.sim, latency=LatencyModel(Fixed(20.0)))
        names = [f"r{i}" for i in range(3)]
        self.nodes = [RaftNode(network.add_host(name), name, names,
                               config=RaftConfig(read_lease_duration=0))
                      for name in names]
        self.transport = RpcTransport(network.add_host("raw"))
        self.leader = self._elect()

    def _elect(self) -> RaftNode:
        for _ in range(200):
            self.sim.run(until=self.sim.now + 1_000.0)
            leaders = [node for node in self.nodes
                       if node.role == "leader" and node.host.alive]
            if len(leaders) == 1 and leaders[0].serving:
                return leaders[0]
        raise AssertionError("no leader elected")

    def op(self, seq: int):
        return Increment(f"k{seq}", seq)

    def send(self, op, rpc_id: RpcId, ack_seq: int):
        leader = self.leader
        record = (leader.current_term, RecordArgs(
            RAFT_WITNESS, op.touched_hashes(), rpc_id,
            RecordedRequest(op, rpc_id)))
        return fan_out(self.transport, leader.name, "propose",
                       ProposeArgs(op, rpc_id, ack_seq),
                       [node.name for node in self.nodes], record, TIMEOUT)

    def make_durable(self) -> None:
        self.sim.run(self.transport.call(self.leader.name, "sync",
                                         None))

    def crash_and_recover(self) -> int:
        self.leader.host.crash()
        self.leader = self._elect()
        return self.leader.stats["replayed"]

    def logged_rpc_ids(self) -> list:
        return [entry.rpc_id for entry in self.leader.log]


@pytest.fixture(params=[_Master, _Redis, _Raft],
                ids=["master", "redis", "raft"])
def backend(request):
    return request.param()


def _update(backend, seq: int, ack_seq: int):
    """One update with RpcId (CLIENT, seq): (result, synced), or the
    AppError it met."""
    results = backend.sim.run(backend.send(backend.op(seq),
                                           RpcId(CLIENT, seq), ack_seq))
    reply = results[0]
    if isinstance(reply, AppError):
        return reply
    assert not isinstance(reply, BaseException), reply
    return reply.result, reply.synced


def test_rifl_contract(backend):
    # 1. A retry is answered from the completion record, with the
    #    synced tag of its entry.
    result, synced = _update(backend, 1, ack_seq=1)
    assert not synced                      # the 1-RTT path
    retry_synced = backend.retry_waits_for_durability
    assert _update(backend, 1, ack_seq=1) == (result, retry_synced)
    backend.make_durable()
    assert _update(backend, 1, ack_seq=1) == (result, True)

    # 2. A retry below the ack level is stale and says which RPC.
    _update(backend, 2, ack_seq=2)         # acknowledges seq 1
    stale = _update(backend, 1, ack_seq=2)
    assert isinstance(stale, AppError)
    assert (stale.code, stale.info) == ("STALE_RPC",
                                        {"rpc_id": str(RpcId(CLIENT, 1))})

    # 3. Retries around one crash recovered with witness replay leave
    #    exactly one log entry per completed RpcId.
    completed = {2: None}
    for seq in (3, 4, 5):
        completed[seq] = _update(backend, seq, ack_seq=2)[0]
    assert _update(backend, 4, ack_seq=2)[0] == completed[4]
    replayed = backend.crash_and_recover()
    if not backend.retry_waits_for_durability:
        assert replayed == 4               # seqs 2-5 were only on witnesses
    for seq in (3, 4, 5):
        assert _update(backend, seq, ack_seq=2) == (completed[seq], True)
    counts = collections.Counter(backend.logged_rpc_ids())
    assert {seq: counts[RpcId(CLIENT, seq)] for seq in range(1, 6)} \
        == dict.fromkeys(range(1, 6), 1)
