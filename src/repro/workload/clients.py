"""Closed-loop and pipelined workload clients.

Each closed-loop client repeatedly issues the next operation and waits
for it to complete ("back to back", as in Figures 6 and 9), recording
latency per op.  ``run_closed_loop`` drives N of them for a measured
window and returns aggregate throughput — the harness behind every
throughput figure.

``run_pipelined_loop`` drives *batch-pipelined* clients: each keeps
``depth`` operations in flight per wave, the shape that exposes the
per-message floor — with ``CurpConfig.frame_coalescing`` a wave's
``depth`` same-instant RPCs to each destination share one NIC frame,
which is how messages-per-update drops below the 2 × (1 + f)
closed-loop floor.  Commutative operations are exactly the ones safe
to batch this way (they complete independently in any order), so the
pipelined driver needs no protocol changes.
"""

from __future__ import annotations

import dataclasses
import typing

from repro.core.client import CurpClient
from repro.kvstore.operations import Read
from repro.metrics.stats import LatencyRecorder
from repro.sim.events import AllOf
from repro.workload.ycsb import YcsbOpStream, YcsbWorkload

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.harness.builder import Cluster


@dataclasses.dataclass
class ClosedLoopClient:
    """One client process issuing operations back to back.

    With ``resolve_shard``/``per_shard`` set (the shard-aware harness),
    every completed operation is additionally attributed to the shard
    that served it — per the resolver's *live* view, so a mid-run
    migration moves the attribution with the tablet.  Attribution is
    pure bookkeeping after the op completes; the None default leaves
    the loop exactly as every golden trace pins it.
    """

    client: CurpClient
    stream: YcsbOpStream
    write_latency: LatencyRecorder
    read_latency: LatencyRecorder
    #: optional shard attribution: key → owning shard, and the shared
    #: {shard: ShardLoad} sink to record into
    resolve_shard: typing.Callable[[str], str | None] | None = None
    per_shard: dict | None = None
    operations: int = 0
    #: set False to stop the loop at the next op boundary
    running: bool = True

    def loop(self, max_ops: int | None = None):
        """Generator: the client's main loop."""
        sim = self.client.sim
        rng = sim.rng
        while self.running and (max_ops is None or self.operations < max_ops):
            op = self.stream.next_op(rng)
            started = sim.now
            is_read = isinstance(op, Read)
            if is_read:
                yield from self.client.read(op.key)
                self.read_latency.record(sim.now - started)
            else:
                yield from self.client.update(op)
                self.write_latency.record(sim.now - started)
            if self.resolve_shard is not None:
                shard = self.resolve_shard(op.key)
                load = self.per_shard.get(shard)
                if load is None:
                    load = self.per_shard[shard] = ShardLoad()
                load.operations += 1
                recorder = (load.read_latency if is_read
                            else load.write_latency)
                recorder.record(sim.now - started)
            self.operations += 1


def run_closed_loop(cluster: "Cluster", workload: YcsbWorkload,
                    n_clients: int, duration: float,
                    warmup: float = 0.0,
                    collect_outcomes: bool = False) -> dict:
    """Drive ``n_clients`` for ``duration`` µs; return aggregate stats.

    Returns a dict with ``throughput`` (ops/s across clients, measured
    after ``warmup``), and ``write_latency`` / ``read_latency``
    recorders.
    """
    write_latency = LatencyRecorder()
    read_latency = LatencyRecorder()
    loops: list[ClosedLoopClient] = []
    for _ in range(n_clients):
        client = cluster.new_client(collect_outcomes=collect_outcomes)
        loop = ClosedLoopClient(client=client, stream=workload.generator(),
                                write_latency=write_latency,
                                read_latency=read_latency)
        loops.append(loop)
    for loop in loops:
        loop.client.host.spawn(loop.loop(), name="workload")
    if warmup > 0:
        cluster.sim.run(until=cluster.sim.now + warmup)
        for loop in loops:
            loop.operations = 0
        write_latency.reset()
        read_latency.reset()
    start = cluster.sim.now
    cluster.sim.run(until=start + duration)
    for loop in loops:
        loop.running = False
    elapsed = cluster.sim.now - start
    total_ops = sum(loop.operations for loop in loops)
    return {
        "throughput": total_ops / (elapsed / 1e6),  # ops per second
        "operations": total_ops,
        "write_latency": write_latency,
        "read_latency": read_latency,
    }


@dataclasses.dataclass
class ShardLoad:
    """Per-shard slice of a sharded workload run."""

    operations: int = 0
    write_latency: LatencyRecorder = dataclasses.field(
        default_factory=LatencyRecorder)
    read_latency: LatencyRecorder = dataclasses.field(
        default_factory=LatencyRecorder)

    def reset(self) -> None:
        self.operations = 0
        self.write_latency.reset()
        self.read_latency.reset()


def run_sharded_ycsb(cluster: "Cluster", workload: YcsbWorkload,
                     n_clients: int, duration: float,
                     warmup: float = 0.0) -> dict:
    """The shard-aware YCSB harness: drive ``n_clients`` closed-loop
    clients for ``duration`` µs against a (multi-shard) cluster and
    report aggregate *and per-shard* throughput and latency
    percentiles.

    ``warmup`` runs first and is discarded — for rebalancing studies
    make it long enough for the rebalancer to converge, so the
    measured window reflects the steady-state placement.  Returns::

        {"throughput": ops/s, "operations": n,
         "write_latency": recorder, "read_latency": recorder,
         "per_shard": {master_id: {"operations", "ops_per_sec",
                                   "share", "write": summary,
                                   "read": summary}}}
    """
    per_shard: dict = {}
    write_latency = LatencyRecorder()
    read_latency = LatencyRecorder()
    loops: list[ClosedLoopClient] = []
    for _ in range(n_clients):
        client = cluster.new_client(collect_outcomes=False)
        loops.append(ClosedLoopClient(client=client,
                                      stream=workload.generator(),
                                      write_latency=write_latency,
                                      read_latency=read_latency,
                                      resolve_shard=cluster.shard_for,
                                      per_shard=per_shard))
    for loop in loops:
        loop.client.host.spawn(loop.loop(), name="sharded-workload")
    if warmup > 0:
        cluster.sim.run(until=cluster.sim.now + warmup)
        for loop in loops:
            loop.operations = 0
        write_latency.reset()
        read_latency.reset()
        for load in per_shard.values():
            load.reset()
    start = cluster.sim.now
    cluster.sim.run(until=start + duration)
    for loop in loops:
        loop.running = False
    elapsed = cluster.sim.now - start
    total_ops = sum(loop.operations for loop in loops)
    seconds = elapsed / 1e6
    shards = {}
    for shard, load in sorted(per_shard.items(), key=lambda kv: str(kv[0])):
        shards[shard] = {
            "operations": load.operations,
            "ops_per_sec": load.operations / seconds if seconds else 0.0,
            "share": load.operations / total_ops if total_ops else 0.0,
            "write": load.write_latency.summary(),
            "read": load.read_latency.summary(),
        }
    return {
        "throughput": total_ops / seconds if seconds else 0.0,
        "operations": total_ops,
        "write_latency": write_latency,
        "read_latency": read_latency,
        "per_shard": shards,
    }


@dataclasses.dataclass
class PipelinedClient:
    """One client keeping ``depth`` operations in flight per wave.

    Each wave spawns ``depth`` concurrent operations at one virtual
    instant and joins them all before starting the next — the batched
    shape under which frame coalescing packs a wave's RPCs to each
    destination into single frames.  Reads in the stream run
    concurrently with the wave's updates.
    """

    client: CurpClient
    stream: YcsbOpStream
    depth: int
    wave_latency: LatencyRecorder
    operations: int = 0
    waves: int = 0
    #: set False to stop at the next wave boundary
    running: bool = True

    def loop(self, max_waves: int | None = None):
        """Generator: the client's wave loop."""
        sim = self.client.sim
        rng = sim.rng
        host = self.client.host
        while self.running and (max_waves is None or self.waves < max_waves):
            started = sim.now
            calls = []
            for _ in range(self.depth):
                op = self.stream.next_op(rng)
                if isinstance(op, Read):
                    calls.append(host.spawn(self.client.read(op.key),
                                            name="pipelined-read"))
                else:
                    calls.append(host.spawn(self.client.update(op),
                                            name="pipelined-update"))
            yield AllOf(sim, calls)
            self.wave_latency.record(sim.now - started)
            self.operations += self.depth
            self.waves += 1


def run_pipelined_loop(cluster: "Cluster", workload: YcsbWorkload,
                       n_clients: int, waves: int, depth: int,
                       collect_outcomes: bool = False) -> dict:
    """Drive ``n_clients`` pipelined clients for exactly ``waves`` waves
    of ``depth`` concurrent operations each.

    A fixed operation count (rather than a time window) keeps runs with
    different transport settings directly comparable: frames on/off
    execute the identical op sequence, so messages-per-update deltas
    are pure transport effects.
    """
    wave_latency = LatencyRecorder()
    loops: list[PipelinedClient] = []
    for _ in range(n_clients):
        client = cluster.new_client(collect_outcomes=collect_outcomes)
        loops.append(PipelinedClient(client=client,
                                     stream=workload.generator(),
                                     depth=depth,
                                     wave_latency=wave_latency))
    processes = [loop.client.host.spawn(loop.loop(max_waves=waves),
                                        name="pipelined-workload")
                 for loop in loops]
    started = cluster.sim.now
    cluster.sim.run(AllOf(cluster.sim, processes))
    elapsed = cluster.sim.now - started
    total_ops = sum(loop.operations for loop in loops)
    return {
        "throughput": total_ops / (elapsed / 1e6) if elapsed else 0.0,
        "operations": total_ops,
        "wave_latency": wave_latency,
    }
