"""The six end-to-end workloads.

Every workload drives only public entry points of ``repro`` and builds
its cluster from ``curp_config(3)`` plus client retry settings: no
optional ``CurpConfig`` flag is set, so the numbers are what a user of
the defaults gets.  All run on ``RAMCLOUD_PROFILE`` (one-way wire delay
``Shifted(1.18, LogNormal(median=1.05, sigma=0.18))`` µs).

A workload object lives for one run in one child process::

    workload.setup(seed, traced)   # build, connect, key tables, warm-up
    workload.measure()             # the window, in SLICES timed slices
    workload.finish()              # drain, settle, check correctness

``--seed`` feeds ``build_cluster(seed=)``; the op streams draw from the
simulator's one seeded generator, so a seed fixes every input.
"""

from __future__ import annotations

import dataclasses
import time

from repro.baselines import curp_config
from repro.cluster import FailureDetector
from repro.core.client import ClientGaveUp
from repro.harness.builder import build_cluster
from repro.harness.profiles import RAMCLOUD_PROFILE
from repro.kvstore.operations import Read, Write
from repro.metrics import AvailabilityTracker, LatencyRecorder
from repro.net.faults import FaultPlan, HostFlap
from repro.sim import AllOf
from repro.verify import History, LinearizabilityError, check_linearizable
from repro.workload import (ClosedLoopClient, ConstantRate, OpenLoopEngine,
                            PipelinedClient, TenantSpec, YcsbWorkload)

WIRE_DELAY = "Shifted(1.18, LogNormal(median=1.05, sigma=0.18)) us one-way"
#: the measured window is cut into this many equal, separately timed slices
SLICES = 5
#: virtual warm-up before the window (scaled down with --scale < 1)
WARMUP_US = 5_000.0
VALUE_SIZE = 100


def _mix(name: str, read_fraction: float, item_count: int,
         distribution: str) -> YcsbWorkload:
    return YcsbWorkload(name=name, read_fraction=read_fraction,
                        item_count=item_count, value_size=VALUE_SIZE,
                        distribution=distribution)


def _percentiles(recorder: LatencyRecorder) -> dict:
    if not recorder.count:
        return {"samples": 0}
    return {"samples": recorder.count, "p50_us": recorder.median,
            "p99_us": recorder.p99}


class Workload:
    """Shared skeleton: counters, slices, correctness checks."""

    name = ""
    #: what the paper says about this shape, printed beside the numbers
    paper = ""
    n_masters = 1
    config_overrides: dict = {}

    def __init__(self, scale: float = 1.0):
        self.scale = scale
        self.warmup_us = WARMUP_US * min(1.0, scale)
        self.slices: list[dict] = []
        self.write_latency = LatencyRecorder()
        self.read_latency = LatencyRecorder()
        self.problems: list[str] = []
        self.extras: dict = {}

    # -- lifecycle ------------------------------------------------------
    def setup(self, seed: int, traced: bool) -> None:
        self.traced = traced
        self.cluster = build_cluster(curp_config(3, **self.config_overrides),
                                     profile=RAMCLOUD_PROFILE,
                                     n_masters=self.n_masters, seed=seed)
        self.sim = self.cluster.sim
        self.original_masters = dict(self.cluster.masters)
        self.connect()
        self.warm_up()

    def connect(self) -> None:
        raise NotImplementedError

    def warm_up(self) -> None:
        raise NotImplementedError

    def run_slice(self, index: int) -> int:
        """Advance the window by one slice; return ops completed so far."""
        raise NotImplementedError

    def clients(self) -> list:
        raise NotImplementedError

    def run_to(self, event) -> None:
        """Run until ``event``; a client giving up is a finding to
        report, not a crash of the benchmark."""
        try:
            self.sim.run(event)
        except ClientGaveUp as error:
            self.problems.append(f"client gave up: {error}")

    def measure(self) -> None:
        for client in self.clients():
            client.outcomes.clear()
        self.before = self.counters()
        self.window_start = self.sim.now
        done = 0
        for index in range(SLICES):
            started = time.perf_counter()
            total = self.run_slice(index)
            wall = time.perf_counter() - started
            self.slices.append({"ops": total - done, "wall_s": wall})
            done = total
        self.window_us = self.sim.now - self.window_start
        self.after = self.counters()
        # read now: ops in flight at the window's end complete in finish()
        self.latency = {"write": _percentiles(self.write_latency),
                        "read": _percentiles(self.read_latency)}
        self.outcomes = [outcome for client in self.clients()
                         for outcome in client.outcomes]

    def finish(self) -> None:
        """Stop the load, let syncs drain, check what must hold."""
        self.stop()
        self.cluster.settle()
        self.check_durability()

    def stop(self) -> None:
        """Stop issuing: client loops end at their next op boundary."""
        for loop in self.loops:
            loop.running = False

    # -- accounting -----------------------------------------------------
    def attempted(self) -> int:
        """Operations issued in the window (closed loops: completed plus
        whatever a give-up abandoned)."""
        return sum(s["ops"] for s in self.slices) + self.gave_up()

    def gave_up(self) -> int:
        return 0

    def failed(self) -> int:
        return self.gave_up()

    def master_objects(self) -> list:
        """Every master that served during the run: the current ones and
        any a recovery replaced (their counters stop at the crash)."""
        current = [self.cluster.master(mid) for mid in self.cluster.masters]
        replaced = [m for m in self.original_masters.values()
                    if all(m is not c for c in current)]
        return current + replaced

    def counters(self) -> dict:
        """Monotone counters the program exposes; the window's share is
        the difference of two readings."""
        cluster = self.cluster
        net = cluster.network.stats
        counts = {"events": self.sim.processed_events,
                  "messages": net.messages_sent, "bytes": net.bytes_sent,
                  "payloads": net.payloads_sent,
                  "dropped": net.messages_dropped}
        masters = self.master_objects()
        for field in ("updates", "reads", "conflict_syncs", "syncs",
                      "synced_entries", "gc_rpcs", "duplicates_filtered"):
            counts[f"master_{field}"] = sum(getattr(m.stats, field)
                                            for m in masters)
        clients = self.clients()
        counts["client_updates"] = sum(c.completed_updates for c in clients)
        counts["client_reads"] = sum(c.completed_reads for c in clients)
        counts["client_fast_path"] = sum(c.fast_path_updates for c in clients)
        witnesses = list(cluster.coordinator.witness_servers.values())
        counts["witness_records"] = sum(w.records_processed
                                        for w in witnesses)
        counts["witness_accepts"] = sum(w.cache.accepts for w in witnesses)
        counts["witness_rejects"] = sum(
            w.cache.rejects_commutativity + w.cache.rejects_capacity
            for w in witnesses)
        counts["backup_entries"] = sum(
            b.stats.entries_appended
            for b in cluster.coordinator.backup_servers.values())
        return counts

    def window_counts(self) -> dict:
        return {key: self.after[key] - self.before[key]
                for key in self.after}

    def check_durability(self) -> None:
        """After settle() every backup holds its master's whole log:
        everything acknowledged survives discarding unsynced state."""
        coordinator = self.cluster.coordinator
        for master_id, managed in coordinator.masters.items():
            log_end = self.cluster.master(master_id).store.log.end
            for backup in managed.backups:
                stored = coordinator.backup_servers[backup].last_index
                if stored != log_end:
                    self.problems.append(
                        f"durability: {backup} holds {stored} entries, "
                        f"{master_id} log end is {log_end}")

    def result(self) -> dict:
        attempted = self.attempted()
        failed = min(attempted, self.failed())
        if self.problems:
            failed = attempted      # a failed check fails the workload
        ops = sum(s["ops"] for s in self.slices)
        sim = {"ops_per_s": ops / (self.window_us / 1e6),
               "window_us": self.window_us, "ops": ops, **self.latency}
        sim.update(self.extras)
        result = {"workload": self.name, "slices": self.slices, "sim": sim,
                  "attempted": attempted, "failed": failed,
                  "problems": self.problems,
                  "counts": self.window_counts()}
        if self.outcomes:
            n = len(self.outcomes)
            result["outcomes"] = {
                "updates": n,
                "attempts": sum(o.attempts for o in self.outcomes) / n,
                "sync_rpcs": sum(o.sync_rpc_needed
                                 for o in self.outcomes) / n}
        return result


# ----------------------------------------------------------------------
# closed loops
# ----------------------------------------------------------------------
class ClosedLoop(Workload):
    """N clients, each issuing its next op when the previous completes,
    measured over a fixed virtual-time window."""

    n_clients = 16
    window_us = 40_000.0
    mix: YcsbWorkload

    def connect(self) -> None:
        self.loops = []
        for _ in range(self.n_clients):
            client = self.cluster.new_client(collect_outcomes=self.traced)
            self.loops.append(ClosedLoopClient(
                client=client, stream=self.mix.generator(),
                write_latency=self.write_latency,
                read_latency=self.read_latency))

    def clients(self) -> list:
        return [loop.client for loop in self.loops]

    def warm_up(self) -> None:
        self.processes = [loop.client.host.spawn(loop.loop(), name="workload")
                          for loop in self.loops]
        self.sim.run(until=self.sim.now + self.warmup_us)
        self.reset_recorders()

    def reset_recorders(self) -> None:
        for loop in self.loops:
            loop.operations = 0
        self.write_latency.reset()
        self.read_latency.reset()

    def run_slice(self, index: int) -> int:
        window = self.window_us * self.scale
        self.sim.run(until=self.window_start + window * (index + 1) / SLICES)
        return sum(loop.operations for loop in self.loops)

    def gave_up(self) -> int:
        # a closed-loop process that hit ClientGaveUp died with it
        return sum(1 for p in self.processes
                   if p.triggered and isinstance(p.exception, ClientGaveUp))


class SeqWrite(ClosedLoop):
    """Fig. 5 latency headline: one client, back-to-back uniform writes,
    no queueing, so write p50 is pure protocol RTT arithmetic."""

    name = "seq_write_f3"
    paper = "paper Fig. 5: CURP f=3 median write 7.3 us (13.8 us unreplicated-sync)"
    n_clients = 1
    n_ops = 30_000
    mix = _mix("seq-write", 0.0, 1_000_000, "uniform")

    def warm_up(self) -> None:
        loop = self.loops[0]
        process = loop.client.host.spawn(loop.loop(), name="workload")
        self.sim.run(until=self.sim.now + self.warmup_us)
        loop.running = False
        self.sim.run(process)           # let the op in flight complete
        loop.running = True
        self.reset_recorders()
        self.processes = []

    def run_slice(self, index: int) -> int:
        # Slices are op counts here: the window is 30,000 writes.
        loop = self.loops[0]
        target = max(SLICES, int(self.n_ops * self.scale))
        process = loop.client.host.spawn(
            loop.loop(max_ops=target * (index + 1) // SLICES),
            name="workload")
        self.processes.append(process)
        self.run_to(process)
        return loop.operations


class ClosedWrite(ClosedLoop):
    """Fig. 6 throughput headline: 16 clients, uniform writes over 1 M
    keys (overflows the key_hash memo); most messages and events per
    op, so sim/net/rpc/witness cost dominates."""

    name = "closed_write_f3"
    paper = "paper Fig. 6: CURP f=3 ~4x the write throughput of sync replication"
    mix = _mix("closed-write", 0.0, 1_000_000, "uniform")


class YcsbAZipf(ClosedLoop):
    """Fig. 7 conflicts: YCSB-A zipfian 0.99 over 100 k keys; ~11% of
    updates leave the 1-RTT path and reads share the master, so a
    write-path gain that costs reads shows here."""

    name = "ycsb_a_zipf_f3"
    paper = "paper Fig. 7: YCSB-A write latency under skew"
    mix = _mix("ycsb-a", 0.5, 100_000, "zipfian")


class YcsbBShard4(ClosedLoop):
    """The bypass workload: 95% reads over 4 masters; witnesses and
    backups nearly idle, routing and op generation matter instead.  A
    witness/sync/gc optimisation should not move it."""

    name = "ycsb_b_shard4"
    paper = "paper Fig. 7: YCSB-B (95% reads)"
    n_masters = 4
    # longer than the other closed loops: only 5% of ops are writes, and
    # the write p99 needs the samples to be steady across seeds
    window_us = 60_000.0
    mix = _mix("ycsb-b", 0.95, 100_000, "zipfian")


# ----------------------------------------------------------------------
# pipelined bursts
# ----------------------------------------------------------------------
class _TimedClient:
    """What a PipelinedClient needs of a client, with per-op latency
    recorded here in the driver (PipelinedClient only times waves)."""

    def __init__(self, client, write_latency, read_latency):
        self.client = client
        self.sim = client.sim
        self.host = client.host
        self.write_latency = write_latency
        self.read_latency = read_latency

    def update(self, op):
        started = self.sim.now
        outcome = yield from self.client.update(op)
        self.write_latency.record(self.sim.now - started)
        return outcome

    def read(self, key):
        started = self.sim.now
        value = yield from self.client.read(key)
        self.read_latency.record(self.sim.now - started)
        return value


class BurstWrite(Workload):
    """The write path used in bursts: 4 pipelined clients x depth 8
    issue same-instant RPCs per destination, the only shape where frame
    coalescing has anything to pack."""

    name = "burst_write_f3"
    paper = "no paper figure: batched shape of the Fig. 6 write path"
    n_clients = 4
    depth = 8
    n_waves = 800
    mix = _mix("burst-write", 0.0, 1_000_000, "uniform")

    def connect(self) -> None:
        self.loops = []
        for _ in range(self.n_clients):
            client = self.cluster.new_client(collect_outcomes=self.traced)
            self.loops.append(PipelinedClient(
                client=_TimedClient(client, self.write_latency,
                                    self.read_latency),
                stream=self.mix.generator(), depth=self.depth,
                wave_latency=LatencyRecorder()))

    def clients(self) -> list:
        return [loop.client.client for loop in self.loops]

    def _run_waves(self, max_waves: int | None) -> list:
        processes = [loop.client.host.spawn(loop.loop(max_waves=max_waves),
                                            name="workload")
                     for loop in self.loops]
        self.processes.extend(processes)
        return processes

    def warm_up(self) -> None:
        self.processes: list = []
        processes = self._run_waves(None)
        self.sim.run(until=self.sim.now + self.warmup_us)
        for loop in self.loops:
            loop.running = False
        self.sim.run(AllOf(self.sim, processes))   # finish the open waves
        for loop in self.loops:
            loop.running = True
            loop.operations = loop.waves = 0
        self.write_latency.reset()

    def run_slice(self, index: int) -> int:
        waves = max(SLICES, int(self.n_waves * self.scale))
        processes = self._run_waves(waves * (index + 1) // SLICES)
        self.run_to(AllOf(self.sim, processes))
        return sum(loop.operations for loop in self.loops)

    def gave_up(self) -> int:
        # AllOf fails the slice on the first give-up; count what it hid
        return sum(1 for p in self.processes
                   if p.triggered and not p.ok)


# ----------------------------------------------------------------------
# open loop with a master kill
# ----------------------------------------------------------------------
@dataclasses.dataclass(frozen=True)
class UniqueValueMix:
    """Uniform keys, every write carrying a value never written before,
    so that a read identifies the one write it observed and the
    register-model linearizability check is not vacuous."""

    name: str
    read_fraction: float
    item_count: int

    def generator(self) -> "_UniqueValueStream":
        return _UniqueValueStream(self)


class _UniqueValueStream:
    def __init__(self, mix: UniqueValueMix):
        self.mix = mix
        self.written = 0

    def next_op(self, rng):
        key = f"user{rng.randrange(self.mix.item_count)}"
        if rng.random() < self.mix.read_fraction:
            return Read(key)
        self.written += 1
        return Write(key, f"{self.written:012d}".ljust(VALUE_SIZE, "v"))


class KillMasterOpenLoop(Workload):
    """Fault run on a schedule: 50 k ops/s open loop, the master host
    killed for good a quarter in.  Requests due while no master exists
    are counted; latency is from arrival."""

    name = "kill_master_openloop"
    paper = "paper 3.3/4.7: recovery from backup + witness replay"
    config_overrides = {"rpc_timeout": 500.0, "max_attempts": 40,
                        "retry_backoff": 100.0}
    # The ~2 ms outage must hit well under 1% of the window's ops, or
    # the write p99 sits on the cliff between normal and outage latency
    # and flips with the seed; the outage has its own metric.
    rate = 50_000.0
    n_clients = 8
    window_us = 800_000.0
    kill_at_us = 200_000.0
    mix = UniqueValueMix("kill-mix", 0.5, 20_000)

    def connect(self) -> None:
        cluster = self.cluster
        standby = cluster.add_host("standby-master", role="master")
        self.detector = FailureDetector(cluster.coordinator, [standby],
                                        interval=500.0, miss_threshold=3,
                                        ping_timeout=200.0)
        self.detector.start()
        self.history = History()
        self.engine = OpenLoopEngine(
            cluster,
            [TenantSpec("load", ConstantRate(self.rate), self.mix,
                        n_clients=self.n_clients)],
            history=self.history)
        self.engine.start()
        self.tenant = self.engine.tenants[0]
        for client in self.tenant.clients:
            client.collect_outcomes = self.traced

    def clients(self) -> list:
        return self.tenant.clients

    def warm_up(self) -> None:
        self.sim.run(until=self.sim.now + self.warmup_us)

    def measure(self) -> None:
        self.kill_at = self.sim.now + self.kill_at_us * self.scale
        master_host = self.cluster.coordinator.masters["m0"].host
        self.cluster.inject_faults(FaultPlan(
            events=(HostFlap(host=master_host, start=self.kill_at),)))
        self.offered_before = self.tenant.offered
        super().measure()

    def run_slice(self, index: int) -> int:
        window = self.window_us * self.scale
        self.sim.run(until=self.window_start + window * (index + 1) / SLICES)
        return self.tenant.completed

    def stop(self) -> None:
        self.engine.stop()
        self.offered = self.tenant.offered - self.offered_before
        self.engine.drain()     # whatever stays in flight counts as failed
        self.detector.stop()

    def finish(self) -> None:
        super().finish()
        records = [r for r in self.history.records
                   if r.invoked_at >= self.window_start]
        completed = [r for r in records if not r.is_pending]
        for record in completed:
            recorder = (self.read_latency if record.kind == "read"
                        else self.write_latency)
            recorder.record(record.completed_at - record.invoked_at)
        self.latency = {"write": _percentiles(self.write_latency),
                        "read": _percentiles(self.read_latency)}
        self.pending = len(records) - len(completed)
        self.non_linearizable = 0
        try:
            check_linearizable(self.history)
        except LinearizabilityError as error:
            self.non_linearizable = len(self.history.by_key()[error.key])
            self.problems.append(f"history of key {error.key!r} is not "
                                 f"linearizable")
        if self.detector.recoveries_completed != 1:
            self.problems.append(
                f"expected exactly one completed recovery, saw "
                f"{self.detector.recoveries_completed}")
        # The outage users saw: the longest silence between consecutive
        # completions once the master is gone.
        times = sorted(r.completed_at for r in self.history.records
                       if not r.is_pending)
        after = [t for t in times if t >= self.kill_at]
        last_before = max((t for t in times if t < self.kill_at),
                          default=self.kill_at)
        gaps = [b - a for a, b in zip([last_before] + after, after)]
        tracker = AvailabilityTracker(self.sim)
        tracker.mark_fault(self.kill_at)
        tracker.observe_watchdog(self.detector)
        detected = tracker.detected_at or self.sim.now
        repaired = tracker.repaired_at or self.sim.now
        self.extras = {"outage_us": max(gaps, default=0.0),
                       "detect_us": detected - self.kill_at,
                       "recover_us": repaired - detected,
                       "recoveries": self.detector.recoveries_completed}

    def attempted(self) -> int:
        return self.offered

    def gave_up(self) -> int:
        return self.tenant.failed

    def failed(self) -> int:
        # gave-up ops stay pending in the history, so `pending` already
        # holds them along with anything still in flight after drain()
        return (self.pending + self.tenant.dropped + len(self.tenant.queue)
                + self.non_linearizable)


WORKLOADS = {cls.name: cls for cls in (SeqWrite, ClosedWrite, YcsbAZipf,
                                       YcsbBShard4, BurstWrite,
                                       KillMasterOpenLoop)}
