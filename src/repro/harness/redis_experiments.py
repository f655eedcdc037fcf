"""Per-figure experiment drivers (Redis testbed, §5.4–5.5, §C.2)."""

from __future__ import annotations

import typing

from repro.harness.profiles import ClusterProfile, REDIS_PROFILE
from repro.harness.redis import RedisCluster, build_redis_cluster
from repro.metrics import LatencyRecorder
from repro.redislike.commands import Command
from repro.redislike.server import DurabilityMode


#: the four systems of Figures 8, 9, 13 (label → (mode, n_witnesses))
REDIS_SYSTEMS: dict[str, tuple[DurabilityMode, int]] = {
    "Original Redis (non-durable)": (DurabilityMode.NONDURABLE, 0),
    "CURP (1 witness)": (DurabilityMode.CURP, 1),
    "CURP (2 witnesses)": (DurabilityMode.CURP, 2),
    "Original Redis (durable)": (DurabilityMode.DURABLE, 0),
}


def _random_key(rng, key_space: int, key_size: int = 30) -> str:
    return f"k{rng.randrange(key_space):0{key_size - 1}d}"


def fig8_set_latency(n_ops: int = 800, key_space: int = 2_000_000,
                     value_size: int = 100, seed: int = 1,
                     profile: ClusterProfile = REDIS_PROFILE
                     ) -> dict[str, LatencyRecorder]:
    """Figure 8: CDF of 100 B SET latency, one sequential client."""
    out: dict[str, LatencyRecorder] = {}
    for label, (mode, n_witnesses) in REDIS_SYSTEMS.items():
        cluster = build_redis_cluster(mode, n_witnesses=n_witnesses,
                                      profile=profile, seed=seed)
        client = cluster.new_client(collect_outcomes=False)
        recorder = LatencyRecorder()
        value = "v" * value_size

        def script(client=client, recorder=recorder):
            rng = cluster.sim.rng
            for _ in range(n_ops):
                key = _random_key(rng, key_space)
                started = cluster.sim.now
                yield from client.set(key, value)
                recorder.record(cluster.sim.now - started)
        cluster.run(cluster.sim.process(script()), timeout=1e9)
        out[label] = recorder
    return out


def _closed_loop(cluster: RedisCluster, n_clients: int, duration: float,
                 warmup: float, key_space: int, value_size: int) -> dict:
    value = "v" * value_size
    counters = []
    recorder = LatencyRecorder()
    for _ in range(n_clients):
        client = cluster.new_client(collect_outcomes=False)
        counters.append(client)

        def loop(client=client):
            rng = cluster.sim.rng
            while True:
                key = _random_key(rng, key_space)
                started = cluster.sim.now
                yield from client.set(key, value)
                recorder.record(cluster.sim.now - started)
        client.host.spawn(loop(), name="workload")
    if warmup > 0:
        cluster.sim.run(until=cluster.sim.now + warmup)
        base = [c.completed_updates for c in counters]
        recorder.reset()
    else:
        base = [0] * n_clients
    start = cluster.sim.now
    cluster.sim.run(until=start + duration)
    ops = sum(c.completed_updates - b for c, b in zip(counters, base))
    return {"throughput": ops / (duration / 1e6), "latency": recorder}


def fig9_set_throughput(client_counts: typing.Sequence[int] = (1, 2, 4, 8, 16, 32, 60),
                        duration: float = 30_000.0, warmup: float = 5_000.0,
                        key_space: int = 2_000_000, seed: int = 2
                        ) -> dict[str, list[tuple[int, float]]]:
    """Figure 9: aggregate SET throughput vs client count."""
    series: dict[str, list[tuple[int, float]]] = {}
    for label, (mode, n_witnesses) in REDIS_SYSTEMS.items():
        points = []
        for n_clients in client_counts:
            cluster = build_redis_cluster(mode, n_witnesses=n_witnesses,
                                          profile=REDIS_PROFILE, seed=seed)
            result = _closed_loop(cluster, n_clients, duration, warmup,
                                  key_space, 100)
            points.append((n_clients, result["throughput"]))
        series[label] = points
    return series


def fig10_command_latency(n_ops: int = 500, key_space: int = 2_000_000,
                          seed: int = 3) -> dict[str, dict[str, float]]:
    """Figure 10: median latency of SET / HMSET / INCR with 0-2
    witnesses (30 B keys over 2M keys, 100 B values, 1 B member key)."""
    def command_for(name: str, rng) -> Command:
        key = _random_key(rng, key_space)
        if name == "SET":
            return Command("SET", (key, "v" * 100))
        if name == "HMSET":
            return Command("HMSET", (key, {"m": "v" * 100}))
        return Command("INCR", (key,))

    systems = {
        "Original Redis (non-durable)": (DurabilityMode.NONDURABLE, 0),
        "CURP (1 witness)": (DurabilityMode.CURP, 1),
        "CURP (2 witnesses)": (DurabilityMode.CURP, 2),
    }
    out: dict[str, dict[str, float]] = {}
    for label, (mode, n_witnesses) in systems.items():
        medians = {}
        for command_name in ("SET", "HMSET", "INCR"):
            cluster = build_redis_cluster(mode, n_witnesses=n_witnesses,
                                          profile=REDIS_PROFILE, seed=seed)
            client = cluster.new_client(collect_outcomes=False)
            recorder = LatencyRecorder()

            def script(client=client, recorder=recorder,
                       command_name=command_name):
                rng = cluster.sim.rng
                for _ in range(n_ops):
                    command = command_for(command_name, rng)
                    started = cluster.sim.now
                    yield from client.execute(command)
                    recorder.record(cluster.sim.now - started)
            cluster.run(cluster.sim.process(script()), timeout=1e9)
            medians[command_name] = recorder.median
        out[label] = medians
    return out


def fig13_latency_vs_throughput(client_counts: typing.Sequence[int] = (
        1, 2, 4, 8, 16, 32, 48, 64),
        duration: float = 25_000.0, warmup: float = 5_000.0,
        seed: int = 4) -> dict[str, list[tuple[float, float]]]:
    """Figure 13 (§C.2): average latency at achieved throughput.

    The durable baseline's latency grows ~linearly with load (event-
    loop fsync batching trades latency for throughput); CURP stays flat
    until ~80 % of its max throughput."""
    series: dict[str, list[tuple[float, float]]] = {}
    for label, (mode, n_witnesses) in REDIS_SYSTEMS.items():
        points = []
        for n_clients in client_counts:
            cluster = build_redis_cluster(mode, n_witnesses=n_witnesses,
                                          profile=REDIS_PROFILE, seed=seed)
            result = _closed_loop(cluster, n_clients, duration, warmup,
                                  2_000_000, 100)
            if result["latency"].count:
                points.append((result["throughput"],
                               result["latency"].mean))
        series[label] = points
    return series
