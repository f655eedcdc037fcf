"""Hot-path microbenchmark drivers (shared by pytest + bench_snapshot).

Three workloads, one per layer the tentpole overhauled:

- **event loop**: same-instant callback bursts — the shape an arriving
  RPC produces (trigger → dispatch → process resume, all at one
  instant).  ``drain_events`` times dispatch only (the queue is
  pre-filled outside the clock); ``schedule_and_drain`` times the full
  schedule+dispatch round trip.
- **RPC round trips**: a closed-loop client hammering an echo handler
  through the full Host/Network/RpcTransport stack — on zero-cost hosts
  over a fixed wire (``rpc_roundtrips``, CI-gated), and on
  ``RAMCLOUD_PROFILE``'s client and witness costs and lognormal wire
  (``rpc_roundtrips_calibrated``), the only one of the two with RX
  serialization and the latency sampler on its path.
- **witness records**: ``WitnessCache.record`` + periodic ``gc`` at the
  paper's geometry (4096 slots, 4-way) — §5.2 measures ~1.27 M
  records/s on the real witness; this is our comparable.

Every driver works against any object with the scheduler interface
(``schedule_callback(delay, fn)`` / ``run()`` / ``processed_events``),
so the vendored pre-overhaul scheduler in ``tools/_legacy_sim.py`` can
be measured with the same code.
"""

from __future__ import annotations

import random
import time
import typing


def _noop() -> None:
    pass


def drain_events(sim_factory: typing.Callable[[], typing.Any],
                 n_events: int = 400_000, batch: int = 2048
                 ) -> tuple[int, float]:
    """Dispatch-only events/s: pre-fill ``batch`` same-instant callbacks,
    time ``run()`` draining them; repeat.  Returns (events, seconds)."""
    sim = sim_factory()
    schedule = sim.schedule_callback
    run = sim.run
    elapsed = 0.0
    for _ in range(max(1, n_events // batch)):
        for _ in range(batch):
            schedule(0.0, _noop)
        started = time.perf_counter()
        run()
        elapsed += time.perf_counter() - started
    return sim.processed_events, elapsed


def schedule_and_drain(sim_factory: typing.Callable[[], typing.Any],
                       n_events: int = 400_000, batch: int = 2048
                       ) -> tuple[int, float]:
    """End-to-end events/s: scheduling is inside the timed region."""
    sim = sim_factory()
    schedule = sim.schedule_callback
    run = sim.run
    started = time.perf_counter()
    for _ in range(max(1, n_events // batch)):
        for _ in range(batch):
            schedule(0.0, _noop)
        run()
    return sim.processed_events, time.perf_counter() - started


def _rpc_pair(calibrated: bool = False):
    """A client and an echo server.  ``calibrated`` gives them
    ``RAMCLOUD_PROFILE``'s client / witness NIC costs and wire model in
    place of zero-cost hosts 2 µs apart."""
    from repro.harness.profiles import RAMCLOUD_PROFILE, TEST_PROFILE
    from repro.net.latency import LatencyModel
    from repro.net.network import Network
    from repro.rpc.transport import RpcTransport
    from repro.sim.simulator import Simulator

    profile = RAMCLOUD_PROFILE if calibrated else TEST_PROFILE
    sim = Simulator(seed=0)
    network = Network(sim, latency=LatencyModel(profile.latency()))
    client = RpcTransport(network.add_host(
        "client", tx_cost=profile.client.tx, rx_cost=profile.client.rx))
    server = RpcTransport(network.add_host(
        "server", tx_cost=profile.witness.tx, rx_cost=profile.witness.rx))
    server.register("echo", lambda args, ctx: args)
    return sim, client


def _drive_roundtrips(sim, client, n_calls: int) -> float:
    """Seconds for ``n_calls`` back-to-back ``call_cb`` round trips: the
    continuation issues the next call straight from response delivery —
    no per-call event, queue dispatch, or generator resume."""
    done = sim.event()
    calls = [0]

    def on_done(_value, _error):
        calls[0] += 1
        if calls[0] >= n_calls:
            done.succeed()
        else:
            client.call_cb("server", "echo", calls[0], on_done)

    started = time.perf_counter()
    client.call_cb("server", "echo", 0, on_done)
    sim.run(done)
    return time.perf_counter() - started


def rpc_roundtrips(n_calls: int = 20_000) -> tuple[int, float]:
    """Round-trips/s through the full simulated RPC stack, driven by
    the ``call_cb`` completion fast path (the protocol hot path since
    the operation-lifecycle overhaul)."""
    sim, client = _rpc_pair()
    return n_calls, _drive_roundtrips(sim, client, n_calls)


def rpc_roundtrips_calibrated(n_calls: int = 20_000
                              ) -> tuple[int, float, float]:
    """The same loop between a ``RAMCLOUD_PROFILE`` client and witness.
    Also returns kernel events per round trip — deterministic: what one
    request/response pair costs the event queue."""
    sim, client = _rpc_pair(calibrated=True)
    elapsed = _drive_roundtrips(sim, client, n_calls)
    return n_calls, elapsed, sim.processed_events / n_calls


def rpc_roundtrips_yield(n_calls: int = 20_000) -> tuple[int, float]:
    """The generator-path comparison driver: one process yielding a
    ``call()`` event per round trip (the pre-overhaul shape)."""
    sim, client = _rpc_pair()

    def loop():
        for i in range(n_calls):
            yield client.call("server", "echo", i)

    done = sim.process(loop())
    started = time.perf_counter()
    sim.run(done)
    return n_calls, time.perf_counter() - started


def witness_records(n_records: int = 200_000, slots: int = 4096,
                    associativity: int = 4, gc_every: int = 2048
                    ) -> tuple[int, float]:
    """records/s into the paper-geometry witness cache (accepts only)."""
    from repro.core.witness_cache import WitnessCache

    rng = random.Random(0)
    hashes = [rng.getrandbits(64) for _ in range(n_records)]
    cache = WitnessCache(slots=slots, associativity=associativity)
    record = cache.record
    gc = cache.gc
    pending: list[tuple[int, tuple[int, int]]] = []
    started = time.perf_counter()
    for i, key_hash in enumerate(hashes):
        rpc_id = (1, i)
        if record((key_hash,), rpc_id, "req"):
            pending.append((key_hash, rpc_id))
        if len(pending) >= gc_every:
            gc(pending)
            pending.clear()
    elapsed = time.perf_counter() - started
    return n_records, elapsed
