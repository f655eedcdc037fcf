"""Core hot-path microbenchmarks: events/s, RPC round-trips/s, witness
records/s.

These are the wall-clock numbers every figure benchmark ultimately
rides on.  Each test prints its rate and asserts a sanity floor far
below what any machine reads; none is recorded in ``BENCH_core.json``
(wall clock's one gated authority is ``benchmarks/e2e/run.py``).  §5.2
of the paper measures ~1.27 M records/s on the real witness —
``test_witness_record_throughput`` is the comparable for our
pure-Python cache.
"""

from __future__ import annotations

import random
import time

from benchmarks.conftest import run_once
from repro.core.witness_cache import WitnessCache
from repro.harness.profiles import RAMCLOUD_PROFILE, TEST_PROFILE
from repro.net.latency import LatencyModel
from repro.net.network import Network
from repro.rpc.transport import RpcTransport
from repro.sim.simulator import Simulator


def _noop() -> None:
    pass


def drain_events(n_events: int, batch: int = 2048) -> float:
    """Dispatch-only events/s: pre-fill ``batch`` same-instant callbacks,
    time ``run()`` draining them; repeat."""
    sim = Simulator()
    schedule = sim.schedule_callback
    elapsed = 0.0
    for _ in range(max(1, n_events // batch)):
        for _ in range(batch):
            schedule(0.0, _noop)
        started = time.perf_counter()
        sim.run()
        elapsed += time.perf_counter() - started
    return sim.processed_events / elapsed


def schedule_and_drain(n_events: int, batch: int = 2048) -> float:
    """End-to-end events/s: scheduling is inside the timed region."""
    sim = Simulator()
    schedule = sim.schedule_callback
    started = time.perf_counter()
    for _ in range(max(1, n_events // batch)):
        for _ in range(batch):
            schedule(0.0, _noop)
        sim.run()
    return sim.processed_events / (time.perf_counter() - started)


def _rpc_pair(calibrated: bool = False):
    """A client and an echo server.  ``calibrated`` gives them
    ``RAMCLOUD_PROFILE``'s client / witness NIC costs and wire model in
    place of zero-cost hosts 2 µs apart."""
    profile = RAMCLOUD_PROFILE if calibrated else TEST_PROFILE
    sim = Simulator(seed=0)
    network = Network(sim, latency=LatencyModel(profile.latency()))
    client = RpcTransport(network.add_host(
        "client", tx_cost=profile.client.tx, rx_cost=profile.client.rx))
    server = RpcTransport(network.add_host(
        "server", tx_cost=profile.witness.tx, rx_cost=profile.witness.rx))
    server.register("echo", lambda args, ctx: args)
    return sim, client


def rpc_roundtrips(n_calls: int, calibrated: bool = False
                   ) -> tuple[float, float]:
    """(round trips/s, kernel events per round trip) for ``n_calls``
    back-to-back ``call_cb`` round trips: the continuation issues the
    next call straight from response delivery — no per-call event,
    queue dispatch, or generator resume."""
    sim, client = _rpc_pair(calibrated)
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
    elapsed = time.perf_counter() - started
    return n_calls / elapsed, sim.processed_events / n_calls


def rpc_roundtrips_yield(n_calls: int) -> float:
    """Round trips/s on the generator path: one process yielding a
    ``call()`` event per round trip."""
    sim, client = _rpc_pair()

    def loop():
        for i in range(n_calls):
            yield client.call("server", "echo", i)

    done = sim.process(loop())
    started = time.perf_counter()
    sim.run(done)
    return n_calls / (time.perf_counter() - started)


def witness_records(n_records: int, gc_every: int = 2048) -> float:
    """records/s into the paper-geometry witness cache (4096 slots,
    4-way; accepts only), with a ``gc`` every ``gc_every`` accepts."""
    rng = random.Random(0)
    hashes = [rng.getrandbits(64) for _ in range(n_records)]
    cache = WitnessCache(slots=4096, associativity=4)
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
    return n_records / (time.perf_counter() - started)


def test_event_loop_dispatch_throughput(benchmark, scale):
    rate = run_once(benchmark, lambda: drain_events(int(400_000 * scale)))
    print(f"\nevent loop (dispatch only): {rate / 1e6:.2f} M events/s")
    benchmark.extra_info["events_per_sec"] = rate
    assert rate > 500_000  # sanity floor, far below observed ~6 M/s


def test_event_loop_schedule_dispatch_throughput(benchmark, scale):
    rate = run_once(benchmark,
                    lambda: schedule_and_drain(int(400_000 * scale)))
    print(f"\nevent loop (schedule+dispatch): {rate / 1e6:.2f} M events/s")
    benchmark.extra_info["events_per_sec"] = rate
    assert rate > 300_000


def test_rpc_roundtrip_throughput(benchmark, scale):
    """The call_cb completion fast path (the canonical hot path)."""
    rate, _events = run_once(
        benchmark, lambda: rpc_roundtrips(int(20_000 * scale)))
    print(f"\nRPC round trips (call_cb): {rate / 1e3:.1f} k round-trips/s")
    benchmark.extra_info["roundtrips_per_sec"] = rate
    assert rate > 5_000


def test_rpc_roundtrip_throughput_calibrated(benchmark, scale):
    """The same loop with RAMCLOUD_PROFILE's NIC costs and wire: RX
    serialization and the latency sampler are on its path, and a round
    trip is two kernel records — one per message."""
    rate, events_per_roundtrip = run_once(
        benchmark,
        lambda: rpc_roundtrips(int(20_000 * scale), calibrated=True))
    print(f"\nRPC round trips (call_cb, calibrated): "
          f"{rate / 1e3:.1f} k round-trips/s, "
          f"{events_per_roundtrip:.2f} events each")
    benchmark.extra_info["roundtrips_per_sec"] = rate
    benchmark.extra_info["events_per_roundtrip"] = events_per_roundtrip
    assert rate > 5_000
    assert events_per_roundtrip == 2.0


def test_rpc_roundtrip_throughput_yield(benchmark, scale):
    """The generator/event path, for comparison with the fast path."""
    rate = run_once(benchmark,
                    lambda: rpc_roundtrips_yield(int(20_000 * scale)))
    print(f"\nRPC round trips (yield): {rate / 1e3:.1f} k round-trips/s")
    benchmark.extra_info["roundtrips_per_sec"] = rate
    assert rate > 5_000


def test_witness_record_throughput(benchmark, scale):
    rate = run_once(benchmark,
                    lambda: witness_records(int(200_000 * scale)))
    print(f"\nwitness cache: {rate / 1e6:.2f} M records/s "
          f"(paper witness: ~1.27 M/s)")
    benchmark.extra_info["records_per_sec"] = rate
    assert rate > 100_000
