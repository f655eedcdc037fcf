"""What a run keeps alive: per-op records, per-write retained bytes, and
a stopped cluster's memory (docs/PERFORMANCE.md, "Retained state per
committed op")."""

from __future__ import annotations

import dataclasses
import gc
import pickle
import tracemalloc
import weakref

import pytest

from repro.baselines import curp_config
from repro.harness.builder import build_cluster
from repro.harness.profiles import RAMCLOUD_PROFILE, TEST_PROFILE
from repro.kvstore.hashing import key_hash
from repro.kvstore.log import LogEntry
from repro.kvstore.store import StoredObject
from repro.metrics.stats import LatencyRecorder
from repro.rifl.ids import RpcId, TxnId
from repro.rifl.result_registry import CompletionRecord
from repro.sim.simulator import Simulator
from repro.verify.history import OpRecord
from repro.workload.clients import ClosedLoopClient
from repro.workload.openloop import ConstantRate, OpenLoopEngine, TenantSpec
from repro.workload.ycsb import YCSB_WRITE_ONLY, YcsbWorkload

# ---------------------------------------------------------------------------
# one slotted record per committed op
# ---------------------------------------------------------------------------

#: (instance, same value built again, a field and another value for it)
_RECORDS = [
    (LogEntry(3, (("k", "v", 2),), RpcId(1, 4), 2, 7.5),
     LogEntry(3, (("k", "v", 2),), RpcId(1, 4), 2, 7.5), "index", 4),
    (StoredObject("v", 2, 3, 7.5), StoredObject("v", 2, 3, 7.5),
     "version", 3),
    (RpcId(1, 4), RpcId(1, 4), "seq", 5),
    (TxnId(1, 4), TxnId(1, 4), "client_id", 2),
    (CompletionRecord(RpcId(1, 4), 2, 3), CompletionRecord(RpcId(1, 4), 2, 3),
     "log_position", 9),
    (OpRecord(1, "k", "write", "v", None, 1.0, None),
     OpRecord(1, "k", "write", "v", None, 1.0, None), "result", "v"),
]


@pytest.mark.parametrize("record, twin, field, other", _RECORDS,
                         ids=lambda r: type(r).__name__)
def test_per_op_records_are_slotted_and_behave_as_dataclasses(
        record, twin, field, other):
    cls = type(record)
    assert "__slots__" in vars(cls)
    assert not hasattr(record, "__dict__")
    assert record == twin and record is not twin
    if cls.__hash__ is None:            # mutable: unhashable, as before
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(record) == hash(twin)
    changed = dataclasses.replace(record, **{field: other})
    assert getattr(changed, field) == other and changed != record
    assert dataclasses.replace(changed, **{field: getattr(record, field)}) \
        == record
    assert pickle.loads(pickle.dumps(record)) == record


def test_rifl_ids_keep_their_lexicographic_order():
    ids = [RpcId(2, 1), RpcId(1, 9), RpcId(1, 2)]
    assert sorted(ids) == [RpcId(1, 2), RpcId(1, 9), RpcId(2, 1)]
    assert TxnId(1, 2) < TxnId(1, 3) < TxnId(2, 0)
    assert str(RpcId(1, 2)) == "1.2" and str(TxnId(1, 2)) == "txn:1.2"


# ---------------------------------------------------------------------------
# retained bytes per committed write
# ---------------------------------------------------------------------------

#: bytes a committed write leaves behind in the closed-loop CURP f=3 run
#: below.  Measured 1,025 / 1,017 on CPython 3.11 / 3.12 with each
#: write's state kept once; keeping a materialized value copy and a dict
#: entry per index on every backup, and a __dict__ per record, measured
#: 1,330 / 1,298.
RETAINED_BYTES_PER_WRITE = 1_150


def test_retained_bytes_per_committed_write_are_bounded():
    """Everything allocated while 16 closed-loop CURP f=3 clients write
    uniformly over 1 M keys for 4,000 µs — after 1,000 µs of warm-up,
    and once ``settle()`` has drained syncs and witness gc — and still
    alive at the end, per committed write: the master's log and store,
    three backups' WALs, RIFL records.  The ``key_hash`` memo starts
    empty, so the value does not depend on what ran before."""
    key_hash.cache_clear()
    cluster = build_cluster(curp_config(3), profile=RAMCLOUD_PROFILE, seed=11)
    sim = cluster.sim
    latency = LatencyRecorder()
    loops = [ClosedLoopClient(client=cluster.new_client(collect_outcomes=False),
                              stream=YCSB_WRITE_ONLY.generator(),
                              write_latency=latency, read_latency=latency)
             for _ in range(16)]
    for loop in loops:
        loop.client.host.spawn(loop.loop(), name="workload")
    sim.run(until=sim.now + 1_000.0)
    before = sum(loop.operations for loop in loops)
    gc.collect()
    tracemalloc.start()
    try:
        sim.run(until=sim.now + 4_000.0)
        for loop in loops:
            loop.running = False
        cluster.settle()
        gc.collect()
        retained, _peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    writes = sum(loop.operations for loop in loops) - before
    assert writes > 3_000
    assert retained / writes <= RETAINED_BYTES_PER_WRITE, \
        f"{retained / writes:.0f} B retained per committed write"


# ---------------------------------------------------------------------------
# a stopped cluster is freed in one collection
# ---------------------------------------------------------------------------

def _live_simulators() -> int:
    return sum(1 for obj in gc.get_objects() if type(obj) is Simulator)


def _undefended_overload():
    """10x a 40 k ops/s master's capacity, open loop, no overload
    defence: the run stops with well over a thousand operations
    suspended, many of them holding the RPC error of a failed attempt."""
    profile = dataclasses.replace(TEST_PROFILE, master_workers=2,
                                  execute_time=50.0)
    config = curp_config(1, rpc_timeout=2_000.0, max_attempts=6,
                         retry_backoff=200.0)
    cluster = build_cluster(config, profile=profile, seed=7)
    mix = YcsbWorkload(name="mix", read_fraction=0.5, item_count=200,
                       value_size=8)
    engine = OpenLoopEngine(
        cluster, [TenantSpec("t", ConstantRate(400_000.0), mix, 16)],
        max_window=32, max_queue_wait=5_000.0)
    engine.run(duration=4_000.0, warmup=1_000.0)
    return cluster


def test_closed_cluster_is_freed_by_one_collection():
    """An operation process that retried keeps its last error, whose
    traceback holds the generator's own frame.  When the collector
    finalizes such a suspended generator, CPython moves that frame into
    a frame object outside the garbage being collected, which keeps the
    whole cluster alive until the next collection.  ``close()`` closes
    the generators first, so one collection frees everything.  (A
    weakref alone cannot show this: it is cleared before finalizers
    run, even when the object then survives.)"""
    gc.collect()
    gc.collect()
    baseline = _live_simulators()
    cluster = _undefended_overload()
    in_flight = sum(len(host._processes)
                    for host in cluster.network.hosts.values())
    assert in_flight > 1_000
    cluster.close()
    sim = weakref.ref(cluster.sim)
    del cluster
    gc.collect()
    assert sim() is None
    assert _live_simulators() == baseline
