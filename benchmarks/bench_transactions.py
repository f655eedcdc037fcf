"""Cross-shard commutative transaction benchmarks (ISSUE 10, §B.2).

The §B.2 claim: because each shard's prepare rides the normal CURP
update path (master + witness records), a multi-shard transaction
whose keys commute with everything in flight commits in **1 RTT** —
no coordinator, no lock service.  Two virtual-time series
(deterministic per seed):

1. **Fast-commit rate under low contention** — disjoint key pairs
   spanning two shards per client; the fraction of committed
   transactions where *every* shard's prepare completed speculatively
   (``txn.fast_path``).  Acceptance: ≥ 90%.  Also reports commit
   latency percentiles: a 2-shard fast commit should cost about one
   shard's update latency (the fan-out is concurrent), not two.

2. **Contention ladder** — all clients hammer the same two cross-shard
   pairs through ``run_transaction``; reports the abort
   rate and that every transaction still eventually commits (the
   ordered slow path's anti-livelock guarantee).
"""

from __future__ import annotations

from benchmarks.conftest import run_once
from repro.core.config import CurpConfig, ReplicationMode
from repro.core.transactions import (
    Transaction,
    TransactionAborted,
    run_transaction,
)
from repro.harness.builder import build_cluster
from repro.metrics import format_table


def _txn_cluster(seed: int = 7, n_masters: int = 4, **overrides):
    defaults = dict(f=3, mode=ReplicationMode.CURP, min_sync_batch=8,
                    idle_sync_delay=100.0, retry_backoff=20.0,
                    rpc_timeout=2_000.0, max_attempts=50)
    defaults.update(overrides)
    return build_cluster(CurpConfig(**defaults), n_masters=n_masters,
                         seed=seed)


def _cross_shard_pairs(cluster, count: int, tag: str) -> list[tuple]:
    """``count`` key pairs, each spanning two distinct shards."""
    pairs, stash = [], {}
    i = 0
    while len(pairs) < count:
        key = f"{tag}{i}"
        i += 1
        shard = cluster.shard_for(key)
        other = next((s for s in stash if s != shard), None)
        if other is None:
            stash.setdefault(shard, []).append(key)
            continue
        pairs.append((stash[other].pop(), key))
        if not stash[other]:
            del stash[other]
    return pairs


def fast_commit_series(n_clients: int = 8, txns_per_client: int = 25,
                       seed: int = 7) -> dict:
    """Low contention: every transaction touches its own fresh pair of
    keys on two distinct shards, so nothing conflicts and every commit
    should take the speculative 1-RTT path on both shards."""
    cluster = _txn_cluster(seed=seed)
    committed = [0]
    fast = [0]
    aborted = [0]
    latencies: list[float] = []
    processes = []
    for index in range(n_clients):
        client = cluster.new_client(collect_outcomes=False)
        pairs = _cross_shard_pairs(cluster, txns_per_client, f"c{index}-")

        def load(client=client, pairs=pairs, index=index):
            for i, (k0, k1) in enumerate(pairs):
                txn = Transaction(client)
                txn.write(k0, f"{index}-{i}-a")
                txn.write(k1, f"{index}-{i}-b")
                start = cluster.sim.now
                try:
                    yield from txn.commit()
                except TransactionAborted:
                    aborted[0] += 1
                    continue
                latencies.append(cluster.sim.now - start)
                committed[0] += 1
                if txn.fast_path:
                    fast[0] += 1
        processes.append(client.host.spawn(load(), name=f"txn{index}"))
    cluster.run(cluster.sim.all_of(processes), timeout=1e9)
    latencies.sort()
    total = n_clients * txns_per_client
    return {
        "transactions": total,
        "committed": committed[0],
        "aborted": aborted[0],
        "fast_commits": fast[0],
        "fast_commit_rate": committed[0] and fast[0] / committed[0],
        "commit_p50": latencies[len(latencies) // 2] if latencies else 0.0,
        "commit_p99": (latencies[int(len(latencies) * 0.99)]
                       if latencies else 0.0),
    }


def contention_series(n_clients: int = 6, txns_per_client: int = 6,
                      seed: int = 11) -> dict:
    """High contention: every client transfers over the same two
    cross-shard pairs.  Aborts are expected; permanent failure is not —
    the ordered retry path must serialize the contenders."""
    cluster = _txn_cluster(seed=seed, n_masters=2, retry_backoff=30.0)
    pairs = _cross_shard_pairs(cluster, 2, "hot")
    committed = [0]
    attempts = [0]
    processes = []
    for index in range(n_clients):
        client = cluster.new_client(collect_outcomes=False)

        def load(client=client, index=index):
            for i in range(txns_per_client):
                k0, k1 = pairs[i % len(pairs)]

                def body(txn, k0=k0, k1=k1):
                    attempts[0] += 1
                    a = yield from txn.read(k0)
                    b = yield from txn.read(k1)
                    txn.write(k0, (a or 0) + 1)
                    txn.write(k1, (b or 0) - 1)
                yield from run_transaction(
                    client, body, max_attempts=100)
                committed[0] += 1
        processes.append(client.host.spawn(load(), name=f"hot{index}"))
    cluster.run(cluster.sim.all_of(processes), timeout=1e9)
    total = n_clients * txns_per_client
    return {
        "transactions": total,
        "committed": committed[0],
        "attempts": attempts[0],
        "abort_rate": (attempts[0] - committed[0]) / max(attempts[0], 1),
    }


def transaction_series(seed: int = 7) -> dict:
    return {
        "low_contention": fast_commit_series(seed=seed),
        "contended": contention_series(),
    }


# ---------------------------------------------------------------------------
# pytest-benchmark entry points (CI perf smoke)
# ---------------------------------------------------------------------------

def test_transaction_fast_commit_rate(benchmark, scale):
    series = run_once(benchmark, fast_commit_series)
    print()
    print(format_table(
        ["transactions", "committed", "fast commits", "rate",
         "commit p50 (µs)"],
        [[series["transactions"], series["committed"],
          series["fast_commits"], round(series["fast_commit_rate"], 3),
          round(series["commit_p50"], 1)]],
        title="Cross-shard 1-RTT commits under low contention"))
    # ISSUE 10 acceptance: ≥ 90% of low-contention cross-shard commits
    # take the speculative 1-RTT path on every shard.
    assert series["committed"] == series["transactions"]
    assert series["fast_commit_rate"] >= 0.90, \
        f"fast-commit rate {series['fast_commit_rate']:.3f} < 0.90"
    benchmark.extra_info["fast_commit_rate"] = series["fast_commit_rate"]
    benchmark.extra_info["commit_p50"] = series["commit_p50"]


def test_transaction_contention_converges(benchmark, scale):
    series = run_once(benchmark, contention_series)
    print()
    print(format_table(
        ["transactions", "committed", "attempts", "abort rate"],
        [[series["transactions"], series["committed"], series["attempts"],
          round(series["abort_rate"], 3)]],
        title="Contended cross-shard transfers (ordered slow path)"))
    # Anti-livelock: every contended transaction eventually commits.
    assert series["committed"] == series["transactions"]
    benchmark.extra_info["abort_rate"] = series["abort_rate"]
