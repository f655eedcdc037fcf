"""Property test (ISSUE 10 satellite): random interleavings of single-
and cross-shard transactions over random key→shard layouts are always
linearizable and never commit a torn multi-shard write.

Hypothesis draws the layout (shard count and which keys the programs
touch — key→shard assignment falls out of the hash ring, so varying
the key pool varies the layout), a program per client (a mix of plain
writes, plain reads, and multi-key cross-shard transactions), and the
think-time between steps.  The whole run is deterministic: the only
randomness is hypothesis's, so every falsifying example replays
exactly.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.client import ClientGaveUp
from repro.core.config import CurpConfig, ReplicationMode
from repro.core.transactions import (
    TransactionAborted,
    TransactionInDoubt,
    _abort_backoff,
)
from repro.harness import build_cluster
from repro.kvstore import Write
from repro.verify import (
    History,
    HistoryClient,
    RecordedTransaction,
    TxnTrace,
    audit_atomicity,
    check_linearizable,
)

KEY_POOL = [f"pk{i}" for i in range(12)]

# One program step: a plain write, a plain read, or a cross-shard
# transaction over 2-3 distinct keys (distinct shards not required —
# whether a transaction actually spans shards is part of the drawn
# layout).
plain_write = st.tuples(st.just("write"), st.sampled_from(KEY_POOL))
plain_read = st.tuples(st.just("read"), st.sampled_from(KEY_POOL))
txn_step = st.tuples(
    st.just("txn"),
    st.lists(st.sampled_from(KEY_POOL), min_size=2, max_size=3,
             unique=True))
program = st.lists(st.one_of(plain_write, plain_read, txn_step),
                   min_size=1, max_size=6)


@given(
    n_masters=st.integers(min_value=1, max_value=3),
    programs=st.lists(program, min_size=1, max_size=3),
    think=st.integers(min_value=0, max_value=120),
)
@settings(max_examples=40, deadline=None)
def test_random_interleavings_stay_linearizable_and_atomic(
        n_masters, programs, think):
    config = CurpConfig(f=3, mode=ReplicationMode.CURP, min_sync_batch=8,
                        idle_sync_delay=100.0, retry_backoff=10.0,
                        rpc_timeout=300.0, max_attempts=50)
    cluster = build_cluster(config, n_masters=n_masters)
    history = History()
    traces: list[TxnTrace] = []
    processes = []
    for index, steps in enumerate(programs):
        client = cluster.new_client(collect_outcomes=False)
        recorded = HistoryClient(client, history)

        def script(client=client, recorded=recorded, index=index,
                   steps=steps):
            for op_number, (kind, arg) in enumerate(steps):
                if kind == "write":
                    yield from recorded.update(
                        Write(arg, f"c{index}-{op_number}"))
                elif kind == "read":
                    yield from recorded.read(arg)
                else:
                    base = f"t{index}-{op_number}"
                    for attempt in range(30):
                        txn = RecordedTransaction(
                            client, history, ordered=attempt > 0)
                        for j, key in enumerate(arg):
                            txn.write(key, f"{base}-{j}")
                        try:
                            yield from txn.commit()
                            traces.append(TxnTrace(txn, "committed"))
                            break
                        except TransactionInDoubt:
                            traces.append(TxnTrace(txn, "unknown"))
                            break
                        except ClientGaveUp:
                            traces.append(TxnTrace(txn, "aborted"))
                            break
                        except TransactionAborted:
                            traces.append(TxnTrace(txn, "aborted"))
                            yield from _abort_backoff(client, attempt)
                if think:
                    yield cluster.sim.timeout(float(think))
        processes.append(client.host.spawn(script(), name=f"prog{index}"))

    deadline = cluster.sim.now + 10_000_000.0
    while not all(p.triggered for p in processes):
        if cluster.sim.now > deadline or not cluster.sim.step():
            break
    assert all(p.triggered for p in processes), "a program got stuck"
    # No fault injection: every transaction must resolve one way or the
    # other, and the committed ones must not be torn.
    assert all(t.status in ("committed", "aborted") for t in traces)
    check_linearizable(history)
    assert audit_atomicity(traces) == []
