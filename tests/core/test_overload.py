"""Overload-protection unit and integration tests (ISSUE 6).

Covers the pieces of the RETRY_LATER contract individually: the
config validation, the jittered exponential backoff helper, master
admission control (bounded queue + shedding), the client's pushback
handling, and per-tenant fair admission on a shared witness endpoint.
"""

from __future__ import annotations

import dataclasses
import random

import pytest

from repro.core.config import CurpConfig, OverloadConfig, ReplicationMode
from repro.core.messages import RETRY_LATER, ReadArgs
from repro.core.witness import WitnessEndpoint
from repro.harness import TEST_PROFILE, build_cluster
from repro.kvstore import Write
from repro.rpc import AppError, RpcTransport
from repro.rpc.helpers import backoff_delay
from repro.sim.events import AllOf


# ----------------------------------------------------------------------
# config validation
# ----------------------------------------------------------------------
def test_overload_config_defaults_off():
    config = CurpConfig(f=1, mode=ReplicationMode.CURP)
    assert config.overload.enabled is False
    assert config.overload.witness_window_records == 0  # fairness off


def test_overload_config_validation():
    with pytest.raises(ValueError):
        OverloadConfig(max_queue_depth=0)
    with pytest.raises(ValueError):
        OverloadConfig(retry_after=0)
    with pytest.raises(ValueError):
        OverloadConfig(retry_after=500.0, retry_after_cap=100.0)
    with pytest.raises(ValueError):
        OverloadConfig(witness_window_records=-1)


# ----------------------------------------------------------------------
# backoff helper
# ----------------------------------------------------------------------
def test_backoff_delay_zero_base_is_free():
    assert backoff_delay(0, 0.0, 1_000.0, random.Random(0)) == 0.0
    assert backoff_delay(5, -1.0, 1_000.0, random.Random(0)) == 0.0


def test_backoff_delay_doubles_and_caps():
    rng = random.Random(1)
    for attempt, span in ((0, 100.0), (1, 200.0), (2, 400.0),
                          (3, 800.0), (4, 1_000.0), (10, 1_000.0)):
        for _ in range(20):
            delay = backoff_delay(attempt, 100.0, 1_000.0, rng)
            assert span / 2 <= delay < span


def test_backoff_delay_huge_attempt_does_not_overflow():
    delay = backoff_delay(10_000, 100.0, 5_000.0, random.Random(2))
    assert 2_500.0 <= delay < 5_000.0


def test_backoff_delay_deterministic_per_rng_state():
    assert (backoff_delay(3, 50.0, 10_000.0, random.Random(7))
            == backoff_delay(3, 50.0, 10_000.0, random.Random(7)))


# ----------------------------------------------------------------------
# master admission control + client pushback
# ----------------------------------------------------------------------
#: one worker × 200 µs/op — tiny capacity so a handful of concurrent
#: clients saturates the queue instantly
SLOW_PROFILE = dataclasses.replace(TEST_PROFILE, name="overload-unit",
                                   master_workers=1, execute_time=200.0)


def overloaded_cluster(enabled=True, seed=3, **overload_overrides):
    overrides = dict(max_queue_depth=2, retry_after=100.0,
                     retry_after_cap=1_000.0)
    overrides.update(overload_overrides)
    config = CurpConfig(f=1, mode=ReplicationMode.CURP, min_sync_batch=50,
                        idle_sync_delay=200.0, retry_backoff=50.0,
                        rpc_timeout=2_000.0, max_attempts=30,
                        overload=OverloadConfig(enabled=enabled, **overrides))
    return build_cluster(config, profile=SLOW_PROFILE, seed=seed)


def blast_updates(cluster, n_clients=3, per_client=8):
    """Spawn n_clients × per_client concurrent updates; run them all to
    completion and return the outcome list."""
    outcomes = []
    processes = []
    for c in range(n_clients):
        client = cluster.new_client(collect_outcomes=False)

        def one(client, key):
            outcome = yield from client.update(Write(key, 1))
            outcomes.append((client, outcome))
        for i in range(per_client):
            processes.append(client.host.spawn(one(client, f"k{c}-{i}"),
                                               name="blast"))
    cluster.run(AllOf(cluster.sim, processes), timeout=10_000_000.0)
    return outcomes


def test_master_sheds_updates_at_the_admission_bound():
    cluster = overloaded_cluster(enabled=True)
    outcomes = blast_updates(cluster)
    master = cluster.master()
    assert master.stats.shed_updates > 0
    # The pushback reached the clients, and every op still completed
    # (RETRY_LATER degrades to a delayed retry, never to data loss).
    clients = {id(c): c for c, _ in outcomes}.values()
    assert sum(c.pushbacks for c in clients) > 0
    assert all(outcome is not None for _, outcome in outcomes)
    assert master.stats.updates == len(outcomes)


def test_disabled_defenses_never_shed_or_pushback():
    cluster = overloaded_cluster(enabled=False)
    outcomes = blast_updates(cluster)
    master = cluster.master()
    assert master.stats.shed_updates == 0
    assert master.stats.shed_reads == 0
    assert all(client.pushbacks == 0 for client, _ in outcomes)


def test_read_shedding_respects_the_gate():
    """Reads meet the same admission bound as updates; only the
    watchdog's ``probe`` reads pass it (they time the worker pool)."""
    cluster = overloaded_cluster(enabled=True)
    client = cluster.new_client(collect_outcomes=False)
    cluster.run(client.update(Write("warm", 1)), timeout=1_000_000.0)
    processes = []
    # Saturate the worker queue with updates, then race reads into it.
    writer = cluster.new_client(collect_outcomes=False)
    for i in range(10):
        processes.append(writer.host.spawn(
            writer.update(Write(f"w{i}", i)), name="writer"))
    for _ in range(10):
        processes.append(client.host.spawn(client.read("warm"),
                                           name="reader"))
    prober = RpcTransport(cluster.network.add_host("prober"))

    def probe():
        return (yield prober.call("m0-host", "read",
                                  ReadArgs(key="warm", probe=True)))
    probes = [prober.host.spawn(probe(), name="probe") for _ in range(3)]
    cluster.run(AllOf(cluster.sim, processes + probes),
                timeout=10_000_000.0)
    master = cluster.master()
    assert master.stats.shed_updates > 0  # queue really was full
    assert master.stats.shed_reads > 0
    assert client.pushbacks > 0
    assert [p.value for p in probes] == [1, 1, 1]  # never shed


def test_pushback_delay_grows_exponentially_from_the_hint():
    cluster = overloaded_cluster(enabled=True)
    client = cluster.new_client()
    error = AppError(RETRY_LATER, {"retry_after": 100.0})
    for streak, span in ((0, 100.0), (1, 200.0), (3, 800.0), (6, 1_000.0)):
        for _ in range(10):
            delay = client._pushback_delay(error, streak)
            assert span / 2 <= delay < span
    # Without a hint the client falls back to its configured base.
    bare = client._pushback_delay(AppError(RETRY_LATER, None), 0)
    assert 50.0 <= bare < 100.0


# ----------------------------------------------------------------------
# per-tenant fair admission on a shared witness endpoint
# ----------------------------------------------------------------------
def test_admit_is_transparent_with_fairness_off(sim, network):
    endpoint = WitnessEndpoint(network.add_host("w"), slots=64)
    endpoint.serve("m0")
    for _ in range(1_000):
        assert endpoint._admit("m0")
    assert endpoint.stats.records_throttled == 0
    assert endpoint.tenant_records == {}  # zero bookkeeping


def test_admit_enforces_the_window_budget(sim, network):
    endpoint = WitnessEndpoint(network.add_host("w"), slots=64,
                               fair_window=1_000.0, window_records=4)
    endpoint.serve("m0")
    assert [endpoint._admit("m0") for _ in range(6)] \
        == [True] * 4 + [False] * 2
    assert endpoint.tenant_records["m0"] == 4
    assert endpoint.tenant_throttled["m0"] == 2
    assert endpoint.stats.records_throttled == 2
    # The next window refills the budget.
    sim.run(until=sim.now + 1_000.0)
    assert endpoint._admit("m0")


def test_admit_never_starves_an_under_share_tenant(sim, network):
    """The hot tenant exhausts the global budget; the quiet tenant is
    below its fair share and must still be admitted."""
    endpoint = WitnessEndpoint(network.add_host("w"), slots=64,
                               fair_window=1_000.0, window_records=4)
    endpoint.serve("hot")
    endpoint.serve("quiet")
    for _ in range(4):
        assert endpoint._admit("hot")
    assert not endpoint._admit("hot")  # at/over fair share (2) → rejected
    assert endpoint._admit("quiet")    # under fair share → admitted
    assert endpoint._admit("quiet")
    # At fair share with the budget spent, the quiet tenant throttles
    # too — the guarantee is no *starvation*, not unlimited overshoot.
    assert not endpoint._admit("quiet")
    assert endpoint.tenant_throttled == {"hot": 1, "quiet": 1}
    assert endpoint.tenant_records == {"hot": 4, "quiet": 2}


def test_admit_window_resets_clear_per_tenant_counts(sim, network):
    endpoint = WitnessEndpoint(network.add_host("w"), slots=64,
                               fair_window=500.0, window_records=2)
    endpoint.serve("m0")
    endpoint.serve("m1")
    assert endpoint._admit("m0") and endpoint._admit("m0")
    assert not endpoint._admit("m0")
    sim.run(until=sim.now + 500.0)
    # Fresh window: the same tenant is admitted again.
    assert endpoint._admit("m0")
    # Cumulative counters survive the reset (they feed the benches).
    assert endpoint.tenant_records["m0"] == 3
    assert endpoint.tenant_throttled["m0"] == 1
