"""Tests for the Raft substrate and the CURP consensus extension (§A.2)."""

from __future__ import annotations

import pytest

from repro.consensus import client as consensus_client
from repro.consensus import RaftConfig, RaftCurpClient, RaftNode, superquorum_size
from repro.kvstore import Increment, Read, Write
from repro.net import Network
from repro.net.latency import LatencyModel
from repro.sim import Fixed, Simulator


def build_group(n=3, curp=True, seed=0):
    sim = Simulator(seed=seed)
    network = Network(sim, latency=LatencyModel(Fixed(20.0)))
    names = [f"r{i}" for i in range(n)]
    nodes = []
    config = RaftConfig(curp=curp)
    for name in names:
        host = network.add_host(name)
        nodes.append(RaftNode(host, name, names, config=config))
    return sim, network, nodes


def leader_of(nodes):
    leaders = [n for n in nodes if n.role == "leader" and n.host.alive]
    return leaders[0] if len(leaders) == 1 else None


def wait_for_leader(sim, nodes, deadline=200_000.0):
    end = sim.now + deadline
    while sim.now < end:
        sim.run(until=sim.now + 1_000.0)
        current = leader_of(nodes)
        if current is not None and current.serving:
            # A leader exists; make sure no stale leader also claims it.
            return current
    raise AssertionError("no leader elected")


def add_client(sim, network, nodes):
    host = network.add_host(f"client-{sim.rng.randrange(1_000_000)}")
    return RaftCurpClient(host, [n.name for n in nodes])


def test_superquorum_sizes():
    assert superquorum_size(1) == 3   # of 3 replicas
    assert superquorum_size(2) == 4   # of 5 replicas
    assert superquorum_size(3) == 6   # of 7 replicas


def test_single_leader_elected():
    sim, network, nodes = build_group()
    leader = wait_for_leader(sim, nodes)
    assert leader is not None
    terms = {n.current_term for n in nodes}
    assert len(terms) == 1  # all converged


def test_update_replicates_and_commits():
    sim, network, nodes = build_group()
    wait_for_leader(sim, nodes)
    client = add_client(sim, network, nodes)
    result, fast = sim.run(sim.process(client.update(Write("x", 1))))
    assert result == 1
    sim.run(until=sim.now + 10_000.0)
    for node in nodes:
        assert node.store.read("x") == 1  # applied everywhere


def test_curp_fast_path_one_rtt():
    """With all witnesses up, updates complete speculatively."""
    sim, network, nodes = build_group()
    wait_for_leader(sim, nodes)
    client = add_client(sim, network, nodes)
    sim.run(sim.process(client.find_leader()))
    start = sim.now
    result, fast = sim.run(sim.process(client.update(Write("a", 1))))
    elapsed = sim.now - start
    assert fast is True
    # 1 RTT = 40 µs (20 µs links); commit would add another ~40.
    assert elapsed < 80.0
    assert client.fast_path_updates == 1


def test_conflicting_update_takes_commit_path():
    sim, network, nodes = build_group()
    wait_for_leader(sim, nodes)
    # Two *concurrent* writes to one key: the later one to reach the
    # leader must find the earlier still uncommitted and wait for its
    # quorum commit.  (Back-to-back sequential writes no longer
    # conflict — the callback completion path processes follower acks
    # at delivery, so the first write commits before a second
    # closed-loop write can arrive.)
    client1 = add_client(sim, network, nodes)
    client2 = add_client(sim, network, nodes)
    first = sim.process(client1.update(Write("k", 1)))
    second = sim.process(client2.update(Write("k", 2)))
    _result1, fast1 = sim.run(first)
    _result2, fast2 = sim.run(second)
    assert not (fast1 and fast2)  # at most one can win the 1-RTT path
    leader = leader_of(nodes)
    assert leader.stats["conflict_commits"] >= 1


def test_read_sees_latest_committed():
    sim, network, nodes = build_group()
    wait_for_leader(sim, nodes)
    client = add_client(sim, network, nodes)
    sim.run(sim.process(client.update(Write("x", "v1"))))
    value = sim.run(sim.process(client.read("x")))
    assert value == "v1"


def test_leader_crash_completed_update_survives():
    """The §A.2 safety property: a speculatively-completed update
    (superquorum of witnesses) survives a leader crash via replay."""
    sim, network, nodes = build_group()
    old_leader = wait_for_leader(sim, nodes)
    client = add_client(sim, network, nodes)
    result, fast = sim.run(sim.process(client.update(Write("precious", 42))))
    assert fast is True
    # Crash the leader before the entry commits anywhere... it may have
    # committed already (heartbeats are fast); force the scenario by
    # crashing immediately after the reply.
    old_leader.host.crash()
    new_leader = wait_for_leader(sim, nodes)
    assert new_leader is not old_leader
    sim.run(until=sim.now + 20_000.0)
    value = sim.run(sim.process(client.read("precious")))
    assert value == 42


def test_leader_crash_exactly_once_increment():
    sim, network, nodes = build_group()
    old_leader = wait_for_leader(sim, nodes)
    client = add_client(sim, network, nodes)
    result, _fast = sim.run(sim.process(client.update(Increment("c", 1))))
    assert result == 1
    old_leader.host.crash()
    wait_for_leader(sim, nodes)
    sim.run(until=sim.now + 20_000.0)
    # Replay + RIFL: the increment applied exactly once.
    value = sim.run(sim.process(client.read("c")))
    assert value == 1


def test_witness_replay_when_append_entries_lost():
    """Force the §A.2 replay: AppendEntries blocked (leader partitioned
    from followers) while the client's witness records still reach the
    follower replicas.  The update completes via superquorum, the
    leader dies, and ONLY the witness replay can save the operation —
    no follower ever saw the log entry."""
    sim, network, nodes = build_group(n=5, seed=11)
    leader = wait_for_leader(sim, nodes)
    followers = [n for n in nodes if n is not leader]
    client = add_client(sim, network, nodes)
    sim.run(sim.process(client.find_leader()))
    # Block replication, keep client paths open.
    for follower in followers:
        network.partition(leader.name, follower.name)
    result, fast = sim.run(sim.process(client.update(Write("only-w", 7))),
                           max_steps=5_000_000)
    assert fast is True  # leader reply + 5/5 witness accepts
    assert all(f.last_log_index() < leader.last_log_index()
               for f in followers)  # no follower has the entry
    leader.host.crash()
    network.heal_all()
    new_leader = wait_for_leader(sim, followers)
    assert new_leader.stats["replayed"] >= 1
    sim.run(until=sim.now + 20_000.0)
    value = sim.run(sim.process(client.read("only-w")))
    assert value == 7


def test_zombie_leader_client_rejected_by_witness_terms(monkeypatch):
    """§A.2: records tagged with an old term are rejected, so a client
    of a deposed leader cannot complete the fast path."""
    sim, network, nodes = build_group(n=3)
    # a shorter give-up than the witnesses' horizon assumes
    monkeypatch.setattr(consensus_client, "MAX_ATTEMPTS", 8)
    old_leader = wait_for_leader(sim, nodes)
    # Partition the old leader away from the other replicas (it still
    # believes it leads).
    for node in nodes:
        if node is not old_leader:
            network.partition(old_leader.name, node.name)
    new_leader = wait_for_leader(
        sim, [n for n in nodes if n is not old_leader])
    assert new_leader.current_term > old_leader.current_term
    # A client that only knows the old leader/term:
    client = add_client(sim, network, nodes)
    client.leader = old_leader.name
    client.term = old_leader.current_term
    # The witnesses of the *new* term reject the stale-term records, so
    # the fast path is impossible; the slow path also fails at the old
    # leader (it cannot commit); the client re-finds the new leader and
    # completes there.
    result, fast = sim.run(sim.process(client.update(Write("z", 9))),
                           max_steps=5_000_000)
    assert client.leader == new_leader.name
    sim.run(until=sim.now + 20_000.0)
    assert new_leader.store.read("z") == 9
    # The old leader never committed it.
    assert old_leader.store.read("z") is None


def test_five_replicas_superquorum_fast_path():
    sim, network, nodes = build_group(n=5, seed=3)
    wait_for_leader(sim, nodes)
    client = add_client(sim, network, nodes)
    result, fast = sim.run(sim.process(client.update(Write("a", 1))))
    assert fast is True  # 4 of 5 witnesses needed; all 5 up


def test_five_replicas_fast_path_fails_below_superquorum():
    """f=2: superquorum is 4; with two witness-crashed replicas only 3
    can accept → slow path."""
    sim, network, nodes = build_group(n=5, seed=4)
    leader = wait_for_leader(sim, nodes)
    followers = [n for n in nodes if n is not leader]
    followers[0].host.crash()
    followers[1].host.crash()
    client = add_client(sim, network, nodes)
    sim.run(sim.process(client.find_leader()))
    result, fast = sim.run(sim.process(client.update(Write("a", 1))),
                           max_steps=5_000_000)
    assert fast is False  # completed, but via commit
    assert client.completed_updates == 1


def test_committed_entries_gcd_from_witness_components():
    """§3.5 for consensus: after commit, witness records are dropped so
    later writes to the same key regain the 1-RTT fast path."""
    sim, network, nodes = build_group()
    wait_for_leader(sim, nodes)
    client = add_client(sim, network, nodes)
    result, fast = sim.run(sim.process(client.update(Write("k", 1))))
    assert fast is True
    # Let the commit + gc land everywhere.
    sim.run(until=sim.now + 5_000.0)
    assert all(n.witness.cache.occupied_slots() == 0 for n in nodes
               if n.host.alive)
    # The same key is immediately fast again (no stale witness record).
    result, fast = sim.run(sim.process(client.update(Write("k", 2))))
    assert fast is True


def test_repeated_same_key_writes_recover_fast_path():
    sim, network, nodes = build_group(seed=13)
    wait_for_leader(sim, nodes)
    client = add_client(sim, network, nodes)
    fast_count = 0
    for i in range(5):
        _result, fast = sim.run(sim.process(client.update(Write("hot", i))),
                                max_steps=5_000_000)
        fast_count += bool(fast)
        sim.run(until=sim.now + 3_000.0)  # commit + witness gc settle
    # With gc working, at least the later writes are fast.
    assert fast_count >= 3


def test_noncurp_mode_always_commits():
    sim, network, nodes = build_group(curp=False)
    wait_for_leader(sim, nodes)
    client = add_client(sim, network, nodes)
    result, fast = sim.run(sim.process(client.update(Write("a", 1))))
    assert fast is False
    leader = leader_of(nodes)
    assert leader.stats["speculative"] == 0


def test_log_consistency_after_partition_heal():
    sim, network, nodes = build_group(n=3, seed=7)
    leader = wait_for_leader(sim, nodes)
    client = add_client(sim, network, nodes)
    sim.run(sim.process(client.update(Write("before", 1))))
    # Partition a follower; keep writing.
    follower = next(n for n in nodes if n.role == "follower")
    network.isolate(follower.name)
    for i in range(3):
        sim.run(sim.process(client.update(Write(f"during{i}", i))),
                max_steps=5_000_000)
    network.rejoin(follower.name)
    sim.run(until=sim.now + 30_000.0)
    # The healed follower caught up.
    assert follower.store.read("before") == 1
    for i in range(3):
        assert follower.store.read(f"during{i}") == i


def test_restart_rebuilds_from_persistent_log():
    sim, network, nodes = build_group(seed=9)
    wait_for_leader(sim, nodes)
    client = add_client(sim, network, nodes)
    sim.run(sim.process(client.update(Write("x", "durable"))))
    sim.run(until=sim.now + 10_000.0)
    victim = next(n for n in nodes if n.role == "follower")
    applied_before = victim.store.read("x")
    victim.host.crash()
    victim.host.restart()
    sim.run(until=sim.now + 30_000.0)
    assert victim.store.read("x") == "durable" == applied_before


def test_update_rejects_a_read():
    """A read has no business on the witnesses: recording its key would
    reject later writes to it until the next commit's gc."""
    sim, network, nodes = build_group()
    client = add_client(sim, network, nodes)
    with pytest.raises(ValueError):
        next(client.update(Read("x")))


def test_witness_gc_reaches_every_peer_in_one_round():
    """f=2: a commit's gc leaves for all four peers at once, so a
    same-key write issued one gc round (one RTT) after the previous
    write commits finds every witness component clean and completes
    on the fast path.  Peer by peer, the last peer would hold the
    committed record for three more round trips and reject the write,
    leaving it below the superquorum of 4."""
    sim, network, nodes = build_group(n=5, seed=3)
    leader = wait_for_leader(sim, nodes)
    client = add_client(sim, network, nodes)
    sim.run(sim.process(client.find_leader()))
    _result, fast = sim.run(sim.process(client.update(Write("k", 1))))
    assert fast is True
    committed = leader.last_log_index()
    while leader.commit_index < committed:
        sim.step()
    sim.run(until=sim.now + 2 * 20.0)  # one gc round trip
    _result, fast = sim.run(sim.process(client.update(Write("k", 2))))
    assert fast is True


def test_frozen_witness_component_stays_frozen_until_reset():
    """A witness frozen by a leader change's collection rejects records,
    even ones carrying a newer term, until ``w_reset`` thaws it."""
    from repro.consensus.raft import RAFT_WITNESS
    from repro.core.messages import (RECORD_ACCEPTED, RECORD_REJECTED,
                                     RecordArgs, RecordedRequest)
    from repro.core.witness import MODE_RECOVERY
    from repro.rifl import RpcId

    sim, _network, nodes = build_group(n=3, seed=1)
    node = nodes[0]
    op = Write("f", 1)

    def record(term, seq):
        rpc_id = RpcId(7, seq)
        return node._handle_record(
            (term, RecordArgs(RAFT_WITNESS, op.touched_hashes(), rpc_id,
                              RecordedRequest(op, rpc_id))), None)

    term = node.current_term + 1
    assert record(term, 1) == RECORD_ACCEPTED
    assert len(node._handle_w_recovery(term + 1, None)) == 1
    assert record(term + 2, 2) == RECORD_REJECTED
    assert node.witness.mode == MODE_RECOVERY
    node._handle_w_reset(term + 2, None)
    assert node.witness.cache.occupied_slots() == 0
    assert record(term + 2, 2) == RECORD_ACCEPTED


def test_orphan_on_witnesses_is_retried_without_a_leader_change():
    """§4.5 on Raft: a client recorded a Write on every witness
    component, then died before its propose reached the leader.  Once
    the record is older than any client's retry horizon, a conflicting
    write's rejection makes it a suspect, the leader's gc round hands it
    to ``retry_orphans``, which appends it to the log, and its commit's
    gc collects every copy — all within one term."""
    from repro.consensus.client import suspect_after
    from repro.consensus.raft import RAFT_WITNESS
    from repro.core.messages import RecordArgs, RecordedRequest
    from repro.rifl import RpcId

    sim, network, nodes = build_group()
    leader = wait_for_leader(sim, nodes)
    term = leader.current_term
    client = add_client(sim, network, nodes)
    sim.run(sim.process(client.find_leader()))
    orphan_rpc = RpcId(424242, 1)
    orphan = Write("x", "orphan")
    for node in nodes:
        node._handle_record((term, RecordArgs(
            RAFT_WITNESS, orphan.touched_hashes(), orphan_rpc,
            RecordedRequest(orphan, orphan_rpc))), None)
    sim.run(until=sim.now + suspect_after(len(nodes)))
    _result, fast = sim.run(sim.process(client.update(Write("x", "late"))))
    assert not fast  # every component rejected against the orphan
    sim.run(until=sim.now + 5_000.0)
    assert (leader.role, leader.current_term) == ("leader", term)
    assert orphan_rpc in leader._log_rpc_index
    assert [n.witness.cache.occupied_slots() for n in nodes] == [0, 0, 0]
    _result, fast = sim.run(sim.process(client.update(Write("x", "final"))))
    assert fast
    assert sim.run(sim.process(client.read("x"))) == "final"


def test_young_witness_records_are_never_suspects():
    """Raft's gc round runs per commit, far faster than any client gives
    up: a conflict on a record its client may still be retrying must not
    come back from gc as a §4.5 suspect."""
    sim = Simulator(seed=1)
    network = Network(sim)  # the default jittered wire
    names = ["r0", "r1", "r2"]
    nodes = [RaftNode(network.add_host(name), name, names)
             for name in names]
    leader = wait_for_leader(sim, nodes)
    clients = [add_client(sim, network, nodes) for _ in range(4)]
    suspects = []
    for node in nodes:
        def gc(pairs, collect=node.witness.gc):
            reply = collect(pairs)
            suspects.extend(reply)
            return reply
        node.witness.gc = gc

    def script(client):
        for i in range(60):
            key = f"k{sim.rng.randrange(10)}"
            yield from client.update(Write(key, i) if i % 2 == 0
                                     else Increment(key))
    sim.run(sim.all_of([sim.process(script(client)) for client in clients]))
    sim.run(until=sim.now + 5_000.0)
    assert sum(n.witness.cache.rejects_commutativity for n in nodes) > 0
    assert suspects == []
    updates = [entry for entry in leader.log if entry.rpc_id is not None]
    assert len(updates) == 240  # each client update once, no orphan
    assert [n.witness.cache.occupied_slots() for n in nodes] == [0, 0, 0]


def test_suspect_whose_entry_is_uncommitted_waits_for_its_commit():
    """A suspect already in the leader's log but not committed yet has
    no completion record: collecting it then would drop the only trace
    of an update that may still be lost with the leader.  Its entry's
    own gc round collects it once the entry commits."""
    from types import SimpleNamespace

    from repro.consensus.raft import RAFT_WITNESS
    from repro.core.messages import RecordArgs, RecordedRequest
    from repro.rifl import RpcId

    sim, network, nodes = build_group()
    leader = wait_for_leader(sim, nodes)
    term = leader.current_term
    rpc_id = RpcId(424242, 1)
    op = Write("x", "logged")
    request = RecordedRequest(op, rpc_id)
    for node in nodes:
        node._handle_record((term, RecordArgs(
            RAFT_WITNESS, op.touched_hashes(), rpc_id, request)), None)
    index = leader._append_replayed(request)
    assert index > leader.commit_index
    leader._retry_orphans(SimpleNamespace(value=()), (request,), term)
    assert [n.witness.cache.occupied_slots() for n in nodes] == [1, 1, 1]
    sim.run(until=sim.now + 5_000.0)
    assert leader.commit_index >= index
    assert leader.registry.get(rpc_id).log_position == index
    assert [n.witness.cache.occupied_slots() for n in nodes] == [0, 0, 0]


def test_sync_for_an_entry_a_leader_change_overwrote_restarts_the_update():
    """The slow path names its RpcId.  A client's update reaches a leader
    cut off from its followers, every follower's witness rejects its
    record, and its ``sync`` is slow on the wire.  Meanwhile a new
    leader takes over and overwrites the entry, and the old leader wins
    the next term back.  The sync then finds the RpcId in neither the
    registry nor the log: ``UNKNOWN_RPC``, and the update is resent,
    not acknowledged (waiting for the log end would acknowledge a write
    no log holds)."""
    from repro.consensus.raft import RAFT_WITNESS
    from repro.core.messages import RecordArgs, RecordedRequest
    from repro.net.faults import LinkProfile
    from repro.rifl import RpcId
    from repro.rpc.transport import RpcRequest

    sim = Simulator(seed=5)
    network = Network(sim, latency=LatencyModel(Fixed(20.0)))
    names = ["r0", "r1", "r2"]
    config = RaftConfig(election_timeout_min=300.0,
                        election_timeout_max=600.0, heartbeat_interval=100.0,
                        rpc_timeout=100.0)
    nodes = [RaftNode(network.add_host(name), name, names, config=config)
             for name in names]
    old = wait_for_leader(sim, nodes)
    followers = [node for node in nodes if node is not old]
    client = add_client(sim, network, nodes)
    sim.run(sim.process(client.find_leader()))
    planted = Write("k", "planted")
    for node in followers:
        node._handle_record((old.current_term, RecordArgs(
            RAFT_WITNESS, planted.touched_hashes(), RpcId(99, 1),
            RecordedRequest(planted, RpcId(99, 1)))), None)
    synced = []
    network.taps.append(
        lambda message: synced.append(message.payload.args)
        if type(message.payload) is RpcRequest
        and message.payload.method == "sync" else None)
    for node in followers:
        network.partition(old.name, node.name)
    update = sim.process(client.update(Write("k", "client")))
    sim.run(until=sim.now + 1.0)     # the propose is on the wire
    network.set_link_fault(client.host.name, old.name,
                           LinkProfile(extra_delay=3_000.0))
    end = sim.now + 1_000.0
    while not synced and sim.now < end:
        sim.step()
    rpc_id, = synced
    assert rpc_id in old._log_rpc_index
    wait_for_leader(sim, followers)
    network.heal_all()
    end = sim.now + 1_000.0
    while rpc_id in old._log_rpc_index and sim.now < end:
        sim.step()
    assert rpc_id not in old._log_rpc_index  # the new leader overwrote it
    sim.run(sim.process(old._run_election()))
    assert old.role == "leader" and not update.triggered
    _result, fast = sim.run(update)
    sim.run(until=sim.now + 5_000.0)
    leader = leader_of(nodes)
    assert [entry.rpc_id for entry in leader.log].count(rpc_id) == 1
    assert leader.registry.get(rpc_id) is not None
    assert leader.store.read("k") == "client"
    assert not fast and client.outcomes[-1].attempts == 2
