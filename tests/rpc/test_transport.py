"""Unit tests for the RPC transport."""

from __future__ import annotations

import pytest

from repro.net import Network
from repro.net.faults import FaultInjector, FaultPlan, GrayLink
from repro.rpc import AppError, RpcTimeout, RpcTransport
from repro.rpc.errors import RemoteError
from repro.sim import Simulator


def make_pair(network: Network):
    client = RpcTransport(network.add_host("client"))
    server = RpcTransport(network.add_host("server"))
    return client, server


def test_simple_call_response(sim: Simulator, network: Network):
    client, server = make_pair(network)
    server.register("echo", lambda args, ctx: f"echo:{args}")
    result = sim.run(client.call("server", "echo", "hi"))
    assert result == "echo:hi"
    assert sim.now == 4.0  # two one-way 2 µs hops


def test_unknown_method_is_app_error(sim: Simulator, network: Network):
    client, _server = make_pair(network)
    with pytest.raises(AppError) as exc:
        sim.run(client.call("server", "nope"))
    assert exc.value.code == "NO_SUCH_METHOD"


def test_handler_app_error_propagates(sim: Simulator, network: Network):
    client, server = make_pair(network)
    def handler(args, ctx):
        raise AppError("NOT_OWNER", {"partition": 3})
    server.register("write", handler)
    with pytest.raises(AppError) as exc:
        sim.run(client.call("server", "write", {}))
    assert exc.value.code == "NOT_OWNER"
    assert exc.value.info == {"partition": 3}


def test_handler_crash_becomes_remote_error(sim: Simulator, network: Network):
    client, server = make_pair(network)
    def handler(args, ctx):
        raise KeyError("boom")
    server.register("bad", handler)
    with pytest.raises(RemoteError, match="KeyError"):
        sim.run(client.call("server", "bad"))


def test_timeout_fires_without_response(sim: Simulator, network: Network):
    client, server = make_pair(network)
    def handler(args, ctx):
        def slow():
            yield sim.timeout(1000.0)
            return "late"
        return slow()
    server.register("slow", handler)
    with pytest.raises(RpcTimeout):
        sim.run(client.call("server", "slow", timeout=10.0))


def test_late_response_after_timeout_is_ignored(sim: Simulator, network: Network):
    client, server = make_pair(network)
    def handler(args, ctx):
        def slow():
            yield sim.timeout(50.0)
            return "late"
        return slow()
    server.register("slow", handler)
    call = client.call("server", "slow", timeout=10.0)
    with pytest.raises(RpcTimeout):
        sim.run(call)
    sim.run()  # the late response arrives; must not blow up


def test_generator_handler_auto_reply(sim: Simulator, network: Network):
    client, server = make_pair(network)
    def handler(args, ctx):
        def work():
            yield sim.timeout(5.0)
            return args * 2
        return work()
    server.register("double", handler)
    assert sim.run(client.call("server", "double", 21)) == 42
    assert sim.now == 9.0  # 2 + 5 + 2


def test_early_reply_then_continue(sim: Simulator, network: Network):
    """The speculative-master pattern: reply, then keep working."""
    client, server = make_pair(network)
    background_done = []
    def handler(args, ctx):
        def work():
            ctx.reply("fast-ack")
            yield sim.timeout(100.0)  # simulated backup sync
            background_done.append(sim.now)
        return work()
    server.register("update", handler)
    result = sim.run(client.call("server", "update"))
    assert result == "fast-ack"
    assert sim.now == 4.0  # client saw 1 RTT
    assert background_done == []  # sync still running
    sim.run()
    assert background_done == [102.0]


def test_crashed_server_never_replies(sim: Simulator, network: Network):
    client, server = make_pair(network)
    def handler(args, ctx):
        def work():
            yield sim.timeout(50.0)
            return "done"
        return work()
    server.register("w", handler)
    call = client.call("server", "w", timeout=200.0)
    sim.schedule_callback(10.0, server.host.crash)
    with pytest.raises(RpcTimeout):
        sim.run(call)


def test_crash_mid_handler_after_early_reply(sim: Simulator, network: Network):
    """Reply already went out; crash kills only the background part."""
    client, server = make_pair(network)
    side_effects = []
    def handler(args, ctx):
        def work():
            ctx.reply("ok")
            yield sim.timeout(50.0)
            side_effects.append("synced")
        return work()
    server.register("u", handler)
    call = client.call("server", "u")
    sim.schedule_callback(10.0, server.host.crash)
    assert sim.run(call) == "ok"
    sim.run()
    assert side_effects == []


def test_duplicate_registration_rejected(sim: Simulator, network: Network):
    _client, server = make_pair(network)
    server.register("m", lambda a, c: None)
    with pytest.raises(ValueError):
        server.register("m", lambda a, c: None)


def test_concurrent_calls_matched_by_seq(sim: Simulator, network: Network):
    client, server = make_pair(network)
    def handler(args, ctx):
        def work():
            yield sim.timeout(float(args))
            return args
        return work()
    server.register("sleep", handler)
    calls = [client.call("server", "sleep", d) for d in (30.0, 10.0, 20.0)]
    results = sim.run(sim.all_of(calls))
    assert [results[c] for c in calls] == [30.0, 10.0, 20.0]


def test_reply_twice_is_error(sim: Simulator, network: Network):
    client, server = make_pair(network)
    def handler(args, ctx):
        ctx.reply(1)
        with pytest.raises(RuntimeError):
            ctx.reply(2)
        return None
    server.register("m", handler)
    assert sim.run(client.call("server", "m")) == 1


def test_duplicated_request_is_handled_twice_with_its_own_reply_state(
        sim: Simulator, network: Network):
    """The delivered request is the handler's context.  A gray link that
    duplicates every frame delivers one request object twice; the second
    delivery gets a copy, so the handler runs twice and replies twice
    (the client keeps the first response), and a second reply within one
    handler still raises."""
    client, server = make_pair(network)
    FaultInjector(network, FaultPlan((GrayLink(
        src="client", dst="server", duplicate_rate=1.0),))).start()
    sim.run(until=0.0)
    contexts = []

    def handler(args, ctx):
        contexts.append(ctx)
        ctx.reply(f"echo:{args}")
        with pytest.raises(RuntimeError):
            ctx.reply("again")
    server.register("echo", handler)
    seen = []
    client.call_cb("server", "echo", "v",
                   lambda value, error: seen.append((value, error)))
    sim.run()
    assert network.stats.messages_duplicated == 1
    assert network.stats.per_host_sent == {"client": 1, "server": 2}
    assert len(contexts) == 2 and contexts[0] is not contexts[1]
    assert [(ctx.src, ctx.seq, ctx.args) for ctx in contexts] == \
        [("client", 1, "v")] * 2
    assert seen == [("echo:v", None)]
    assert client.pending_calls == 0


# ----------------------------------------------------------------------
# ctx.answer — the deferred reply after a charged delay
# ----------------------------------------------------------------------
def _deferred_server(sim: Simulator, server: RpcTransport, fn, delay=10.0):
    """Register ``m``: answer ``fn(args)`` ``delay`` µs after delivery;
    returns the list the delivered requests are appended to."""
    contexts = []

    def handler(args, ctx):
        contexts.append(ctx)
        sim.schedule_callback(delay, ctx.answer, fn, args)
        return RpcTransport.DEFERRED
    server.register("m", handler)
    return contexts


def test_answer_replies_the_value_or_keeps_an_app_errors_code_and_info(
        sim: Simulator, network: Network):
    client, server = make_pair(network)

    def fn(args):
        if args == "bad":
            raise AppError("NOT_OWNER", {"partition": 3})
        return f"done:{args}"
    _deferred_server(sim, server, fn)
    assert sim.run(client.call("server", "m", "ok")) == "done:ok"
    assert sim.now == 14.0  # two 2 µs hops around the 10 µs delay
    with pytest.raises(AppError) as exc:
        sim.run(client.call("server", "m", "bad"))
    assert exc.value.code == "NOT_OWNER"
    assert exc.value.info == {"partition": 3}


def test_answer_serializes_any_other_exception_as_remote_error(
        sim: Simulator, network: Network):
    client, server = make_pair(network)

    def fn(args):
        raise KeyError("boom")
    _deferred_server(sim, server, fn)
    with pytest.raises(RemoteError, match="KeyError"):
        sim.run(client.call("server", "m"))


def test_answer_to_an_answered_request_sends_nothing(sim: Simulator,
                                                     network: Network):
    client, server = make_pair(network)
    ran = []

    def handler(args, ctx):
        ctx.reply("early")
        sim.schedule_callback(10.0, ctx.answer, ran.append, args)
        return RpcTransport.DEFERRED
    server.register("m", handler)
    assert sim.run(client.call("server", "m", "x")) == "early"
    sim.run()
    assert ran == []  # not even run
    assert network.stats.per_host_sent["server"] == 1


def test_answer_from_a_previous_life_sends_nothing(sim: Simulator,
                                                   network: Network):
    """The host crashes and is back up inside the delay: the request
    belongs to the previous life, so its work neither runs nor replies,
    and the caller times out."""
    client, server = make_pair(network)
    ran = []
    contexts = _deferred_server(sim, server, ran.append)
    call = client.call("server", "m", "x", timeout=40.0)
    sim.run(until=5.0)
    (ctx,) = contexts
    assert not ctx.gone()
    server.host.crash()
    server.host.restart()
    assert ctx.gone()
    with pytest.raises(RpcTimeout):
        sim.run(call)
    assert ran == []
    assert not ctx.replied
    assert network.stats.per_host_sent.get("server", 0) == 0


# ----------------------------------------------------------------------
# call_cb — the callback completion fast path
# ----------------------------------------------------------------------
def test_call_cb_success(sim: Simulator, network: Network):
    client, server = make_pair(network)
    server.register("echo", lambda args, ctx: f"echo:{args}")
    seen = []
    client.call_cb("server", "echo", "hi",
                   lambda value, error: seen.append((value, error)))
    sim.run()
    assert seen == [("echo:hi", None)]
    assert sim.now == 4.0  # same two 2 µs hops as call()


def test_call_cb_threads_extra_args(sim: Simulator, network: Network):
    client, server = make_pair(network)
    server.register("echo", lambda args, ctx: args)
    seen = []
    def on_done(index, tag, value, error):
        seen.append((index, tag, value, error))
    client.call_cb("server", "echo", "a", on_done, 0, "x")
    client.call_cb("server", "echo", "b", on_done, 1, "y")
    sim.run()
    assert seen == [(0, "x", "a", None), (1, "y", "b", None)]


def test_call_cb_app_error(sim: Simulator, network: Network):
    client, server = make_pair(network)
    def handler(args, ctx):
        raise AppError("NOT_OWNER", {"shard": 2})
    server.register("w", handler)
    seen = []
    client.call_cb("server", "w", None,
                   lambda value, error: seen.append((value, error)))
    sim.run()
    (value, error), = seen
    assert value is None
    assert isinstance(error, AppError) and error.code == "NOT_OWNER"


def test_call_cb_remote_error(sim: Simulator, network: Network):
    client, server = make_pair(network)
    def handler(args, ctx):
        raise KeyError("boom")
    server.register("bad", handler)
    seen = []
    client.call_cb("server", "bad", None,
                   lambda value, error: seen.append(error))
    sim.run()
    assert isinstance(seen[0], RemoteError)


def test_call_cb_timeout(sim: Simulator, network: Network):
    client, _server = make_pair(network)
    network.add_host("silent")  # no transport: requests vanish
    seen = []
    client.call_cb("silent", "m", None,
                   lambda value, error: seen.append(error), timeout=50.0)
    sim.run()
    assert isinstance(seen[0], RpcTimeout)
    assert sim.now == 50.0
    assert client.pending_calls == 0


def test_call_cb_timeout_response_tie_fires_once(sim: Simulator,
                                                 network: Network):
    """Response and timeout land at the same instant: the expiry entry
    (scheduled at call time, so with the smaller sequence number) wins
    the tie — matching call() — and the response finds nothing to pop.
    Exactly one completion, no leak."""
    client, server = make_pair(network)
    server.register("echo", lambda args, ctx: args)
    seen = []
    client.call_cb("server", "echo", "v",
                   lambda value, error: seen.append((value, error)),
                   timeout=4.0)  # exactly the round-trip time
    sim.run()
    assert len(seen) == 1
    assert isinstance(seen[0][1], RpcTimeout)
    assert client.pending_calls == 0


def test_call_cb_late_response_after_timeout_ignored(
        sim: Simulator, network: Network):
    client, server = make_pair(network)
    def handler(args, ctx):
        def work():
            yield sim.timeout(100.0)
            return "late"
        return work()
    server.register("slow", handler)
    seen = []
    client.call_cb("server", "slow", None,
                   lambda value, error: seen.append((value, error)),
                   timeout=10.0)
    sim.run()
    assert len(seen) == 1
    assert isinstance(seen[0][1], RpcTimeout)
    assert client.pending_calls == 0


def test_pending_map_empty_after_crash_and_timeout_chaos(
        sim: Simulator, network: Network):
    """Leak regression: after a run heavy with timeouts, late replies
    and a server crash/restart, no pending-call entries may survive on
    either side (timeout races pop exactly one entry; _on_crash drops
    the rest)."""
    client, server = make_pair(network)
    def slow(args, ctx):
        def work():
            yield sim.timeout(float(args))
            return args
        return work()
    server.register("slow", slow)
    server.register("echo", lambda args, ctx: args)
    outcomes = []
    on_done = lambda value, error: outcomes.append((value, error))  # noqa: E731
    # Mix of: completing calls, timeouts with late replies, and calls
    # in flight when the server crashes — via both call() and call_cb().
    events = []
    for delay in (1.0, 30.0, 80.0, 200.0):
        client.call_cb("server", "slow", delay, on_done, timeout=60.0)
        events.append(client.call("server", "slow", delay, timeout=60.0))
    client.call_cb("server", "echo", "x", on_done, timeout=60.0)
    sim.schedule_callback(90.0, server.host.crash)
    sim.schedule_callback(150.0, server.host.restart)
    # Calls issued against the crashed server: time out cleanly.
    sim.schedule_callback(100.0, lambda: client.call_cb(
        "server", "echo", "y", on_done, timeout=20.0))
    sim.run()
    assert client.pending_calls == 0
    assert server.pending_calls == 0
    # Every call_cb completed exactly once (5 before + 1 after crash).
    assert len(outcomes) == 6
    # The crash dropped nothing on the floor for call() either: each
    # event either succeeded or failed with a timeout.
    for event in events:
        assert event.triggered


def test_response_to_a_previous_lifes_call_completes_nothing(
        sim: Simulator, network: Network):
    """A request sent before a same-instant crash + restart is already
    on the wire and gets served, but its response finds no pending call
    in the new incarnation: only the post-restart call completes."""
    client, server = make_pair(network)
    handled = []
    server.register("echo", lambda args, ctx: handled.append(args) or args)
    outcomes = []
    client.call_cb("server", "echo", "pre-crash",
                   lambda value, error: outcomes.append((value, error)),
                   timeout=50.0)
    client.host.crash()
    client.host.restart()
    client.call_cb("server", "echo", "post-restart",
                   lambda value, error: outcomes.append((value, error)),
                   timeout=50.0)
    sim.run()
    assert handled == ["pre-crash", "post-restart"]
    assert outcomes == [("post-restart", None)]
    assert client.pending_calls == 0
    assert server.pending_calls == 0


# ----------------------------------------------------------------------
# the deadline queue: timeouts are transport state, not kernel events
# ----------------------------------------------------------------------
def _issue_mixed_timeouts(sim: Simulator, client: RpcTransport,
                          use_cb: bool) -> tuple[list, list]:
    """Interleave 200 µs and 2,000 µs calls to a host that never
    answers; returns (expected, observed) lists of (tag, instant)."""
    expected: list = []
    observed: list = []

    def issue(tag: int, timeout: float) -> None:
        expected.append((tag, sim.now + timeout))
        if use_cb:
            client.call_cb("silent", "m", None,
                           lambda tag, _value, error: observed.append(
                               (tag, sim.now, error.timeout)),
                           tag, timeout=timeout)
        else:
            client.call("silent", "m", timeout=timeout).when_done(
                lambda event, tag: observed.append(
                    (tag, sim.now, event.exception.timeout)), tag)

    # Steps of 0.1 are not exact in binary, so "exactly issue + timeout"
    # is a statement about floats, not about round numbers.
    for tag in range(40):
        timeout = 200.0 if tag % 3 else 2_000.0
        sim.schedule_callback(tag * 70.1, issue, tag, timeout)
    return expected, observed


@pytest.mark.parametrize("use_cb", [False, True], ids=["call", "call_cb"])
def test_mixed_timeouts_each_expire_at_exactly_issue_plus_timeout(
        sim: Simulator, network: Network, use_cb: bool):
    client, _server = make_pair(network)
    network.add_host("silent")
    expected, observed = _issue_mixed_timeouts(sim, client, use_cb)
    sim.run()
    assert len(observed) == 40
    timeouts = {tag: (200.0 if tag % 3 else 2_000.0) for tag in range(40)}
    assert sorted((tag, at) for tag, at, _t in observed) == sorted(expected)
    assert all(timeout == timeouts[tag] for tag, _at, timeout in observed)
    # ... and in deadline order, short timeouts overtaking long ones
    assert [at for _tag, at, _t in observed] == sorted(
        at for _tag, at in expected)
    assert client.pending_calls == 0
    assert client.watched_deadlines == 0
    assert not client._deadlines  # drained queues are dropped, not kept


def test_one_armed_record_per_transport_however_many_calls(
        sim: Simulator, network: Network):
    client, server = make_pair(network)
    server.register("echo", lambda args, ctx: args)
    done = []
    for i in range(100):
        client.call_cb("server", "echo", i,
                       lambda value, error: done.append(value),
                       timeout=2_000.0)
    # 100 delivery records and one deadline record, not 100 of each.
    assert sim.queue_length == 101
    sim.run(until=10.0)
    assert done == list(range(100))
    # Responses trimmed the queue as they arrived; the one armed record
    # is all that is left, and it finds nothing to do.
    assert client.watched_deadlines == 0
    assert sim.queue_length == 1
    sim.run()
    assert sim.now == 2_000.0 and sim.queue_length == 0


def test_deadline_wins_tie_with_response_when_armed_late(
        sim: Simulator, network: Network):
    """The tie of ``test_call_cb_timeout_response_tie_fires_once`` with
    the deadline's record armed *after* the response was sent.  With a
    timer per call the deadline won every tie, its record having been
    queued at issue time; the queue keeps that rule.  On the exact 2 µs
    hops: A (no answer, deadline 7) holds the armed record; B is issued
    at 4 with deadline 8, its response leaves the server at 6 and is
    due at 8; the record re-arms for B only at 7, behind the response's
    delivery record.  B must still time out."""
    client, server = make_pair(network)
    network.add_host("silent")
    server.register("echo", lambda args, ctx: args)
    seen = []
    client.call_cb("silent", "m", None,
                   lambda value, error: seen.append(("A", sim.now, error)),
                   timeout=7.0)
    sim.schedule_callback(4.0, lambda: client.call_cb(
        "server", "echo", "v",
        lambda value, error: seen.append(("B", sim.now, value, error)),
        timeout=4.0))
    sim.run()
    assert [entry[:2] for entry in seen] == [("A", 7.0), ("B", 8.0)]
    assert seen[1][2] is None and isinstance(seen[1][3], RpcTimeout)
    assert client.pending_calls == 0 and client.watched_deadlines == 0


def test_crash_clears_deadline_queue_and_disarms(sim: Simulator,
                                                 network: Network):
    client, _server = make_pair(network)
    network.add_host("silent")
    seen = []
    on_done = lambda value, error: seen.append((sim.now, error))  # noqa: E731
    for _ in range(3):
        client.call_cb("silent", "m", None, on_done, timeout=50.0)
    client.call("silent", "m", timeout=80.0)
    sim.schedule_callback(10.0, client.host.crash)
    sim.schedule_callback(20.0, client.host.restart)
    sim.schedule_callback(25.0, lambda: client.call_cb(
        "silent", "m", None, on_done, timeout=50.0))
    sim.run(until=15.0)
    assert client.pending_calls == 0
    assert client.watched_deadlines == 0
    sim.run()
    # The first incarnation's record (t=50) did nothing; the restarted
    # incarnation's call still timed out, at its own deadline.
    assert [at for at, _error in seen] == [75.0]
    assert isinstance(seen[0][1], RpcTimeout)
    assert client.pending_calls == 0 and client.watched_deadlines == 0


def test_call_without_timeout_arms_nothing(sim: Simulator,
                                           network: Network):
    client, _server = make_pair(network)
    network.add_host("silent")
    client.call("silent", "m")
    client.call_cb("silent", "m", None, lambda value, error: None)
    assert client.watched_deadlines == 0
    assert sim.queue_length == 2  # the two requests' delivery records
    sim.run()
    assert sim.now == 2.0  # nothing was queued behind the deliveries
    assert client.pending_calls == 2  # waiting for ever, as asked


def test_closed_loop_heap_stays_small_and_queues_drain(monkeypatch):
    """16 closed-loop clients at the default ``rpc_timeout`` (2,000 µs):
    the kernel's queue holds live work plus one record per transport —
    a timer per call kept ~7,400 records there — and after ``settle()``
    no transport is left watching anything."""
    from repro.baselines import curp_config
    from repro.harness.builder import build_cluster
    from repro.harness.profiles import RAMCLOUD_PROFILE
    from repro.metrics.stats import LatencyRecorder
    from repro.workload.clients import ClosedLoopClient
    from repro.workload.ycsb import YcsbWorkload

    transports = []
    init = RpcTransport.__init__

    def recording_init(self, host):
        init(self, host)
        transports.append(self)
    monkeypatch.setattr(RpcTransport, "__init__", recording_init)

    config = curp_config(3)
    assert config.rpc_timeout == 2_000.0
    cluster = build_cluster(config, profile=RAMCLOUD_PROFILE, seed=7)
    workload = YcsbWorkload(name="writes", read_fraction=0.0,
                            item_count=100_000, value_size=100,
                            distribution="uniform")
    latency = LatencyRecorder()
    loops = [ClosedLoopClient(
        client=cluster.new_client(collect_outcomes=False),
        stream=workload.generator(),
        write_latency=latency, read_latency=latency) for _ in range(16)]
    for loop in loops:
        loop.client.host.spawn(loop.loop(), name="workload")
    sim = cluster.sim
    end = sim.now + 5_000.0  # two and a half timeout horizons
    peak = 0
    while sim.now < end and sim.step():
        if sim.queue_length > peak:
            peak = sim.queue_length
    for loop in loops:
        loop.running = False
    assert sum(loop.operations for loop in loops) > 2_000
    assert peak <= 256
    cluster.settle()
    assert [t.watched_deadlines for t in transports] == [0] * len(transports)
    assert [t.pending_calls for t in transports] == [0] * len(transports)
