"""Unit tests for host crash/restart, process management and the
delivery-timing contract (docs/PERFORMANCE.md, "One kernel record per
message")."""

from __future__ import annotations

import types

from hypothesis import given, settings, strategies as st

from repro.net import Network
from repro.net.faults import LinkProfile
from repro.net.host import Host
from repro.net.latency import LatencyModel
from repro.sim import Fixed, Interrupt, Simulator


def test_crash_interrupts_spawned_processes(sim: Simulator, network: Network):
    host = network.add_host("h")
    log = []
    def worker():
        try:
            yield sim.timeout(100.0)
            log.append("finished")
        except Interrupt:
            log.append("interrupted")
    host.spawn(worker())
    sim.schedule_callback(10.0, host.crash)
    sim.run()
    assert log == ["interrupted"]


def test_crash_hooks_fire_once(sim: Simulator, network: Network):
    host = network.add_host("h")
    crashes = []
    host.on_crash(lambda: crashes.append(sim.now))
    host.crash()
    host.crash()  # idempotent
    assert crashes == [0.0]


def test_restart_hooks_and_incarnation(sim: Simulator, network: Network):
    host = network.add_host("h")
    restarts = []
    host.on_restart(lambda: restarts.append(True))
    assert host.incarnation == 0
    host.crash()
    assert host.incarnation == 1
    host.restart()
    assert restarts == [True]
    host.crash()
    assert host.incarnation == 2


def test_restart_when_alive_is_noop(sim: Simulator, network: Network):
    host = network.add_host("h")
    restarts = []
    host.on_restart(lambda: restarts.append(True))
    host.restart()
    assert restarts == []


def test_completed_process_removed_from_host(sim: Simulator, network: Network):
    host = network.add_host("h")
    def quick():
        yield sim.timeout(1.0)
    host.spawn(quick())
    sim.run()
    assert len(host._processes) == 0


def test_rx_cost_serializes_inbound(sim: Simulator, network: Network):
    sender = network.add_host("s")
    receiver = network.add_host("r", rx_cost=1.0)
    seen = []
    receiver.set_message_handler(lambda p: seen.append(sim.now))
    for _ in range(3):
        sender.send("r", "x")
    sim.run()
    # All arrive at wire time 2.0, then serialize 1 µs apart.
    assert seen == [3.0, 4.0, 5.0]
    # The first finds the RX path idle and is handled by its delivery
    # record; the two queued behind it each need a completion record.
    assert sim.processed_events == 1 + 2 + 2
    sender.send("r", "x")
    sim.run()
    assert seen[3:] == [8.0]                 # idle again: sent 5, +2 +1
    assert sim.processed_events == 5 + 1     # ... and one record again


def test_rx_dispatch_dropped_after_crash(sim: Simulator, network: Network):
    sender = network.add_host("s")
    receiver = network.add_host("r", rx_cost=5.0)
    seen = []
    receiver.set_message_handler(seen.append)
    sender.send("r", "x")
    # Crash while the message is in the RX pipeline (arrives at 2.0,
    # dispatches at 7.0).
    sim.schedule_callback(3.0, receiver.crash)
    sim.run()
    assert seen == []


# ----------------------------------------------------------------------
# delivery timing: the folded record against the two-record model
# ----------------------------------------------------------------------

class TwoRecordHost(Host):
    """Reference model: delivery as it was before RX serialization was
    folded into the delivery record — one kernel record at the arrival
    instant, a second one at RX completion, on every kind of host."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._rx_lead = 0.0          # the record fires at arrival

    def _deliver(self, payload):
        if not self.alive or self._message_handler is None:
            return
        if self.rx_cost <= 0:
            self._dispatch_rx(payload, self.incarnation)
            return
        now = self.sim.now
        done = max(now, self._rx_free_at) + self.rx_cost
        self._rx_free_at = done
        if self.shared_dispatch:
            self._nic_free_at = max(self._nic_free_at, done)
        self.sim.schedule_callback(done - now, self._dispatch_rx, payload,
                                   self.incarnation)


#: every instant of a schedule is a multiple of 1/16 µs far below 2**40,
#: so every sum either model forms is exact and ``==`` on floats is fair
TICK = 0.125
#: crashes and restarts sit on the odd sixteenths: instants that no
#: send, arrival or RX completion (all multiples of TICK) can share
FLAP_TICK = 0.0625
#: fault rng stub: always duplicate, always after the full (dyadic) lag
_ALWAYS = types.SimpleNamespace(random=lambda: 0.0,
                                uniform=lambda _low, high: high)


@st.composite
def delivery_schedules(draw):
    return {
        "rx_cost": draw(st.sampled_from([0.0, 0.125, 5.0])),
        "shared": draw(st.booleans()),
        "duplicate": draw(st.booleans()),
        # ticks at which the sender sends; repeats are same-instant
        # sends (ties between arrivals)
        "sends": draw(st.lists(st.integers(0, 120), min_size=1,
                               max_size=14)),
        # ticks at which the receiver itself sends (shared accumulator)
        "replies": draw(st.lists(st.integers(0, 200), max_size=6)),
        # alternating crash / restart of the receiver
        "flaps": sorted(draw(st.lists(st.integers(0, 200), max_size=4,
                                      unique=True))),
    }


def run_schedule(schedule: dict, reference: bool) -> list:
    """(instant, payload) of every dispatch at the receiver."""
    sim = Simulator(seed=0)
    network = Network(sim, latency=LatencyModel(Fixed(2.0)))
    sender = network.add_host("s")
    receiver = network.hosts["r"] = (TwoRecordHost if reference else Host)(
        sim, network, "r", tx_cost=0.25, rx_cost=schedule["rx_cost"],
        shared_dispatch=schedule["shared"])
    if schedule["duplicate"]:
        network.fault_rng = _ALWAYS
        network.set_link_fault("s", "r", LinkProfile(duplicate_rate=1.0,
                                                     duplicate_lag=0.375))
    seen = []
    receiver.set_message_handler(
        lambda payload: seen.append((sim.now, payload)))
    sender.set_message_handler(lambda payload: None)
    for index, tick in enumerate(schedule["sends"]):
        sim.schedule_callback(tick * TICK, sender.send, "r", index)
    for tick in schedule["replies"]:
        sim.schedule_callback(tick * TICK, receiver.send, "s", "reply")
    for index, tick in enumerate(schedule["flaps"]):
        sim.schedule_callback((2 * tick + 1) * FLAP_TICK,
                              receiver.restart if index % 2
                              else receiver.crash)
    sim.run()
    return seen


@settings(max_examples=300, deadline=None)
@given(delivery_schedules())
def test_delivery_matches_the_two_record_model(schedule):
    """Dispatch instants, dispatch order and the set of dropped
    messages are those of the arrival-record model, for independent and
    shared-dispatch receivers, across crash / restart edges, for plain
    and duplicated deliveries."""
    # One list of (instant, payload) per model says all three: a dropped
    # message is a payload that is missing from it.
    assert run_schedule(schedule, reference=False) \
        == run_schedule(schedule, reference=True)


def test_reference_model_is_not_the_host_under_test():
    """The comparison above is between two implementations: the folded
    host spends one record on an idle delivery, the reference two."""
    events = []
    for reference in (False, True):
        sim = Simulator(seed=0)
        network = Network(sim, latency=LatencyModel(Fixed(2.0)))
        sender = network.add_host("s")
        receiver = network.hosts["r"] = (
            TwoRecordHost if reference else Host)(sim, network, "r",
                                                  rx_cost=1.0)
        receiver.set_message_handler(lambda payload: None)
        sender.send("r", "x")
        sim.run()
        events.append(sim.processed_events)
    assert events == [1, 2]


def flapped_receiver(sim: Simulator, network: Network, crash_at: float,
                     restart_at: float) -> list:
    """One message sent at 0 (arrives at 2.0) to a receiver with a 5 µs
    RX path that is down during [crash_at, restart_at)."""
    sender = network.add_host("s")
    receiver = network.add_host("r", rx_cost=5.0)
    seen = []
    receiver.set_message_handler(
        lambda payload: seen.append((sim.now, payload)))
    sim.schedule_callback(crash_at, receiver.crash)
    sim.schedule_callback(restart_at, receiver.restart)
    sender.send("r", "x")
    sim.run()
    return seen


def test_arrival_while_down_is_dropped_though_rx_would_complete_after_restart(
        sim: Simulator, network: Network):
    # Down over the arrival at 2.0, up again long before 7.0, which is
    # when the one delivery record fires.
    assert flapped_receiver(sim, network, 1.0, 3.0) == []


def test_crash_between_arrival_and_rx_completion_drops_across_a_restart(
        sim: Simulator, network: Network):
    # Up at the arrival (2.0) and at the completion (7.0), but not the
    # same life: the message was in the RX path when the host died.
    assert flapped_receiver(sim, network, 3.0, 4.0) == []


def test_arrival_after_restart_dispatches_after_rx_cost(
        sim: Simulator, network: Network):
    # Restarted a sixteenth of a µs before the arrival: nothing is owed
    # to the down interval, the message costs exactly rx_cost.
    assert flapped_receiver(sim, network, 1.0, 1.9375) == [(7.0, "x")]

