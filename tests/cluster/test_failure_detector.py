"""Targeted tests for the ping-based master failure detector.

The detector's contract: suspicion (consecutive missed pings)
accumulates per master, one successful ping clears it (so a flapping
host never triggers recovery), and only ``miss_threshold`` consecutive
misses pop a standby and drive
:meth:`~repro.cluster.coordinator.Coordinator.recover_master`.
"""

from __future__ import annotations

import pytest

from repro.cluster import FailureDetector
from repro.core.config import CurpConfig, ReplicationMode, StorageProfile
from repro.harness import build_cluster
from repro.kvstore import Write
from repro.net.faults import FaultPlan, HostFlap, SlowDisk


def detector_cluster(**kwargs):
    defaults = dict(f=1, mode=ReplicationMode.CURP, min_sync_batch=50,
                    idle_sync_delay=200.0, retry_backoff=10.0,
                    rpc_timeout=100.0)
    defaults.update(kwargs)
    return build_cluster(CurpConfig(**defaults))


def make_detector(cluster, standbys, **kwargs):
    defaults = dict(interval=500.0, miss_threshold=3, ping_timeout=100.0)
    defaults.update(kwargs)
    return FailureDetector(cluster.coordinator, standbys, **defaults)


@pytest.mark.parametrize("knob, value", [
    ("interval", -1.0), ("interval", 0.0), ("miss_threshold", 0),
    ("ping_timeout", -5.0), ("ping_timeout", float("nan")),
    ("gray_threshold", 0), ("data_probe_slo", 0.0)])
def test_nonsense_cadence_rejected_at_construction(knob, value):
    """These used to build a watchdog whose loop died on its first step
    while ``_running`` stayed True — a cluster that believed it was
    supervised."""
    cluster = detector_cluster()
    with pytest.raises(ValueError, match=knob):
        make_detector(cluster, [], **{knob: value})


def test_suspicion_accumulates_only_after_crash():
    """Misses count up one per interval once the master stops answering
    — and stay at zero while it is healthy."""
    cluster = detector_cluster()
    detector = make_detector(cluster, [])
    detector.start()
    cluster.sim.run(until=cluster.sim.now + 2_000.0)
    assert detector._misses.get("m0", 0) == 0

    cluster.master().host.crash()
    # One interval + one ping timeout: exactly one miss, no recovery.
    cluster.sim.run(until=cluster.sim.now + 700.0)
    assert detector._misses["m0"] == 1
    assert detector.recoveries_started == 0
    # A second interval: suspicion keeps accumulating.
    cluster.sim.run(until=cluster.sim.now + 600.0)
    assert detector._misses["m0"] == 2
    assert detector.recoveries_started == 0
    detector.stop()


def test_flapping_host_never_reaches_threshold():
    """A host that bounces (crash, then back before ``miss_threshold``
    intervals) has its suspicion cleared by the first successful ping —
    no standby is consumed."""
    cluster = detector_cluster()
    standby = cluster.add_host("flap-standby", role="master")
    detector = make_detector(cluster, [standby])
    detector.start()
    for _ in range(3):  # three flaps, each worth 1-2 misses
        cluster.master().host.crash()
        cluster.sim.run(until=cluster.sim.now + 700.0)
        assert detector._misses["m0"] >= 1
        cluster.master().host.restart()
        cluster.sim.run(until=cluster.sim.now + 1_200.0)
        # Recovery never triggered; suspicion reset by the good ping.
        assert detector._misses["m0"] == 0
    detector.stop()
    assert detector.recoveries_started == 0
    assert detector.standby_hosts == [standby]


def test_threshold_crossing_starts_recovery_and_clears_suspicion():
    """Sustained misses reach the threshold: one recovery starts, the
    standby is consumed, and suspicion resets so the recovered master
    is not immediately re-suspected."""
    cluster = detector_cluster()
    client = cluster.new_client()
    cluster.run(client.update(Write("a", 1)))
    standby = cluster.add_host("fd-standby", role="master")
    detector = make_detector(cluster, [standby])
    detector.start()
    cluster.master().host.crash()
    cluster.sim.run(until=cluster.sim.now + 60_000.0)
    detector.stop()
    assert detector.recoveries_started == 1
    assert detector.standby_hosts == []
    # Recovery cleared the suspicion counter...
    assert detector._misses["m0"] == 0
    # ...and the recovered master answers pings and serves reads.
    recovered = cluster.coordinator.masters["m0"].master
    assert recovered.active
    assert recovered.store.read("a") == 1


def test_recovered_master_is_not_resuspected():
    """After recovery the loop keeps pinging the *new* host; with the
    new master healthy, no further misses or recoveries accumulate."""
    cluster = detector_cluster()
    standby = cluster.add_host("fd-standby", role="master")
    spare = cluster.add_host("fd-spare", role="master")
    detector = make_detector(cluster, [standby, spare])
    detector.start()
    cluster.master().host.crash()
    cluster.sim.run(until=cluster.sim.now + 60_000.0)
    assert detector.recoveries_started == 1
    # Long healthy stretch: suspicion stays at zero, spare stays unused.
    cluster.sim.run(until=cluster.sim.now + 20_000.0)
    detector.stop()
    assert detector._misses["m0"] == 0
    assert detector.recoveries_started == 1
    assert detector.standby_hosts == [spare]


def test_no_standby_means_no_recovery_but_loop_continues():
    """With the standby pool empty the detector resets suspicion at the
    threshold and keeps watching instead of crashing the loop."""
    cluster = detector_cluster()
    detector = make_detector(cluster, [])
    detector.start()
    cluster.master().host.crash()
    cluster.sim.run(until=cluster.sim.now + 10_000.0)
    assert detector.recoveries_started == 0
    # The loop is still alive: suspicion keeps cycling below threshold.
    assert 0 <= detector._misses["m0"] < detector.miss_threshold
    detector.stop()


def test_failed_recovery_returns_standby_and_retries():
    """Regression for the standby leak: a RecoveryFailed (here: no
    backup reachable to fence) must return the popped standby to the
    pool and re-arm suspicion, so the detector retries once the cause
    clears — instead of consuming the standby forever."""
    cluster = detector_cluster()
    client = cluster.new_client()
    cluster.run(client.update(Write("a", 1)))
    standby = cluster.add_host("leak-standby", role="master")
    detector = make_detector(cluster, [standby])
    detector.start()
    managed = cluster.coordinator.masters["m0"]
    backup_hosts = [cluster.network.host(b) for b in managed.backups]
    cluster.master().host.crash()
    for backup in backup_hosts:
        backup.crash()
    # Let at least one recovery attempt fail (fence cannot reach any
    # backup while they are all down).
    cluster.sim.run(until=cluster.sim.now + 30_000.0)
    assert detector.recoveries_failed >= 1
    assert detector.standby_hosts == [standby]       # returned, not leaked
    assert detector._misses["m0"] == detector.miss_threshold - 1  # re-armed
    # Cause clears: backups restart (their storage is durable)...
    for backup in backup_hosts:
        backup.restart()
    cluster.sim.run(until=cluster.sim.now + 60_000.0)
    detector.stop()
    # ...and the retry consumed the standby and completed.
    assert detector.recoveries_completed == 1
    assert detector.standby_hosts == []
    recovered = cluster.coordinator.masters["m0"].master
    assert recovered.active
    assert recovered.store.read("a") == 1


def test_dead_witness_is_replaced():
    """A crashed witness host goes silent; the watchdog drives
    replace_witness with a standby and the master regains full witness
    strength (previously nothing ever invoked this automatically)."""
    cluster = detector_cluster()
    standby = cluster.add_host("w-standby", role="witness")
    detector = make_detector(cluster, [], witness_standbys=[standby])
    detector.start()
    managed = cluster.coordinator.masters["m0"]
    dead = managed.witnesses[0]
    cluster.network.host(dead).crash()
    cluster.sim.run(until=cluster.sim.now + 30_000.0)
    detector.stop()
    assert detector.witnesses_replaced == 1
    assert managed.witnesses == [standby.name]
    assert any(kind == "witness" and target == dead
               for _t, kind, target in detector.detections)
    # The replacement serves the 1-RTT path: a fresh update completes.
    client = cluster.new_client()
    cluster.run(client.update(Write("k", 9)))
    assert cluster.master().store.read("k") == 9


def test_gray_witness_invisible_to_ping_only_detector():
    """A gray witness (data path dead, ping alive) never goes silent:
    without data probes the watchdog sees a healthy host forever."""
    cluster = detector_cluster()
    standby = cluster.add_host("w-standby", role="witness")
    detector = make_detector(cluster, [], witness_standbys=[standby],
                             data_probes=False)
    detector.start()
    witness = cluster.coordinator.masters["m0"].witnesses[0]
    cluster.network.set_gray_host(witness, allow=("ping",))
    cluster.sim.run(until=cluster.sim.now + 30_000.0)
    detector.stop()
    assert detector.witnesses_replaced == 0
    assert detector.gray_detected == 0
    assert detector._member_misses.get(witness, 0) == 0  # pings all fine


def test_gray_witness_detected_and_replaced_via_data_probes():
    """With data probes on, the evidence window convicts the gray
    witness while its pings still succeed, quarantines it, and drives
    a replacement."""
    cluster = detector_cluster()
    standby = cluster.add_host("w-standby", role="witness")
    detector = make_detector(cluster, [], witness_standbys=[standby],
                             data_probes=True, gray_threshold=3)
    detector.start()
    managed = cluster.coordinator.masters["m0"]
    gray = managed.witnesses[0]
    cluster.network.set_gray_host(gray, allow=("ping",))
    cluster.sim.run(until=cluster.sim.now + 30_000.0)
    detector.stop()
    assert detector.gray_detected == 1
    assert gray in detector.quarantined
    assert detector.witnesses_replaced == 1
    assert managed.witnesses == [standby.name]
    detect_time = next(t for t, kind, target in detector.detections
                       if kind == "gray-witness" and target == gray)
    # Conviction needs gray_threshold failed probes, one per interval.
    assert detect_time <= detector.gray_threshold * detector.interval \
        + detector.ping_timeout * 2 + detector.interval


def test_gray_master_detected_and_recovered_via_data_probes():
    """A gray master (pings fine, data path dead) wedges every client
    but never goes silent.  The watchdog's master data probe — a read
    through the worker pool — times out, the evidence window convicts
    the host, and the repair is a full supervised recovery onto the
    standby: the quarantined host's data lives on the backups."""
    cluster = detector_cluster()
    client = cluster.new_client()
    cluster.run(client.update(Write("a", 1)))
    cluster.settle()
    standby = cluster.add_host("gm-standby", role="master")
    detector = make_detector(cluster, [standby], data_probes=True,
                             gray_threshold=3)
    detector.start()
    managed = cluster.coordinator.masters["m0"]
    old_host = managed.host
    cluster.network.set_gray_host(old_host, allow=("ping",))
    cluster.sim.run(until=cluster.sim.now + 60_000.0)
    detector.stop()
    assert detector.gray_detected == 1
    assert old_host in detector.quarantined
    assert detector._misses["m0"] == 0          # pings never missed
    assert any(kind == "gray-master" and target == "m0"
               for _t, kind, target in detector.detections)
    # The repair was a recovery, not a replacement: service moved to
    # the standby with the pre-fault data intact.
    assert detector.recoveries_completed == 1
    assert managed.host == standby.name
    assert managed.master.active
    assert managed.master.store.read("a") == 1


def test_dead_backup_is_replaced():
    """A crashed backup goes silent; the watchdog drives replace_backup
    so syncs (which need all f backups) can complete again."""
    cluster = detector_cluster()
    standby = cluster.add_host("b-standby", role="backup")
    detector = make_detector(cluster, [], backup_standbys=[standby])
    detector.start()
    managed = cluster.coordinator.masters["m0"]
    dead = managed.backups[0]
    cluster.network.host(dead).crash()
    cluster.sim.run(until=cluster.sim.now + 30_000.0)
    detector.stop()
    assert detector.backups_replaced == 1
    assert managed.backups == [standby.name]
    # The replacement carries the sync path: an update fully syncs.
    client = cluster.new_client()
    cluster.run(client.update(Write("k", 5)))
    cluster.settle()
    assert len(cluster.coordinator.backup_servers[standby.name].wal) >= 1


def _slow_disk_run(adaptive: bool):
    """A 10× slow-disk plan against m0's backup under conflicting write
    load: sync waits pile workers up, so master data probes answer —
    slowly.  Returns the detector after 60 ms of watched traffic."""
    storage = StorageProfile(enabled=True, append_time=20.0,
                             rotation_time=50.0)
    cluster = detector_cluster(min_sync_batch=1, idle_sync_delay=100.0,
                               rpc_timeout=2_000.0, storage=storage)
    standby = cluster.add_host("sd-standby", role="master")
    detector = make_detector(cluster, [standby], ping_timeout=400.0,
                             data_probes=True, data_probe_slo=150.0,
                             gray_threshold=3,
                             adaptive_probe_slo=adaptive)
    detector.start()
    backup = cluster.coordinator.masters["m0"].backups[0]
    injector = cluster.inject_faults(FaultPlan(events=(
        SlowDisk(host=backup, multiplier=10.0, start=3_000.0),), seed=3))
    injector.start()
    clients = [cluster.new_client() for _ in range(4)]

    def load(client):
        for round_number in range(200):
            yield from client.update(Write("hot", round_number))
    for client in clients:
        client.host.spawn(load(client), name=f"load-{client.host.name}")
    cluster.sim.run(until=cluster.sim.now + 60_000.0)
    detector.stop()
    injector.heal_all()
    return cluster, detector


def test_fixed_slo_convicts_slow_disk_master_as_gray():
    """The failure mode the adaptive SLO exists for: with a fixed probe
    SLO, a master merely *starved* by its backup's 10×-degraded disk
    misses the deadline and gets convicted gray — a false positive
    that burns a standby on a host whose data path still works."""
    _cluster, detector = _slow_disk_run(adaptive=False)
    assert detector.gray_detected >= 1
    assert any(kind == "gray-master" for _t, kind, _x in detector.detections)


def test_adaptive_slo_rides_through_slow_disk():
    """ISSUE 9 regression: with ``adaptive_probe_slo`` the same 10×
    slow-disk plan raises m0's own probe SLO from its answered-probe
    latency EWMA — no gray conviction, no detection, the standby pool
    untouched — while the misses counter shows pings stayed healthy."""
    cluster, detector = _slow_disk_run(adaptive=True)
    assert detector.gray_detected == 0
    assert detector.detections == []
    assert len(detector.standby_hosts) == 1      # standby never popped
    assert detector._misses.get("m0", 0) == 0
    # The EWMA visibly adapted past the base SLO: the probes really
    # were slow, the detector just judged them against the right bar.
    host = cluster.coordinator.masters["m0"].host
    assert detector._probe_ewma[host] > detector.data_probe_slo


def test_flap_damping_backs_off_repeat_convictions():
    """ISSUE 9 regression: under a HostFlap plan (m0's host bouncing
    every 3 ms with no standby to recover onto) the undamped watchdog
    convicts on every flap; with ``flap_damping`` the exponentially
    growing re-arm delay swallows most repeats."""
    def run(damping: bool):
        cluster = detector_cluster()
        detector = make_detector(cluster, [], miss_threshold=2,
                                 flap_damping=damping)
        detector.start()
        host = cluster.coordinator.masters["m0"].host
        events = tuple(HostFlap(host=host, start=1_000.0 + 3_000.0 * i,
                                end=2_600.0 + 3_000.0 * i)
                       for i in range(12))
        injector = cluster.inject_faults(FaultPlan(events=events, seed=3))
        injector.start()
        cluster.sim.run(until=cluster.sim.now + 40_000.0)
        detector.stop()
        injector.heal_all()
        return detector

    undamped = run(False)
    damped = run(True)
    assert len(undamped.detections) == 12        # one per flap
    assert undamped.flap_suppressed == 0
    # Damping swallowed most repeats behind the growing delay, but the
    # host can still be convicted once each delay expires — damping
    # slows the watchdog down, it never blinds it.
    assert 1 <= len(damped.detections) < len(undamped.detections) // 2
    assert damped.flap_suppressed > 0
    assert damped._convictions[damped.coordinator.masters["m0"].host] \
        == len(damped.detections)


def test_stop_halts_pinging():
    cluster = detector_cluster()
    detector = make_detector(cluster, [])
    detector.start()
    cluster.sim.run(until=cluster.sim.now + 2_000.0)
    detector.stop()
    cluster.master().host.crash()
    cluster.sim.run(until=cluster.sim.now + 10_000.0)
    # No pings after stop(): the crash is never even noticed.
    assert detector._misses.get("m0", 0) == 0
    assert detector.recoveries_started == 0


# ----------------------------------------------------------------------
# standby pool replenishment (ROADMAP item; regression for silent
# permanent depletion)
# ----------------------------------------------------------------------
def test_exhausted_pool_is_counted_and_warned():
    """Regression: a detection with an empty standby pool used to
    return silently — the pool depleted permanently with no signal.
    Now every skipped repair is counted and put on the timeline."""
    cluster = detector_cluster()
    detector = make_detector(cluster, [])  # empty pool from the start
    detector.start()
    cluster.master().host.crash()
    cluster.sim.run(until=cluster.sim.now + 10_000.0)
    detector.stop()
    assert detector.recoveries_started == 0
    assert detector.standbys_exhausted >= 1
    warnings = [d for d in detector.warnings
                if d[1] == "standbys-exhausted"]
    assert warnings and warnings[0][2] == "master:m0"
    # The warning timeline is separate: exhaustion must not masquerade
    # as an extra failure detection (availability metrics count those).
    assert all(kind != "standbys-exhausted"
               for _t, kind, _x in detector.detections)


def test_recovered_host_returns_to_standby_pool():
    """A crashed-then-rebooted master host is reclaimed into the pool
    after its shard recovered elsewhere — the pool replenishes instead
    of shrinking monotonically."""
    cluster = detector_cluster()
    client = cluster.new_client()
    cluster.run(client.update(Write("k", "v")))
    standby = cluster.add_host("repl-standby", role="master")
    detector = make_detector(cluster, [standby])
    detector.start()

    dead = cluster.master().host
    dead.crash()
    cluster.sim.run(until=cluster.sim.now + 30_000.0)
    assert detector.recoveries_completed == 1
    assert detector.standby_hosts == []  # consumed
    assert dead.name in detector._retired

    # The old host comes back (reboot): the reclaim pass readmits it.
    dead.restart()
    cluster.sim.run(until=cluster.sim.now + 5_000.0)
    assert detector.standbys_reclaimed == 1
    assert detector.standby_hosts == [dead]
    assert dead.name not in detector._retired
    assert any(kind == "standby-reclaimed" and target == dead.name
               for _t, kind, target in detector.repairs)
    # And the reclaimed host actually works as a recovery target.
    cluster.master().host.crash()
    cluster.sim.run(until=cluster.sim.now + 30_000.0)
    detector.stop()
    assert detector.recoveries_completed == 2
    assert cluster.run(client.read("k"), timeout=1_000_000.0) == "v"


def test_reclaim_never_readmits_quarantined_hosts():
    cluster = detector_cluster()
    standby = cluster.add_host("q-standby", role="master")
    detector = make_detector(cluster, [standby])
    dead = cluster.master().host
    detector.quarantined.add(dead.name)
    detector._retired[dead.name] = "master"
    detector.start()
    cluster.sim.run(until=cluster.sim.now + 5_000.0)
    detector.stop()
    assert detector.standbys_reclaimed == 0
    assert dead.name in detector._retired
