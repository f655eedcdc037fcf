"""The cluster watchdog: failure detection and self-healing repair.

The paper leaves crash *detection* to the underlying system (RAMCloud
pings through its coordinator, §4.7).  This watchdog closes the whole
loop, in three tiers:

- **Masters** — ping on an interval; ``miss_threshold`` consecutive
  misses drive :meth:`~repro.cluster.coordinator.Coordinator.\
recover_master` onto the next standby.  Recovery is *supervised*: a
  :class:`~repro.core.recovery.RecoveryFailed` returns the standby to
  the pool and re-arms the miss counter so the next interval retries,
  instead of silently leaking the standby (the pre-watchdog bug).
- **Witnesses and backups** (watched iff their ``witness_standbys``/
  ``backup_standbys`` pool was given) — the same ping discipline,
  driving the coordinator's ``replace_witness``/``replace_backup``
  paths, which nothing invoked before.  A replacement standby is popped per
  (master, dead host) pair and returned to the pool if the replacement
  fails.
- **Gray failures** (``data_probes``) — a host that still answers
  ``ping`` while its data path is dead never goes silent, so a
  ping-only detector waits forever.  The watchdog therefore also sends
  timed *data-path* probes: each witness gets a real ``probe`` RPC
  (the code path client records take), and each master a ``read`` of
  a dedicated never-written key it owns — a round trip through the
  admission check and the worker pool, so a master whose workers are
  all wedged (e.g. stuck syncing across a one-way partition) fails the
  probe while its ping, which needs no worker, still succeeds.  An
  evidence window per (master, host) accumulates the outcomes:
  ``gray_threshold`` data-probe failures inside ``evidence_window`` µs
  while pings still succeed convicts the host as gray — it is
  quarantined and replaced (witness) or recovered onto a standby
  (master) immediately rather than waiting for a silence that never
  comes.  Master probes bypass admission shedding (they must time the
  worker pool itself), and a master that answers with an application
  error is overloaded or mid-migration, not gray — only timeouts are
  gray evidence.

Two guards keep the conviction machinery honest on degraded-but-alive
clusters (both off by default):

- **Adaptive probe SLOs** (``adaptive_probe_slo``) — each target's
  probe deadline scales with the EWMA of its own answered-probe
  latencies (clamped to ``[data_probe_slo, probe_slo_cap]``), so a
  uniformly fail-slow host (degraded disk, saturated NIC) raises its
  own SLO instead of getting convicted gray, while a wedged host still
  times out at the cap.
- **Flap damping** (``flap_damping``) — repeat convictions of the same
  host are suppressed behind an exponentially growing re-arm delay, so
  flapping power or a repair that cannot stick backs the watchdog off
  instead of churning standbys every few intervals.

Detection and repair times are logged in :attr:`detections` and
:attr:`repairs` — the availability benchmarks read time-to-detect and
MTTR straight off these timelines.

The watchdog runs as a host process on the coordinator; ``stop()``
ends the loop (simulations that ``run()`` to queue exhaustion must
stop it first).
"""

from __future__ import annotations

import typing

from repro.core.messages import ProbeArgs, ReadArgs
from repro.core.recovery import RecoveryFailed
from repro.kvstore.hashing import key_hash
from repro.rpc import AppError, RpcError

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.coordinator import Coordinator
    from repro.net.host import Host


#: adaptive probe SLO = MULTIPLIER × the EWMA (weight ALPHA on the newest
#: sample) of a target's probe latencies, at most CAP_FACTOR × the base SLO
PROBE_SLO_MULTIPLIER = 4.0
PROBE_EWMA_ALPHA = 0.5
PROBE_SLO_CAP_FACTOR = 16.0


class FailureDetector:
    """Detects crashed/gray cluster members and triggers repair."""

    def __init__(self, coordinator: "Coordinator",
                 standby_hosts: typing.Sequence["Host"],
                 interval: float = 1_000.0, miss_threshold: int = 3,
                 ping_timeout: float = 500.0,
                 witness_standbys: typing.Sequence["Host"] = (),
                 backup_standbys: typing.Sequence["Host"] = (),
                 data_probes: bool = False,
                 data_probe_slo: float | None = None,
                 gray_threshold: int = 3,
                 adaptive_probe_slo: bool = False,
                 flap_damping: bool = False):
        if data_probe_slo is None:
            data_probe_slo = ping_timeout
        # ``not x > 0`` also rejects NaN: a loop built on a nonsense
        # cadence dies on its first step while still claiming to run.
        if not interval > 0:
            raise ValueError("interval must be > 0")
        if miss_threshold < 1:
            raise ValueError("miss_threshold must be >= 1")
        if not ping_timeout > 0:
            raise ValueError("ping_timeout must be > 0")
        if gray_threshold < 1:
            raise ValueError("gray_threshold must be >= 1")
        if not data_probe_slo > 0:
            raise ValueError("data_probe_slo must be > 0")
        self.coordinator = coordinator
        self.sim = coordinator.sim
        self.standby_hosts = list(standby_hosts)
        self.interval = interval
        self.miss_threshold = miss_threshold
        self.ping_timeout = ping_timeout
        # -- watchdog extensions (all off by default) -------------------
        self.witness_standbys = list(witness_standbys)
        self.backup_standbys = list(backup_standbys)
        #: members are watched iff their pool was given (fixed here: a
        #: pool that later runs dry must keep reporting exhaustion)
        self.watch_witnesses = bool(witness_standbys)
        self.watch_backups = bool(backup_standbys)
        self.data_probes = data_probes
        #: a data probe slower than this is a failure even if it
        #: eventually answers (fail-slow = failed); default: the ping
        #: timeout, i.e. only outright timeouts fail
        self.data_probe_slo = data_probe_slo
        #: how far back data-probe evidence counts toward a gray
        #: verdict: room for ``gray_threshold`` probes that each burn
        #: their full SLO before failing
        self.evidence_window = (
            (gray_threshold + 1) * (interval + data_probe_slo))
        self.gray_threshold = gray_threshold
        # -- adaptive probe SLO (ISSUE 9) -------------------------------
        #: scale each target's probe deadline from its observed probe
        #: latency: a uniformly fail-slow host (degraded disk, slow
        #: NIC) raises its own SLO instead of getting convicted gray,
        #: while a *wedged* host still times out at ``probe_slo_cap``
        self.adaptive_probe_slo = adaptive_probe_slo
        #: the most a target's SLO may adapt up to — also the RPC
        #: deadline in adaptive mode, so answered-but-slow probes yield
        #: real latency samples instead of opaque timeouts
        self.probe_slo_cap = PROBE_SLO_CAP_FACTOR * data_probe_slo
        # -- flap damping (ISSUE 9) -------------------------------------
        #: suppress repeat convictions of the same host behind an
        #: exponentially growing re-arm delay, so a flapping host (or a
        #: repair that keeps failing) cannot churn standbys and spam
        #: the detection timeline every few intervals
        self.flap_damping = flap_damping
        self.flap_base_delay = 2.0 * interval * miss_threshold
        self.flap_max_delay = 32.0 * self.flap_base_delay
        # -- state ------------------------------------------------------
        self._misses: dict[str, int] = {}
        self._member_misses: dict[str, int] = {}
        #: (master_id, host) → [(time, ok), ...] data-probe evidence
        self._evidence: dict[tuple[str, str], list[tuple[float, bool]]] = {}
        #: master_id → (owned_ranges snapshot, probe key) — a key the
        #: master owns but no client ever writes, found by trial hashing
        self._probe_keys: dict[str, tuple[tuple, str]] = {}
        #: replacements in flight, as (master_id, dead host) pairs
        self._replacing: set[tuple[str, str]] = set()
        #: hosts convicted as gray (never un-convicted)
        self.quarantined: set[str] = set()
        #: host → EWMA of answered data-probe latencies
        self._probe_ewma: dict[str, float] = {}
        #: host → conviction count (drives the re-arm delay growth)
        self._convictions: dict[str, int] = {}
        #: host → sim time before which re-conviction is suppressed
        self._rearm_at: dict[str, float] = {}
        #: host name → pool kind ("master" | "witness" | "backup"):
        #: hosts a completed repair replaced away.  The reclaim pass
        #: pings them; one that answers again (rebooted, healed) goes
        #: back into its pool instead of being leaked forever.
        self._retired: dict[str, str] = {}
        self._running = False
        # -- counters and timelines -------------------------------------
        self.recoveries_started = 0
        self.recoveries_failed = 0
        self.recoveries_completed = 0
        self.witnesses_replaced = 0
        self.backups_replaced = 0
        self.gray_detected = 0
        #: convictions swallowed by flap damping's re-arm delay
        self.flap_suppressed = 0
        #: repairs skipped because the needed standby pool was empty —
        #: the previously silent depletion failure mode.  Each skip
        #: also lands a "standbys-exhausted" warning in the timeline.
        self.standbys_exhausted = 0
        #: replaced-away hosts returned to a pool by the reclaim pass
        self.standbys_reclaimed = 0
        #: (virtual time, kind, target) — kind in {"master",
        #: "witness", "backup", "gray-witness", "gray-master"}
        self.detections: list[tuple[float, str, str]] = []
        self.repairs: list[tuple[float, str, str]] = []
        #: (virtual time, "standbys-exhausted", "<kind>:<target>") —
        #: kept separate from :attr:`detections` so availability
        #: metrics (which treat every detection as an outage edge)
        #: keep their meaning
        self.warnings: list[tuple[float, str, str]] = []

    def start(self) -> None:
        if self._running:
            return
        self._running = True
        self.coordinator.host.spawn(self._loop(), name="failure-detector")

    def stop(self) -> None:
        self._running = False

    # ------------------------------------------------------------------
    # the watch loop
    # ------------------------------------------------------------------
    def _loop(self):
        while self._running:
            yield self.sim.timeout(self.interval)
            if not self._running:
                return
            yield from self._check_masters()
            if not self._running:
                return
            if self.watch_witnesses:
                yield from self._check_witnesses()
            if self.watch_backups:
                yield from self._check_backups()
            if self._retired:
                yield from self._reclaim_standbys()

    def _check_masters(self):
        for master_id, managed in list(self.coordinator.masters.items()):
            if managed.recovering:
                continue
            alive = yield from self._ping(managed.host)
            if alive:
                self._misses[master_id] = 0
                if self.data_probes and managed.host not in self.quarantined:
                    yield from self._probe_master(master_id, managed)
                continue
            self._misses[master_id] = self._misses.get(master_id, 0) + 1
            if self._misses[master_id] >= self.miss_threshold:
                self._misses[master_id] = 0
                if self._damped(managed.host):
                    continue
                self._note_conviction(managed.host)
                self.detections.append((self.sim.now, "master", master_id))
                self._start_recovery(master_id)

    def _start_recovery(self, master_id: str,
                        unquarantine: str | None = None) -> None:
        if not self.standby_hosts:
            self._note_exhausted("master", master_id)
            return  # nowhere to recover to
        managed = self.coordinator.masters.get(master_id)
        dead_host = managed.host if managed is not None else None
        standby = self.standby_hosts.pop(0)
        self.recoveries_started += 1
        self.coordinator.host.spawn(
            self._supervised_recovery(master_id, standby, unquarantine,
                                      dead_host),
            name=f"recover-{master_id}")

    def _probe_master(self, master_id: str, managed):
        """Data-path probe of a pingable master, plus the evidence
        bookkeeping and gray conviction (mirrors the witness path but
        repairs by *recovery* — a gray master's data is on backups)."""
        host = managed.host
        ok = yield from self._data_probe_master(master_id, managed)
        if managed.recovering or managed.host != host \
                or host in self.quarantined:
            return  # someone else convicted/recovered while we probed
        if self._convicted(master_id, host, ok):
            if self._damped(host):
                return
            self._note_conviction(host)
            self.gray_detected += 1
            self.quarantined.add(host)
            self.detections.append((self.sim.now, "gray-master", master_id))
            # Recovery onto a standby abandons the wedged host; if it
            # fails, un-quarantine so fresh evidence can retry.
            self._start_recovery(master_id, unquarantine=host)

    def _convicted(self, master_id: str, host: str, ok: bool) -> bool:
        """Append one data-probe outcome to the (master, host) evidence
        window; True when failures reach ``gray_threshold``."""
        evidence = self._evidence.setdefault((master_id, host), [])
        evidence.append((self.sim.now, ok))
        horizon = self.sim.now - self.evidence_window
        while evidence and evidence[0][0] < horizon:
            evidence.pop(0)
        return sum(1 for _t, good in evidence if not good) \
            >= self.gray_threshold

    def _supervised_recovery(self, master_id: str, standby: "Host",
                             unquarantine: str | None = None,
                             dead_host: str | None = None):
        """Run one recovery attempt; on failure, return the standby to
        the pool and re-arm suspicion so the next interval retries."""
        try:
            yield from self.coordinator.recover_master(master_id, standby)
        except RecoveryFailed:
            self.recoveries_failed += 1
            self.standby_hosts.append(standby)
            # One more miss re-crosses the threshold: retry promptly
            # but still require fresh evidence of silence.
            self._misses[master_id] = self.miss_threshold - 1
            # A gray conviction that failed to recover must be re-won
            # from fresh probe evidence, not remembered forever.
            if unquarantine is not None:
                self.quarantined.discard(unquarantine)
                self._evidence.pop((master_id, unquarantine), None)
        else:
            self.recoveries_completed += 1
            self.repairs.append((self.sim.now, "master", master_id))
            if dead_host is not None:
                # The abandoned host is a reclaim candidate: if it
                # ever answers pings again, it rejoins the pool.
                self._retired[dead_host] = "master"

    # ------------------------------------------------------------------
    # witnesses: silence AND gray detection
    # ------------------------------------------------------------------
    def _check_witnesses(self):
        pairs = [(master_id, witness)
                 for master_id, managed in self.coordinator.masters.items()
                 if not managed.recovering
                 for witness in managed.witnesses]
        for master_id, witness in pairs:
            if (master_id, witness) in self._replacing \
                    or witness in self.quarantined:
                continue
            alive = yield from self._ping(witness)
            if not alive:
                misses = self._member_misses.get(witness, 0) + 1
                self._member_misses[witness] = misses
                if misses >= self.miss_threshold:
                    self._member_misses[witness] = 0
                    if self._damped(witness):
                        continue
                    self._note_conviction(witness)
                    self.detections.append((self.sim.now, "witness", witness))
                    self._replace_witness_everywhere(witness)
                continue
            self._member_misses[witness] = 0
            if not self.data_probes:
                continue
            ok = yield from self._data_probe(master_id, witness)
            if self._convicted(master_id, witness, ok):
                # Ping answers, data path dead: the gray conviction.
                if self._damped(witness):
                    continue
                self._note_conviction(witness)
                self.gray_detected += 1
                self.quarantined.add(witness)
                self.detections.append(
                    (self.sim.now, "gray-witness", witness))
                self._replace_witness_everywhere(witness)

    def _effective_slo(self, target: str) -> float:
        """The probe deadline in force for ``target`` right now.

        Fixed mode: ``data_probe_slo``.  Adaptive mode: the target's
        answered-probe latency EWMA scaled by ``PROBE_SLO_MULTIPLIER``,
        clamped between the base SLO (floor — adaptation never makes
        the detector hair-trigger) and ``probe_slo_cap`` (ceiling — a
        wedged host still gets convicted, just proportionally later on
        a host that was already known to be slow)."""
        if not self.adaptive_probe_slo:
            return self.data_probe_slo
        ewma = self._probe_ewma.get(target)
        if ewma is None:
            return self.data_probe_slo
        return min(max(self.data_probe_slo, ewma * PROBE_SLO_MULTIPLIER),
                   self.probe_slo_cap)

    def _observe_probe(self, target: str, latency: float) -> None:
        prev = self._probe_ewma.get(target)
        self._probe_ewma[target] = (
            latency if prev is None
            else (1.0 - PROBE_EWMA_ALPHA) * prev
            + PROBE_EWMA_ALPHA * latency)

    def _data_probe(self, master_id: str, witness: str):
        """A timed data-path round trip: the witness's real ``probe``
        RPC (any reply proves the record/probe path works; the reply
        value does not matter).  The effective SLO is the verdict
        line: an answer slower than it is a failure — fail-slow counts
        as failed.  In adaptive mode the RPC deadline is the cap, so a
        slow-but-answering witness contributes a latency sample that
        raises its own SLO instead of an opaque timeout."""
        slo = self._effective_slo(witness)
        deadline = self.probe_slo_cap if self.adaptive_probe_slo else slo
        start = self.sim.now
        try:
            yield self.coordinator.transport.call(
                witness, "probe",
                ProbeArgs(master_id=master_id, key_hashes=()),
                timeout=deadline)
        except RpcError:
            return False
        self._observe_probe(witness, self.sim.now - start)
        return self.sim.now - start <= slo

    def _data_probe_master(self, master_id: str, managed):
        """A timed data-path round trip through the master's worker
        pool: ``read`` of an owned key no client ever writes, so it
        never sync-waits yet must win a worker — exactly what a wedged
        master cannot grant.  The probe bypasses admission shedding
        (``ReadArgs.probe``): a merely overloaded pool drains it
        within the SLO, a wedged one times out.  Application errors
        (a ``WRONG_SHARD`` race with migration, explicit pushback)
        are live answers, not gray evidence.  Deadline/SLO split as in
        :meth:`_data_probe`: adaptive mode waits out to the cap and
        judges the answer against the target's own adapted SLO."""
        slo = self._effective_slo(managed.host)
        deadline = self.probe_slo_cap if self.adaptive_probe_slo else slo
        start = self.sim.now
        try:
            yield self.coordinator.transport.call(
                managed.host, "read",
                ReadArgs(key=self._probe_key(master_id, managed),
                         probe=True),
                timeout=deadline)
        except AppError:
            self._observe_probe(managed.host, self.sim.now - start)
            return True
        except RpcError:
            return False
        self._observe_probe(managed.host, self.sim.now - start)
        return self.sim.now - start <= slo

    def _probe_key(self, master_id: str, managed) -> str:
        """A key the master owns, from a namespace no workload uses,
        found by trial hashing and cached until the owned ranges move
        (splits/migrations invalidate the cache)."""
        ranges = tuple(managed.owned_ranges)
        cached = self._probe_keys.get(master_id)
        if cached is not None and cached[0] == ranges:
            return cached[1]
        for i in range(10_000):
            key = f"__watchdog-probe-{master_id}-{i}"
            if any(lo <= key_hash(key) < hi for lo, hi in ranges):
                self._probe_keys[master_id] = (ranges, key)
                return key
        raise ValueError(f"no probe key hashes into {master_id}'s ranges")

    def _replace_witness_everywhere(self, dead: str) -> None:
        """Spawn a replacement for *every* master served by ``dead``
        (a shared witness host fails for all its masters at once);
        each replacement consumes its own standby."""
        for master_id, managed in list(self.coordinator.masters.items()):
            if dead not in managed.witnesses \
                    or (master_id, dead) in self._replacing:
                continue
            if not self.witness_standbys:
                self._note_exhausted("witness", f"{master_id}:{dead}")
                continue  # nowhere to replace to; retry next conviction
            standby = self.witness_standbys.pop(0)
            self._replacing.add((master_id, dead))
            self.coordinator.host.spawn(
                self._replace_witness(master_id, dead, standby),
                name=f"replace-witness-{master_id}")

    def _replace_witness(self, master_id: str, dead: str, standby: "Host"):
        try:
            yield from self.coordinator.replace_witness(
                master_id, dead, standby)
        except (RecoveryFailed, ValueError, KeyError):
            self.witness_standbys.append(standby)
        else:
            self.witnesses_replaced += 1
            self.repairs.append(
                (self.sim.now, "witness", f"{master_id}:{standby.name}"))
            self._retired[dead] = "witness"
        finally:
            self._replacing.discard((master_id, dead))

    # ------------------------------------------------------------------
    # backups
    # ------------------------------------------------------------------
    def _check_backups(self):
        pairs = [(master_id, backup)
                 for master_id, managed in self.coordinator.masters.items()
                 if not managed.recovering
                 for backup in managed.backups]
        for master_id, backup in pairs:
            if (master_id, backup) in self._replacing:
                continue
            alive = yield from self._ping(backup)
            if alive:
                self._member_misses[backup] = 0
                continue
            misses = self._member_misses.get(backup, 0) + 1
            self._member_misses[backup] = misses
            if misses >= self.miss_threshold:
                self._member_misses[backup] = 0
                if self._damped(backup):
                    continue
                self._note_conviction(backup)
                self.detections.append((self.sim.now, "backup", backup))
                if not self.backup_standbys:
                    self._note_exhausted("backup", f"{master_id}:{backup}")
                    continue
                standby = self.backup_standbys.pop(0)
                self._replacing.add((master_id, backup))
                self.coordinator.host.spawn(
                    self._replace_backup(master_id, backup, standby),
                    name=f"replace-backup-{master_id}")

    def _replace_backup(self, master_id: str, dead: str, standby: "Host"):
        try:
            yield from self.coordinator.replace_backup(
                master_id, dead, standby)
        except (RecoveryFailed, ValueError, KeyError):
            self.backup_standbys.append(standby)
        else:
            self.backups_replaced += 1
            self.repairs.append(
                (self.sim.now, "backup", f"{master_id}:{standby.name}"))
            self._retired[dead] = "backup"
        finally:
            self._replacing.discard((master_id, dead))

    # ------------------------------------------------------------------
    # standby pool replenishment
    # ------------------------------------------------------------------
    def _note_exhausted(self, kind: str, target: str) -> None:
        """A repair was skipped for lack of a standby: count it and
        put a visible warning on the timeline instead of depleting
        silently (the ROADMAP replenishment item)."""
        self.standbys_exhausted += 1
        self.warnings.append(
            (self.sim.now, "standbys-exhausted", f"{kind}:{target}"))

    def _reclaim_standbys(self):
        """Ping replaced-away hosts; one that answers again (rebooted,
        partition healed) rejoins its standby pool.  Quarantined gray
        hosts are never auto-trusted back."""
        pools = {"master": self.standby_hosts,
                 "witness": self.witness_standbys,
                 "backup": self.backup_standbys}
        for name, kind in list(self._retired.items()):
            if name in self.quarantined:
                continue
            alive = yield from self._ping(name)
            if not alive:
                continue
            del self._retired[name]
            host = self.coordinator.network.hosts.get(name)
            if host is None:
                continue
            pools[kind].append(host)
            self.standbys_reclaimed += 1
            self.repairs.append((self.sim.now, "standby-reclaimed", name))

    # ------------------------------------------------------------------
    # flap damping
    # ------------------------------------------------------------------
    def _damped(self, host: str) -> bool:
        """True while ``host`` is inside the re-arm delay from an
        earlier conviction: the fresh conviction is swallowed (counted
        in :attr:`flap_suppressed`) and no repair runs.  Suspicion
        counters were already reset by the caller, so evidence of a
        *persistent* failure re-accumulates and convicts the moment
        the delay expires."""
        if not self.flap_damping:
            return False
        if self.sim.now < self._rearm_at.get(host, 0.0):
            self.flap_suppressed += 1
            return True
        return False

    def _note_conviction(self, host: str) -> None:
        """Record a conviction of ``host`` and arm its damping delay:
        ``flap_base_delay`` doubled per prior conviction, capped at
        ``flap_max_delay``.  A host that keeps getting convicted —
        flapping power, a repair that cannot stick — backs the
        watchdog off exponentially instead of letting it churn
        standbys every ``miss_threshold`` intervals forever."""
        if not self.flap_damping:
            return
        count = self._convictions.get(host, 0) + 1
        self._convictions[host] = count
        delay = min(self.flap_base_delay * (2.0 ** (count - 1)),
                    self.flap_max_delay)
        self._rearm_at[host] = self.sim.now + delay

    # ------------------------------------------------------------------
    def _ping(self, host_name: str):
        try:
            reply = yield self.coordinator.transport.call(
                host_name, "ping", None, timeout=self.ping_timeout)
            return reply == "PONG"
        except RpcError:
            return False
