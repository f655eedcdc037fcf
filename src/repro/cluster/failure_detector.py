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
  paths, which nothing invoked before.  Each host is pinged once per
  round however many masters or roles it serves, and one that stays
  silent loses all its roles at once.  A replacement standby is popped
  per (master, dead host) pair and returned to the pool if the
  replacement fails.
- **Gray failures** (``data_probes``) — a host that still answers
  ``ping`` while its data path is dead never goes silent, so a
  ping-only detector waits forever.  The watchdog therefore also sends
  timed *data-path* probes: each witness gets a real ``probe`` RPC
  (the code path client records take), and each master a ``read`` of
  a dedicated never-written key it owns — a round trip through the
  admission check and the worker pool, so a master whose workers are
  all wedged (e.g. stuck syncing across a one-way partition) fails the
  probe while its ping, which needs no worker, still succeeds.  An
  evidence window per host accumulates the outcomes:
  ``gray_threshold`` data-probe failures inside ``evidence_window`` µs
  while pings still succeed convicts the host as gray — it is
  quarantined and replaced (witness) or recovered onto a standby
  (master) immediately rather than waiting for a silence that never
  comes.  Master probes bypass admission shedding (they must time the
  worker pool itself), and a master that answers with an application
  error is overloaded or mid-migration, not gray — only timeouts are
  gray evidence.

Detection and repair times are logged in :attr:`detections` and
:attr:`repairs` — the availability benchmarks read time-to-detect and
MTTR straight off these timelines.

The watchdog runs as a host process on the coordinator; ``stop()``
ends the loop (simulations that ``run()`` to queue exhaustion must
stop it first).
"""

from __future__ import annotations

import dataclasses
import typing

from repro.core.messages import ProbeArgs, ReadArgs
from repro.core.recovery import RecoveryFailed
from repro.kvstore.hashing import key_hash
from repro.rpc import AppError, RpcError

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.coordinator import Coordinator
    from repro.net.host import Host


@dataclasses.dataclass(slots=True)
class Watched:
    """What the watchdog knows about one host it pings."""

    #: consecutive rounds the host left its ping unanswered
    misses: int = 0
    #: ``(time, ok)`` data-probe outcomes, oldest first
    evidence: list[tuple[float, bool]] = dataclasses.field(
        default_factory=list)
    #: convicted gray: no longer probed, pinged as a witness or reclaimed
    quarantined: bool = False
    #: once a completed repair replaced the host away: the pool
    #: ("master" | "witness" | "backup") the reclaim pass returns it to
    retired: str | None = None


def _holders(managed, role: str) -> list[str]:
    """The hosts serving ``managed`` in ``role`` ("witness" | "backup")."""
    return managed.witnesses if role == "witness" else managed.backups


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
                 gray_threshold: int = 3):
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
        #: the member roles watched, in check order: each iff its pool
        #: was given (fixed here: a pool that later runs dry must keep
        #: reporting exhaustion)
        self._roles = tuple(role for role, pool in (
            ("witness", witness_standbys), ("backup", backup_standbys))
            if pool)
        self.data_probes = data_probes
        #: the data-probe deadline: a later answer counts as a failure
        #: (fail-slow = failed); default: the ping timeout
        self.data_probe_slo = data_probe_slo
        #: how far back data-probe evidence counts toward a gray
        #: verdict: room for ``gray_threshold`` probes that each burn
        #: their full SLO before failing
        self.evidence_window = (
            (gray_threshold + 1) * (interval + data_probe_slo))
        self.gray_threshold = gray_threshold
        # -- state ------------------------------------------------------
        #: host name → its record, for every host the watchdog has
        #: pinged (a master by its current host)
        self.watched: dict[str, Watched] = {}
        #: master_id → (owned_ranges snapshot, probe key) — a key the
        #: master owns but no client ever writes, found by trial hashing
        self._probe_keys: dict[str, tuple[tuple, str]] = {}
        #: replacements in flight, as (role, master_id, dead host)
        self._replacing: set[tuple[str, str, str]] = set()
        self._pools = {"master": self.standby_hosts,
                       "witness": self.witness_standbys,
                       "backup": self.backup_standbys}
        self._running = False
        # -- counters and timelines -------------------------------------
        self.recoveries_started = 0
        self.recoveries_failed = 0
        self.recoveries_completed = 0
        self.witnesses_replaced = 0
        self.backups_replaced = 0
        self.gray_detected = 0
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
            pinged = yield from self._check_members()
            yield from self._reclaim_standbys(pinged)

    def _check_masters(self):
        for master_id, managed in list(self.coordinator.masters.items()):
            if managed.recovering:
                continue
            host = managed.host
            record = self.watched.setdefault(host, Watched())
            alive = yield from self._ping(host)
            if alive:
                record.misses = 0
                if self.data_probes and not record.quarantined:
                    yield from self._probe_master(master_id, managed, record)
                continue
            record.misses += 1
            if record.misses >= self.miss_threshold:
                record.misses = 0
                self.detections.append((self.sim.now, "master", master_id))
                self._start_recovery(master_id, host)

    def _start_recovery(self, master_id: str, dead_host: str,
                        gray: bool = False) -> None:
        if not self.standby_hosts:
            self._note_exhausted("master", master_id)
            return  # nowhere to recover to
        standby = self.standby_hosts.pop(0)
        self.recoveries_started += 1
        self.coordinator.host.spawn(
            self._supervised_recovery(master_id, standby, dead_host, gray),
            name=f"recover-{master_id}")

    def _probe_master(self, master_id: str, managed, record: Watched):
        """Data-path probe of a pingable master, plus the evidence
        bookkeeping and gray conviction (mirrors the witness path but
        repairs by *recovery* — a gray master's data is on backups)."""
        host = managed.host
        ok = yield from self._data_probe_master(master_id, managed)
        if managed.recovering or managed.host != host \
                or record.quarantined:
            return  # someone else convicted/recovered while we probed
        if self._convicted(record, ok):
            self.gray_detected += 1
            record.quarantined = True
            self.detections.append((self.sim.now, "gray-master", master_id))
            # Recovery onto a standby abandons the wedged host; if it
            # fails, un-quarantine so fresh evidence can retry.
            self._start_recovery(master_id, host, gray=True)

    def _convicted(self, record: Watched, ok: bool) -> bool:
        """Append one data-probe outcome to the host's evidence window;
        True when failures reach ``gray_threshold``."""
        evidence = record.evidence
        evidence.append((self.sim.now, ok))
        horizon = self.sim.now - self.evidence_window
        while evidence and evidence[0][0] < horizon:
            evidence.pop(0)
        return sum(1 for _t, good in evidence if not good) \
            >= self.gray_threshold

    def _supervised_recovery(self, master_id: str, standby: "Host",
                             dead_host: str, gray: bool):
        """Run one recovery attempt; on failure, return the standby to
        the pool and re-arm suspicion so the next interval retries."""
        record = self.watched[dead_host]
        try:
            yield from self.coordinator.recover_master(master_id, standby)
        except RecoveryFailed:
            self.recoveries_failed += 1
            self.standby_hosts.append(standby)
            # One more miss re-crosses the threshold: retry promptly
            # but still require fresh evidence of silence.
            record.misses = self.miss_threshold - 1
            # A gray conviction that failed to recover must be re-won
            # from fresh probe evidence, not remembered forever.
            if gray:
                record.quarantined = False
                record.evidence.clear()
        else:
            self.recoveries_completed += 1
            self.repairs.append((self.sim.now, "master", master_id))
            # The abandoned host is a reclaim candidate.
            record.retired = "master"

    # ------------------------------------------------------------------
    # witnesses and backups: silence AND gray detection
    # ------------------------------------------------------------------
    def _check_members(self):
        """One pass over (master, witness) pairs, then (master, backup)
        pairs.  A host is pinged (and data-probed) on its first pair
        only, so it counts at most one miss per round however many
        masters or roles it serves.  Returns the hosts pinged."""
        pinged: set[str] = set()
        for role in self._roles:
            pairs = [(master_id, name)
                     for master_id, managed in self.coordinator.masters.items()
                     if not managed.recovering
                     for name in _holders(managed, role)]
            for master_id, name in pairs:
                record = self.watched.setdefault(name, Watched())
                if name in pinged \
                        or (role, master_id, name) in self._replacing \
                        or (role == "witness" and record.quarantined):
                    continue
                pinged.add(name)
                alive = yield from self._ping(name)
                if not alive:
                    record.misses += 1
                    if record.misses >= self.miss_threshold:
                        record.misses = 0
                        self._convict_silent(name)
                    continue
                record.misses = 0
                if role == "backup" or not self.data_probes:
                    continue
                ok = yield from self._data_probe(master_id, name)
                if self._convicted(record, ok):
                    # Ping answers, data path dead: the gray conviction.
                    self.gray_detected += 1
                    record.quarantined = True
                    self.detections.append(
                        (self.sim.now, "gray-witness", name))
                    self._replace_everywhere("witness", name)
        return pinged

    def _convict_silent(self, dead: str) -> None:
        """``dead`` stayed silent: it loses every watched role it holds,
        each with its own detection, now."""
        for role in self._roles:
            if self._replace_everywhere(role, dead):
                self.detections.append((self.sim.now, role, dead))

    def _data_probe(self, master_id: str, witness: str):
        """A data-path round trip: the witness's real ``probe`` RPC
        (any reply proves the record/probe path works; the reply value
        does not matter).  Its deadline is ``data_probe_slo``."""
        try:
            yield self.coordinator.transport.call(
                witness, "probe",
                ProbeArgs(master_id=master_id, key_hashes=()),
                timeout=self.data_probe_slo)
        except RpcError:
            return False
        return True

    def _data_probe_master(self, master_id: str, managed):
        """A data-path round trip through the master's worker pool:
        ``read`` of an owned key no client ever writes, so it never
        sync-waits yet must win a worker — exactly what a wedged
        master cannot grant.  The probe bypasses admission shedding
        (``ReadArgs.probe``): a merely overloaded pool drains it
        within the SLO, a wedged one times out.  Application errors
        (a ``WRONG_SHARD`` race with migration, explicit pushback)
        are live answers, not gray evidence."""
        key = self._probe_key(master_id, managed)
        try:
            yield self.coordinator.transport.call(
                managed.host, "read",
                ReadArgs(key=key, key_hash=key_hash(key), probe=True),
                timeout=self.data_probe_slo)
        except AppError:
            return True
        except RpcError:
            return False
        return True

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

    def _replace_everywhere(self, role: str, dead: str) -> bool:
        """Spawn a replacement of ``dead`` for *every* master it serves
        in ``role`` (a shared witness host fails for all its masters at
        once); each replacement consumes its own standby.  False when
        ``dead`` holds no such role not already being replaced."""
        pool = self._pools[role]
        held = False
        for master_id, managed in list(self.coordinator.masters.items()):
            if dead not in _holders(managed, role) \
                    or (role, master_id, dead) in self._replacing:
                continue
            held = True
            if not pool:
                self._note_exhausted(role, f"{master_id}:{dead}")
                continue  # nowhere to replace to; retry next conviction
            standby = pool.pop(0)
            self._replacing.add((role, master_id, dead))
            self.coordinator.host.spawn(
                self._replace(role, master_id, dead, standby),
                name=f"replace-{role}-{master_id}")
        return held

    def _replace(self, role: str, master_id: str, dead: str,
                 standby: "Host"):
        replace = (self.coordinator.replace_witness if role == "witness"
                   else self.coordinator.replace_backup)
        try:
            yield from replace(master_id, dead, standby)
        except (RecoveryFailed, ValueError, KeyError):
            self._pools[role].append(standby)
        else:
            if role == "witness":
                self.witnesses_replaced += 1
            else:
                self.backups_replaced += 1
            self.repairs.append(
                (self.sim.now, role, f"{master_id}:{standby.name}"))
            self.watched[dead].retired = role
        finally:
            self._replacing.discard((role, master_id, dead))

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

    def _reclaim_standbys(self, pinged: set[str]):
        """Ping replaced-away hosts; one that answers again (rebooted,
        partition healed) rejoins its standby pool.  Quarantined gray
        hosts are never auto-trusted back.  A host some master still
        lists (a shared witness replaced for only some of its masters)
        is left to the member checks until no master holds it, and one
        they pinged this round waits for the next."""
        skip = pinged.union(*(
            (managed.host, *managed.witnesses, *managed.backups)
            for managed in self.coordinator.masters.values()))
        retired = [(name, record) for name, record in self.watched.items()
                   if record.retired and not record.quarantined
                   and name not in skip]
        for name, record in retired:
            alive = yield from self._ping(name)
            if not alive:
                continue
            pool, record.retired = record.retired, None
            host = self.coordinator.network.hosts.get(name)
            if host is None:
                continue
            self._pools[pool].append(host)
            self.standbys_reclaimed += 1
            self.repairs.append((self.sim.now, "standby-reclaimed", name))

    # ------------------------------------------------------------------
    def _ping(self, host_name: str):
        try:
            reply = yield self.coordinator.transport.call(
                host_name, "ping", None, timeout=self.ping_timeout)
            return reply == "PONG"
        except RpcError:
            return False
