"""Append-only file, fsynced on its host's disk.

Redis durability = append the command to the AOF and ``fsync`` before
replying.  The cost is entirely the fsync: 50–100 µs on the paper's
NVMe drives (Table 1), milliseconds on SATA.  Each fsync draws its
duration (lognormal by default) and charges it to the host's disk
(``host.disk``, a :class:`~repro.sim.resources.VirtualDisk`), so one
fsync runs at a time and concurrent requests queue — which is
precisely what makes Redis's event-loop batching (§C.2) effective: one
fsync can cover many commands.  A ``SlowDisk`` fault on the host scales
every fsync.

AOF contents survive host crash/restart (it is a file); the buffer of
*unsynced* commands does not, and neither does the fsync in flight.
"""

from __future__ import annotations

import typing

from repro.sim.distributions import Distribution, LogNormal

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.net.host import Host


#: NVMe flash fsync band from Table 1 / §5.4 (µs)
DEFAULT_FSYNC = LogNormal(median=70.0, sigma=0.25)


class AppendOnlyFile:
    """The AOF: an ordered command log with a durable prefix.

    ``append`` buffers a command (volatile); ``request_durable`` runs
    one fsync and marks everything appended so far durable.  Crash
    recovery replays ``durable_entries``.
    """

    def __init__(self, host: "Host", duration: Distribution | None = None):
        self.sim = host.sim
        #: the fsync duration distribution, drawn from ``sim.rng``
        self.duration = duration or DEFAULT_FSYNC
        #: fsyncs started, over every incarnation
        self.fsyncs = 0
        #: (seq, command, rpc_id, result) tuples; seq starts at 1.  The
        #: result rides along so RIFL completion records are durable
        #: atomically with the command (same argument as §3.3).
        self._entries: list[tuple[int, typing.Any, typing.Any, typing.Any]] = []
        self.durable_seq = 0
        self._fsync_waiters: list[tuple[int, typing.Any]] = []
        #: the number of the fsync in flight (None: none); a completion
        #: whose number no longer matches was dropped by a crash
        self._in_flight: int | None = None
        #: callbacks invoked (with the new durable_seq) after each fsync
        self.on_durable: list[typing.Callable[[int], None]] = []
        host.on_crash(self._on_crash)
        self._host = host

    @property
    def end_seq(self) -> int:
        return len(self._entries)

    def append(self, command: typing.Any, rpc_id: typing.Any = None,
               result: typing.Any = None) -> int:
        """Buffer a command; returns its sequence number."""
        seq = len(self._entries) + 1
        self._entries.append((seq, command, rpc_id, result))
        return seq

    # ------------------------------------------------------------------
    # durability
    # ------------------------------------------------------------------
    def request_durable(self, target_seq: int):
        """Event that fires once durable_seq >= target_seq."""
        done = self.sim.event()
        if self.durable_seq >= target_seq:
            done.succeed()
            return done
        self._fsync_waiters.append((target_seq, done))
        self._kick()
        return done

    def _kick(self) -> None:
        if self._in_flight is not None or not self._host.alive:
            return
        if self.durable_seq >= self.end_seq:
            return
        self._fsync()

    def _fsync(self) -> None:
        """Charge one fsync to the disk; it covers everything appended
        so far."""
        self.fsyncs += 1
        self._in_flight = self.fsyncs
        delay = self._host.disk.charge(self.duration.sample(self.sim.rng))
        self.sim.schedule_callback(delay, self._fsynced, self.fsyncs,
                                   self.end_seq)

    def _fsynced(self, fsync: int, target: int) -> None:
        if fsync != self._in_flight:
            return  # the host crashed during this fsync
        self.durable_seq = target
        still = []
        for seq, event in self._fsync_waiters:
            if seq <= target:
                event.succeed()
            else:
                still.append((seq, event))
        self._fsync_waiters = still
        for callback in self.on_durable:
            callback(target)
        if still and self.durable_seq < self.end_seq:
            self._fsync()
        else:
            # No demand: leave the tail for the next kick.
            self._in_flight = None

    # ------------------------------------------------------------------
    # crash model
    # ------------------------------------------------------------------
    def _on_crash(self) -> None:
        """The file survives; buffered-but-unsynced entries do not."""
        self._entries = self._entries[:self.durable_seq]
        self._fsync_waiters.clear()
        self._in_flight = None

    def durable_entries(self) -> list[tuple[int, typing.Any, typing.Any]]:
        return self._entries[:self.durable_seq]
