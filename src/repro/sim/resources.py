"""Counted resources and disks.

A :class:`Resource` has a fixed capacity.  ``request()`` returns an
event that triggers when a unit is granted (FIFO); ``release()`` hands
the unit to the oldest waiter.  The master's worker pool is one.

A :class:`VirtualDisk` is one host's storage device (``host.disk``): a
serial IO channel that a backup's WAL and a Redis AOF's fsyncs charge.
"""

from __future__ import annotations

import collections
import typing

from repro.sim.events import Event

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.sim.simulator import Simulator


class Resource:
    """A FIFO counted resource."""

    def __init__(self, sim: "Simulator", capacity: int = 1, name: str = "resource"):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self.name = name
        self.in_use = 0
        self._waiters: collections.deque[Event] = collections.deque()

    def request(self) -> Event:
        """An event that triggers when a unit is granted."""
        grant = Event(self.sim)
        if self.in_use < self.capacity:
            self.in_use += 1
            grant.succeed()
        else:
            self._waiters.append(grant)
        return grant

    def try_acquire(self) -> bool:
        """Take a unit immediately if one is free (no event, no queue
        entry).  Pair with :meth:`release`; fall back to :meth:`request`
        on False.  The master's worker pool grants inline instead (one
        call fewer per operation), so nothing in the package calls this
        now; it stays while the e2e tracer lists it as an entry point."""
        if self.in_use < self.capacity:
            self.in_use += 1
            return True
        return False

    def release(self) -> None:
        """Return a unit; hands it to the oldest waiter if any."""
        if self.in_use <= 0:
            raise RuntimeError(f"release() without request() on {self.name}")
        if self._waiters:
            self._waiters.popleft().succeed()
        else:
            self.in_use -= 1

    def use(self, duration: float) -> typing.Generator[Event, typing.Any, None]:
        """``yield from`` helper: acquire, hold for ``duration``, release,
        even if the holding process is interrupted while it sleeps.
        Nothing in the package calls this now; it stays while the e2e
        tracer lists it as an entry point."""
        yield self.request()
        try:
            yield self.sim.timeout(duration)
        finally:
            self.release()

    @property
    def queue_length(self) -> int:
        return len(self._waiters)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<Resource {self.name} {self.in_use}/{self.capacity}"
                f" +{len(self._waiters)} waiting>")


class VirtualDisk:
    """One host's disk: a single serial IO channel in virtual time.

    ``charge(cost)`` reserves the next ``cost`` µs of disk time and
    returns the delay from *now* until that IO completes — i.e. queueing
    behind earlier IOs plus the IO itself.  Zero-cost charges return
    0.0 and never touch the clock, so a disabled profile is free.  The
    disk outlives a crash of its host: a restart inside an IO the crash
    aborted waits out its remainder.
    """

    def __init__(self, sim: "Simulator"):
        self.sim = sim
        self.free_at = 0.0
        #: cumulative IO time charged (utilization numerator)
        self.busy_time = 0.0
        #: service-time scale, driven by SlowDisk faults (net/faults.py);
        #: 1.0 = healthy, 50.0 = the fail-slow disk of §gray failures
        self.multiplier = 1.0

    def charge(self, cost: float) -> float:
        if cost <= 0:
            return 0.0
        if self.multiplier != 1.0:
            cost *= self.multiplier
        start = max(self.sim.now, self.free_at)
        self.free_at = start + cost
        self.busy_time += cost
        return self.free_at - self.sim.now
