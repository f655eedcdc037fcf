"""Counted resources: worker pools, NICs, fsync devices.

A :class:`Resource` has a fixed capacity.  ``request()`` returns an
event that triggers when a unit is granted (FIFO).  The common pattern
is wrapped by :meth:`Resource.use`:

    yield from nic.use(tx_cost)     # hold the NIC for tx_cost µs

which models serialization: concurrent sends on one host queue behind
each other, the effect behind the paper's 0.4 µs f=3 client overhead
and behind the dispatch-thread bottleneck in the throughput figures.
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
        #: total time units of busy occupancy, for utilization metrics
        self.busy_time = 0.0

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
        """``yield from`` helper: acquire, hold for ``duration``, release.

        Release happens even if the holding process is interrupted while
        sleeping, so a crashed server never leaks NIC/worker units.
        """
        yield self.request()
        start = self.sim.now
        try:
            yield self.sim.timeout(duration)
        finally:
            self.busy_time += self.sim.now - start
            self.release()

    @property
    def queue_length(self) -> int:
        return len(self._waiters)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<Resource {self.name} {self.in_use}/{self.capacity}"
                f" +{len(self._waiters)} waiting>")
