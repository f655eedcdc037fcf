"""Hosts: machines with NICs, crash semantics, and resident processes.

Crash model (fail-stop, §3.1): ``crash()`` interrupts every process
running on the host, bumps the host *incarnation* so stale callbacks
from the previous life are ignored, and makes the network stop
delivering to/from the host.  Volatile state owned by servers on the
host must be dropped by the server's own ``on_crash`` hook; witnesses
keep their storage across crashes because the paper places it in
non-volatile memory (§3.2.2).

NIC serialization: each outgoing message occupies the host's TX path
for ``tx_cost`` µs before it reaches the wire.  A client that fires an
update RPC plus f record RPCs back-to-back therefore staggers them by
tx_cost — this is the mechanism behind the paper's observed 0.4 µs
median penalty at f=3 (Figure 5).

RX serialization: each incoming transmission occupies the RX path for
``rx_cost`` µs before the handler sees it.  Where that path is the
host's alone, the kernel fires the delivery record ``rx_cost`` past the
arrival (``_rx_lead``) and ``_deliver`` runs the handler in that one
record unless the path is still busy; a ``shared_dispatch`` host keeps
a record at the arrival instant, because its ``send()`` moves the same
accumulator between arrival and completion.  The timing contract is in
docs/PERFORMANCE.md ("One kernel record per message").

Delivery hands the message handler the sent payload itself.  A
:class:`~repro.net.message.Message` (source, destination, size, send
instant around the payload) is built only while the network has a tap
or an active fault to show it to (``Network._admit``).
"""

from __future__ import annotations

import typing

from repro.net.message import Message
from repro.sim.processes import Process, ProcessGenerator

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.net.network import Network
    from repro.sim.simulator import Simulator


class Host:
    """A simulated machine attached to a :class:`Network`."""

    def __init__(self, sim: "Simulator", network: "Network", name: str,
                 tx_cost: float = 0.0, rx_cost: float = 0.0,
                 shared_dispatch: bool = False):
        self.sim = sim
        self.network = network
        self.name = name
        #: NIC serialization cost per outgoing / incoming message (µs)
        self.tx_cost = tx_cost
        self.rx_cost = rx_cost
        #: True = one thread serializes both directions (RAMCloud's
        #: dispatch-thread model, §4.4 — the masters' bottleneck in the
        #: throughput figures); False = independent TX and RX paths
        self.shared_dispatch = shared_dispatch
        self.alive = True
        #: bumped on every crash; schedules from a previous incarnation
        #: compare against it and become no-ops
        self.incarnation = 0
        #: messages and bytes this host sent, over every incarnation (the
        #: network's ``TrafficStats`` totals and per-host maps read them)
        self.messages_sent = 0
        self.bytes_sent = 0
        self._nic_free_at = 0.0
        self._rx_free_at = 0.0
        #: how far past the arrival the kernel fires a delivery record
        #: (``Simulator._schedule_deliver``): the RX cost where the RX
        #: path is this host's alone, else 0.0
        self._rx_lead = (rx_cost if rx_cost > 0 and not shared_dispatch
                         else 0.0)
        #: a delivery record firing before this instant arrived before
        #: the last ``restart()`` — host down, or previous life's RX path
        self._rx_floor = 0.0
        #: destination → (target host, wire sampler on ``sim.rng`` or
        #: None for loopback); the network clears it on a latency change
        self._links: dict[str, tuple] = {}
        self._processes: set[Process] = set()
        self._message_handler: typing.Callable[..., None] | None = None
        self._crash_hooks: list[typing.Callable[[], None]] = []
        self._restart_hooks: list[typing.Callable[[], None]] = []

    # ------------------------------------------------------------------
    # processes
    # ------------------------------------------------------------------
    def spawn(self, generator: ProcessGenerator, name: str | None = None) -> Process:
        """Run a process tied to this host's lifetime.

        The process is interrupted if the host crashes.
        """
        process = self.sim.process(generator, name=f"{self.name}:{name or 'proc'}")
        self._processes.add(process)
        process.add_callback(lambda _e: self._processes.discard(process))
        return process

    # ------------------------------------------------------------------
    # crash / restart
    # ------------------------------------------------------------------
    def on_crash(self, hook: typing.Callable[[], None]) -> None:
        """Register a hook run when the host crashes (drop volatile state)."""
        self._crash_hooks.append(hook)

    def on_restart(self, hook: typing.Callable[[], None]) -> None:
        self._restart_hooks.append(hook)

    def crash(self) -> None:
        """Fail-stop: kill processes, stop sending/receiving."""
        if not self.alive:
            return
        self.alive = False
        self.incarnation += 1
        for process in list(self._processes):
            process.interrupt("host crashed")
        self._processes.clear()
        for hook in self._crash_hooks:
            hook()

    def restart(self) -> None:
        """Bring the host back (a new, empty incarnation)."""
        if self.alive:
            return
        self.alive = True
        self._nic_free_at = self.sim.now
        self._rx_free_at = self.sim.now
        self._rx_floor = self.sim.now + self._rx_lead
        for hook in self._restart_hooks:
            hook()

    # ------------------------------------------------------------------
    # messaging
    # ------------------------------------------------------------------
    def set_message_handler(self, handler: typing.Callable[..., None]) -> None:
        """Install the (single) inbound message handler — the RPC layer.

        The handler is called with the payload a peer passed to
        :meth:`send`, the very object, not a :class:`Message`: the
        envelope exists only for the network's taps and fault checks.
        """
        self._message_handler = handler

    def send(self, dst: str, payload: typing.Any, size_bytes: int = 100) -> None:
        """Queue a message for transmission (fire and forget).

        The message leaves the NIC after serialization; the network adds
        wire latency and delivers to ``dst`` if it is reachable and
        alive at arrival time.
        """
        if not self.alive:
            return
        # One of these per simulated message — the network's hot path.
        # Anything that can stop or bend the transmission lives in
        # Network._admit.
        sim = self.sim
        now = sim.now
        nic_free = self._nic_free_at
        departs = (now if nic_free <= now else nic_free) + self.tx_cost
        self._nic_free_at = departs
        if self.shared_dispatch and self._rx_free_at < departs:
            self._rx_free_at = departs
        target, sampler = self._links.get(dst) or self._bind_link(dst)
        network = self.network
        self.messages_sent += 1
        self.bytes_sent += size_bytes
        extra = 0.0
        dup = -1.0
        if network._guarded or network.taps:
            # The only place a Message envelope is built: the taps and
            # the fault checks see it; delivery carries the payload.
            verdict = network._admit(
                Message(self.name, dst, payload, size_bytes, now))
            if verdict is None:
                return
            extra, dup = verdict
        wire = 0.0 if sampler is None else sampler()
        # departs >= now by construction (clamped above).
        delay = departs - now + wire + extra
        sim._schedule_deliver(delay, target, payload)
        if dup >= 0.0:
            network.stats.messages_duplicated += 1
            sim._schedule_deliver(delay + dup, target, payload)

    def _bind_link(self, dst: str) -> tuple:
        """First send to ``dst`` (or first since a latency change):
        resolve the target host and the link's wire sampler once."""
        target = self.network.hosts.get(dst)
        if target is None:
            raise KeyError(f"unknown destination host: {dst}")
        sampler = None if dst == self.name else \
            self.network.latency.sampler(self.sim.rng, self.name, dst)
        link = self._links[dst] = (target, sampler)
        return link

    def _deliver(self, payload: typing.Any) -> None:
        """The kernel's delivery record: ``payload`` arrived ``_rx_lead``
        ago."""
        if not self.alive or self._message_handler is None:
            return
        rx_cost = self.rx_cost
        if rx_cost > 0:
            now = self.sim.now
            rx_free = self._rx_free_at
            if self.shared_dispatch:
                # One thread serializes both directions (RAMCloud's
                # dispatch model): this record fires at arrival and
                # moves the accumulator send() shares; a second one
                # completes the RX, a *delay* after now — the float
                # every pinned virtual-time number was computed with,
                # and ``done`` itself whenever done <= 2 * now.
                done = (now if rx_free <= now else rx_free) + rx_cost
                self._rx_free_at = done
                if self._nic_free_at < done:
                    self._nic_free_at = done
                self.sim.schedule_at(now + (done - now), self._dispatch_rx,
                                     payload, self.incarnation)
                return
            # Independent RX path: now is arrival + rx_cost, the
            # completion instant unless earlier arrivals keep it busy.
            if now < self._rx_floor:
                return  # arrived before the last restart()
            done = rx_free + rx_cost
            if done > now:
                self._rx_free_at = done
                self.sim.schedule_at(done, self._dispatch_rx, payload,
                                     self.incarnation)
                return
            self._rx_free_at = now
        self._message_handler(payload)

    def _dispatch_rx(self, payload: typing.Any, incarnation: int) -> None:
        """RX-path completion; drops messages from a previous life."""
        if self.alive and self.incarnation == incarnation \
                and self._message_handler is not None:
            self._message_handler(payload)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "up" if self.alive else "down"
        return f"<Host {self.name} {state}>"
