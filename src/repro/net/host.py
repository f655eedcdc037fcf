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

Frame coalescing (``Network(frame_coalescing=True)``): instead of
transmitting immediately, ``send`` packs same-instant messages to the
same destination into a per-destination buffer that flushes as one
:class:`~repro.net.message.Frame` at the end-of-instant boundary
(``Simulator.at_instant_end``).  One frame costs one NIC TX occupation,
one latency sample, one delivery record and one rx dispatch regardless
of how many messages ride in it.  A crash discards every pending
buffer — a restarted incarnation must not flush its previous life's
RPCs — and a flush armed before the crash is dropped by an incarnation
guard.
"""

from __future__ import annotations

import typing

from repro.net.message import Frame, Message
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
        #: frame coalescing (owned by the network, copied here so the
        #: send hot path pays one attribute probe): when True, sends
        #: buffer per destination and flush as one Frame per instant
        self._coalesce = network.frame_coalescing
        #: per-destination coalescing buffers; a non-empty list means a
        #: flush hook is armed for the current instant
        self._frame_buffers: dict[str, list[Message]] = {}
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
        # Discard pending (unflushed) coalescing buffers: a frame that
        # never reached the NIC dies with the host, and a restarted
        # incarnation must not flush its previous life's RPCs.  The
        # already-armed flush hook no-ops on the incarnation guard.
        if self._frame_buffers:
            self._frame_buffers.clear()
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
        """Install the (single) inbound message handler — the RPC layer."""
        self._message_handler = handler

    def send(self, dst: str, payload: typing.Any, size_bytes: int = 100) -> None:
        """Queue a message for transmission (fire and forget).

        The message leaves the NIC after serialization; the network adds
        wire latency and delivers to ``dst`` if it is reachable and
        alive at arrival time.  With frame coalescing the message is
        buffered instead and leaves inside this instant's frame to
        ``dst`` at the end-of-instant flush.
        """
        if not self.alive:
            return
        if self._coalesce:
            buffer = self._frame_buffers.get(dst)
            if buffer is None:
                buffer = self._frame_buffers[dst] = []
            if not buffer:
                # First message to dst this instant: arm the flush.
                # Bind the link now so an unknown host raises at the
                # call site, as the uncoalesced path does — not out of
                # the end-of-instant flush with the sender's stack
                # long gone.
                if dst not in self._links:
                    self._bind_link(dst)
                self.sim.at_instant_end(self._flush_frame, dst,
                                        self.incarnation)
            buffer.append(Message(self.name, dst, payload, size_bytes,
                                  self.sim.now))
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
        name = self.name
        stats = network.stats
        stats.messages_sent += 1
        stats.bytes_sent += size_bytes
        stats.payloads_sent += 1
        stats.per_host_sent[name] += 1
        stats.per_host_bytes[name] += size_bytes
        # Built once: the same instance feeds the taps (documented as
        # non-mutating) and, if the message survives, delivery.
        message = Message(name, dst, payload, size_bytes, now)
        extra = 0.0
        dup = -1.0
        if network._guarded or network.taps:
            verdict = network._admit(message)
            if verdict is None:
                return
            extra, dup = verdict
        wire = 0.0 if sampler is None else sampler()
        # departs >= now by construction (clamped above).
        delay = departs - now + wire + extra
        sim._schedule_deliver(delay, target, message)
        if dup >= 0.0:
            stats.messages_duplicated += 1
            sim._schedule_deliver(delay + dup, target, message)

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

    def _flush_frame(self, dst: str, incarnation: int) -> None:
        """End-of-instant: transmit the buffered frame to ``dst``.

        The frame occupies the NIC once (one tx_cost) however many
        messages it carries.  A crash since arming discards the flush:
        ``crash()`` already cleared the pre-crash buffer, and a buffer
        refilled by the *next* incarnation within the same instant is
        flushed by that incarnation's own hook, not this stale one.
        """
        if not self.alive or self.incarnation != incarnation:
            return
        messages = self._frame_buffers.get(dst)
        if not messages:
            return
        self._frame_buffers[dst] = []
        now = self.sim.now
        nic_free = self._nic_free_at
        departs = (now if nic_free <= now else nic_free) + self.tx_cost
        self._nic_free_at = departs
        if self.shared_dispatch and self._rx_free_at < departs:
            self._rx_free_at = departs
        self.network._transmit_frame(self, dst, messages, departs)

    def _deliver(self, message: "typing.Any") -> None:
        """The kernel's delivery record: ``message`` arrived ``_rx_lead``
        ago.  A Frame passes through whole — one rx_cost per
        transmission, which is the coalescing win on the rx side."""
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
                                     message, self.incarnation)
                return
            # Independent RX path: now is arrival + rx_cost, the
            # completion instant unless earlier arrivals keep it busy.
            if now < self._rx_floor:
                return  # arrived before the last restart()
            done = rx_free + rx_cost
            if done > now:
                self._rx_free_at = done
                self.sim.schedule_at(done, self._dispatch_rx, message,
                                     self.incarnation)
                return
            self._rx_free_at = now
        if type(message) is Frame:
            self._handle_frame(message)
        else:
            self._message_handler(message)

    def _dispatch_rx(self, message: "typing.Any", incarnation: int) -> None:
        """RX-path completion; drops messages from a previous life."""
        if self.alive and self.incarnation == incarnation \
                and self._message_handler is not None:
            if type(message) is Frame:
                self._handle_frame(message)
            else:
                self._message_handler(message)

    def _handle_frame(self, frame: Frame) -> None:
        """Unpack a coalesced frame: contained messages dispatch in
        send order.  A handler that crashes this host mid-frame stops
        the unpack — the tail is lost with the host, exactly as
        separately-transmitted messages would be refused on arrival."""
        for message in frame.messages:
            if not self.alive or self._message_handler is None:
                return
            self._message_handler(message)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "up" if self.alive else "down"
        return f"<Host {self.name} {state}>"
