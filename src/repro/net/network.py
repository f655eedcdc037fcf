"""The network: asynchronous, unreliable message delivery.

Matches the paper's network model (§3.1): *asynchronous* (no bound on
message delay — latency is sampled from arbitrary distributions) and
*unreliable* (messages can be dropped, hosts partitioned).  CURP must be
correct under all of it; the tests exercise drops and partitions, and
the benchmarks calibrate the latency models to the paper's clusters.
"""

from __future__ import annotations

import typing
from collections import defaultdict

from repro.net.host import Host
from repro.net.latency import LatencyModel
from repro.net.message import Frame, Message
from repro.sim.distributions import Distribution

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.sim.simulator import Simulator


class TrafficStats:
    """Message/byte counters, per host and total (§5.2 analysis).

    ``messages_sent`` counts *transmissions*: a coalesced frame counts
    once, however many RPC payloads ride in it — that is the
    per-message floor the ISSUE 4 tentpole tracks.  ``payloads_sent``
    counts the contained payloads, so ``payloads_sent -
    messages_sent`` is the number of per-message costs coalescing
    saved.  Without coalescing the two counters are always equal.
    """

    def __init__(self) -> None:
        self.messages_sent = 0
        self.bytes_sent = 0
        self.messages_dropped = 0
        #: extra deliveries injected by per-link duplication faults
        #: (net/faults.py); never counted in ``messages_sent``, so the
        #: messages-per-update gates read the protocol's own traffic
        self.messages_duplicated = 0
        #: RPC payloads carried by all transmissions (frame = len, else 1)
        self.payloads_sent = 0
        #: transmissions that were multi-payload frames
        self.frames_sent = 0
        #: payloads that rode in multi-payload frames
        self.frame_payloads = 0
        #: payloads lost to dropped/partitioned transmissions
        self.payloads_dropped = 0
        self.per_host_sent: dict[str, int] = defaultdict(int)
        self.per_host_bytes: dict[str, int] = defaultdict(int)

    def record_send(self, src: str, size_bytes: int) -> None:
        self.messages_sent += 1
        self.bytes_sent += size_bytes
        self.payloads_sent += 1
        self.per_host_sent[src] += 1
        self.per_host_bytes[src] += size_bytes

    def messages_per_update(self, completed_updates: int) -> float:
        """Wire transmissions per completed update — the protocol's
        per-message floor (~8 at f = 3 without coalescing; the ISSUE 4
        target is ≤ 4 with frames on).  Callers pass the completed
        update count from the clients/masters driving the run."""
        if completed_updates <= 0:
            return 0.0
        return self.messages_sent / completed_updates


class Network:
    """Connects hosts; owns latency, drop and partition behaviour."""

    def __init__(self, sim: "Simulator", latency: LatencyModel | None = None,
                 drop_rate: float = 0.0, frame_coalescing: bool = False):
        self.sim = sim
        self.latency = latency or LatencyModel()
        if not 0.0 <= drop_rate < 1.0:
            raise ValueError(f"drop_rate must be in [0, 1): {drop_rate}")
        self.drop_rate = drop_rate
        #: pack same-instant same-destination sends into one Frame per
        #: transmission (``CurpConfig.frame_coalescing``); hosts copy
        #: the flag at construction, so set it before adding hosts
        self.frame_coalescing = frame_coalescing
        self.hosts: dict[str, Host] = {}
        self.stats = TrafficStats()
        #: observers called with every transmitted Message (traffic
        #: analysis, e.g. §5.2 payload-copy accounting); must not mutate
        self.taps: list[typing.Callable[[Message], None]] = []
        self._blocked: set[frozenset[str]] = set()
        #: names under isolate(): hosts added later are blocked from
        #: them too (quarantine must hold against new clients)
        self._isolated: set[str] = set()
        # -- fault-injection hooks (net/faults.py) ----------------------
        # All empty/None by default: the hot paths below test falsiness
        # once per transmission and take zero extra branches, draws or
        # allocations until a FaultInjector installs something — the
        # golden-trace contract.
        #: directional blocks: (src, dst) pairs (one-way partitions)
        self._blocked_oneway: set[tuple[str, str]] = set()
        #: per-direction gray profiles: (src, dst) → LinkProfile
        self._link_faults: dict[tuple[str, str], typing.Any] = {}
        #: gray hosts: name → allowed inbound RPC methods; any other
        #: inbound *request* is silently dropped (still answers pings)
        self._gray_hosts: dict[str, tuple[str, ...]] = {}
        #: the injector's dedicated rng (never ``sim.rng``); set by
        #: FaultInjector.start()
        self.fault_rng = None
        #: single hot-path flag: True iff any fault hook is installed
        self._faults_active = False

    # ------------------------------------------------------------------
    # topology
    # ------------------------------------------------------------------
    def add_host(self, name: str, tx_cost: float = 0.0,
                 rx_cost: float = 0.0, shared_dispatch: bool = False) -> Host:
        if name in self.hosts:
            raise ValueError(f"duplicate host name: {name}")
        host = Host(self.sim, self, name, tx_cost=tx_cost, rx_cost=rx_cost,
                    shared_dispatch=shared_dispatch)
        self.hosts[name] = host
        for isolated in self._isolated:
            if isolated != name:
                self.partition(isolated, name)
        return host

    def host(self, name: str) -> Host:
        return self.hosts[name]

    def set_link_latency(self, src: str, dst: str, dist: Distribution,
                         symmetric: bool = True) -> None:
        self.latency.set_pair(src, dst, dist, symmetric=symmetric)

    # ------------------------------------------------------------------
    # partitions
    # ------------------------------------------------------------------
    def partition(self, a: str, b: str) -> None:
        """Block traffic between hosts a and b (both directions)."""
        self._blocked.add(frozenset((a, b)))

    def heal(self, a: str, b: str) -> None:
        self._blocked.discard(frozenset((a, b)))

    def heal_all(self) -> None:
        self._blocked.clear()
        self._isolated.clear()

    def isolate(self, name: str) -> None:
        """Partition ``name`` from every other host, including hosts
        added later, until ``rejoin`` (zombie scenarios)."""
        self._isolated.add(name)
        for other in self.hosts:
            if other != name:
                self.partition(name, other)

    def rejoin(self, name: str) -> None:
        self._isolated.discard(name)
        for other in self.hosts:
            self.heal(name, other)

    def is_blocked(self, a: str, b: str) -> bool:
        return frozenset((a, b)) in self._blocked

    # ------------------------------------------------------------------
    # fault hooks (driven by net/faults.py; callable directly in tests)
    # ------------------------------------------------------------------
    def _refresh_faults_active(self) -> None:
        self._faults_active = bool(self._blocked_oneway or self._gray_hosts
                                   or self._link_faults)

    def partition_one_way(self, src: str, dst: str) -> None:
        """Block ``src → dst`` only; ``dst → src`` keeps flowing."""
        self._blocked_oneway.add((src, dst))
        self._faults_active = True

    def heal_one_way(self, src: str, dst: str) -> None:
        self._blocked_oneway.discard((src, dst))
        self._refresh_faults_active()

    def set_link_fault(self, src: str, dst: str, profile,
                       symmetric: bool = False) -> None:
        """Install a gray :class:`~repro.net.faults.LinkProfile` on
        ``src → dst`` (both directions when ``symmetric``).  Profiles
        with random behaviour need ``fault_rng`` set (the injector does
        this)."""
        self._link_faults[(src, dst)] = profile
        if symmetric:
            self._link_faults[(dst, src)] = profile
        self._faults_active = True

    def clear_link_fault(self, src: str, dst: str,
                         symmetric: bool = False) -> None:
        self._link_faults.pop((src, dst), None)
        if symmetric:
            self._link_faults.pop((dst, src), None)
        self._refresh_faults_active()

    def set_gray_host(self, name: str, allow: tuple[str, ...]) -> None:
        """Make ``name`` gray: inbound RPC *requests* whose method is
        not in ``allow`` are dropped; responses and non-RPC payloads
        pass (the host still looks alive on the control path)."""
        self._gray_hosts[name] = tuple(allow)
        self._faults_active = True

    def clear_gray_host(self, name: str) -> None:
        self._gray_hosts.pop(name, None)
        self._refresh_faults_active()

    def _fault_verdict(self, src_name: str, dst: str,
                       payload: typing.Any) -> "tuple[float, float] | None":
        """Combined fault check for one transmission: ``None`` = drop,
        else ``(extra_delay, duplicate_lag)`` (lag < 0 = no duplicate).
        Only called when ``_faults_active``."""
        if self._blocked_oneway and (src_name, dst) in self._blocked_oneway:
            return None
        if self._gray_hosts and not self._passes_gray(dst, payload):
            return None
        if self._link_faults:
            return self._link_verdict(src_name, dst)
        return 0.0, -1.0

    def _passes_gray(self, dst: str, payload: typing.Any) -> bool:
        """Does ``payload`` survive dst's gray filter?  Duck-typed on
        the RPC request frame's ``method`` attribute so the network
        stays independent of the rpc package: requests carry a method,
        responses and raw payloads do not (and always pass)."""
        allow = self._gray_hosts.get(dst)
        if allow is None:
            return True
        method = getattr(payload, "method", None)
        return method is None or method in allow

    def _link_verdict(self, src_name: str,
                      dst: str) -> "tuple[float, float] | None":
        """Apply the gray-link profile for ``src → dst``, if any:
        ``None`` = drop, else ``(extra_delay, duplicate_lag)`` with
        ``duplicate_lag < 0`` meaning no duplicate.  Every roll comes
        from the injector's dedicated ``fault_rng``."""
        profile = self._link_faults.get((src_name, dst))
        if profile is None:
            return 0.0, -1.0
        rng = self.fault_rng
        if profile.loss_rate > 0 and rng.random() < profile.loss_rate:
            return None
        extra = profile.extra_delay
        if profile.jitter > 0:
            extra += rng.uniform(0.0, profile.jitter)
        dup = -1.0
        if profile.duplicate_rate > 0 \
                and rng.random() < profile.duplicate_rate:
            dup = rng.uniform(0.0, profile.duplicate_lag)
        return extra, dup

    # ------------------------------------------------------------------
    # transmission (called by Host.send after NIC serialization)
    # ------------------------------------------------------------------
    def _transmit(self, src: Host, dst: str, payload: typing.Any,
                  size_bytes: int, departs_at: float) -> None:
        # One of these per simulated message — the network's hot path.
        # Stats are inlined (record_send stays as the public API) and
        # the partition check allocates no frozenset when no partition
        # is active.
        target = self.hosts.get(dst)
        if target is None:
            raise KeyError(f"unknown destination host: {dst}")
        src_name = src.name
        stats = self.stats
        stats.messages_sent += 1
        stats.bytes_sent += size_bytes
        stats.payloads_sent += 1
        stats.per_host_sent[src_name] += 1
        stats.per_host_bytes[src_name] += size_bytes
        # Built once: the same instance feeds the taps (documented as
        # non-mutating) and, if the message survives, delivery.
        sim = self.sim
        message = Message(src_name, dst, payload, size_bytes, sim.now)
        if self.taps:
            for tap in self.taps:
                tap(message)
        if self._blocked and frozenset((src_name, dst)) in self._blocked:
            stats.messages_dropped += 1
            stats.payloads_dropped += 1
            return
        extra = 0.0
        dup = -1.0
        if self._faults_active:
            verdict = self._fault_verdict(src_name, dst, payload)
            if verdict is None:
                stats.messages_dropped += 1
                stats.payloads_dropped += 1
                return
            extra, dup = verdict
        if self.drop_rate > 0 and sim.rng.random() < self.drop_rate:
            stats.messages_dropped += 1
            stats.payloads_dropped += 1
            return
        if src_name == dst:
            wire = 0.0  # loopback
        else:
            wire = self.latency.sample(sim.rng, src_name, dst)
        # departs_at >= now by construction (Host.send clamps to now).
        delay = departs_at - sim.now + wire + extra
        sim._schedule_deliver(delay, target, message)
        if dup >= 0.0:
            stats.messages_duplicated += 1
            sim._schedule_deliver(delay + dup, target, message)

    def _transmit_frame(self, src: Host, dst: str,
                        messages: "list[Message]",
                        departs_at: float) -> None:
        """Transmit one coalesced frame (Host._flush_frame).

        One transmission for all of ``messages``: one stats entry, one
        partition check, one drop roll, one latency sample, one
        delivery record.  A single-message buffer still delivers the
        bare Message so the receive side is indistinguishable from the
        uncoalesced path.  Taps observe every contained message — the
        §5.2 payload accounting is per RPC, not per wire transmission.
        """
        target = self.hosts.get(dst)
        if target is None:
            raise KeyError(f"unknown destination host: {dst}")
        src_name = src.name
        stats = self.stats
        count = len(messages)
        size_bytes = 0
        for message in messages:
            size_bytes += message.size_bytes
        stats.messages_sent += 1
        stats.bytes_sent += size_bytes
        stats.payloads_sent += count
        if count > 1:
            stats.frames_sent += 1
            stats.frame_payloads += count
        stats.per_host_sent[src_name] += 1
        stats.per_host_bytes[src_name] += size_bytes
        sim = self.sim
        if self.taps:
            for tap in self.taps:
                for message in messages:
                    tap(message)
        if self._blocked and frozenset((src_name, dst)) in self._blocked:
            stats.messages_dropped += 1
            stats.payloads_dropped += count
            return
        extra = 0.0
        dup = -1.0
        if self._faults_active:
            # A gray destination filters the frame's *contents*: each
            # contained RPC request is checked individually, so allowed
            # control traffic (pings) rides through while data-path
            # requests sharing the frame vanish.
            if self._gray_hosts and dst in self._gray_hosts:
                kept = [m for m in messages
                        if self._passes_gray(dst, m.payload)]
                if len(kept) != count:
                    stats.payloads_dropped += count - len(kept)
                    if not kept:
                        stats.messages_dropped += 1
                        return
                    messages = kept
                    count = len(messages)
            verdict = self._fault_verdict(src_name, dst, None)
            if verdict is None:
                stats.messages_dropped += 1
                stats.payloads_dropped += count
                return
            extra, dup = verdict
        if self.drop_rate > 0 and sim.rng.random() < self.drop_rate:
            stats.messages_dropped += 1
            stats.payloads_dropped += count
            return
        if src_name == dst:
            wire = 0.0  # loopback
        else:
            wire = self.latency.sample(sim.rng, src_name, dst)
        if count == 1:
            payload: typing.Any = messages[0]
        else:
            payload = Frame(src_name, dst, messages, size_bytes, sim.now)
        delay = departs_at - sim.now + wire + extra
        sim._schedule_deliver(delay, target, payload)
        if dup >= 0.0:
            stats.messages_duplicated += 1
            sim._schedule_deliver(delay + dup, target, payload)
