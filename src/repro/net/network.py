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
        #: True iff any fault hook is installed
        self._faults_active = False
        #: the one flag ``Host.send`` probes (beside ``taps``): True iff
        #: a transmission can be stopped or bent — a partition, a fault
        #: hook or a non-zero ``drop_rate`` is in force — and so must go
        #: through ``_admit``.  Kept by every method that changes one.
        self._guarded = False
        self.drop_rate = drop_rate
        # Hosts keep (target, wire sampler) per destination; a changed
        # pair latency drops them all (cold: topology set-up).
        self.latency.on_change.append(self._drop_links)

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

    def _drop_links(self) -> None:
        for host in self.hosts.values():
            host._links.clear()

    @property
    def drop_rate(self) -> float:
        """Probability that a transmission is lost (uniform, every link)."""
        return self._drop_rate

    @drop_rate.setter
    def drop_rate(self, rate: float) -> None:
        if not 0.0 <= rate < 1.0:
            raise ValueError(f"drop_rate must be in [0, 1): {rate}")
        self._drop_rate = rate
        self._refresh_guards()

    def _refresh_guards(self) -> None:
        self._faults_active = bool(self._blocked_oneway or self._gray_hosts
                                   or self._link_faults)
        self._guarded = bool(self._blocked or self._faults_active
                             or self._drop_rate > 0)

    # ------------------------------------------------------------------
    # partitions
    # ------------------------------------------------------------------
    def partition(self, a: str, b: str) -> None:
        """Block traffic between hosts a and b (both directions)."""
        self._blocked.add(frozenset((a, b)))
        self._guarded = True

    def heal(self, a: str, b: str) -> None:
        self._blocked.discard(frozenset((a, b)))
        self._refresh_guards()

    def heal_all(self) -> None:
        self._blocked.clear()
        self._isolated.clear()
        self._refresh_guards()

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
    def partition_one_way(self, src: str, dst: str) -> None:
        """Block ``src → dst`` only; ``dst → src`` keeps flowing."""
        self._blocked_oneway.add((src, dst))
        self._refresh_guards()

    def heal_one_way(self, src: str, dst: str) -> None:
        self._blocked_oneway.discard((src, dst))
        self._refresh_guards()

    def set_link_fault(self, src: str, dst: str, profile,
                       symmetric: bool = False) -> None:
        """Install a gray :class:`~repro.net.faults.LinkProfile` on
        ``src → dst`` (both directions when ``symmetric``).  Profiles
        with random behaviour need ``fault_rng`` set (the injector does
        this)."""
        self._link_faults[(src, dst)] = profile
        if symmetric:
            self._link_faults[(dst, src)] = profile
        self._refresh_guards()

    def clear_link_fault(self, src: str, dst: str,
                         symmetric: bool = False) -> None:
        self._link_faults.pop((src, dst), None)
        if symmetric:
            self._link_faults.pop((dst, src), None)
        self._refresh_guards()

    def set_gray_host(self, name: str, allow: tuple[str, ...]) -> None:
        """Make ``name`` gray: inbound RPC *requests* whose method is
        not in ``allow`` are dropped; responses and non-RPC payloads
        pass (the host still looks alive on the control path)."""
        self._gray_hosts[name] = tuple(allow)
        self._refresh_guards()

    def clear_gray_host(self, name: str) -> None:
        self._gray_hosts.pop(name, None)
        self._refresh_guards()

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
    # transmission (Host.send / Host._flush_frame after NIC serialization)
    # ------------------------------------------------------------------
    def _admit(self, message: Message) -> "tuple[float, float] | None":
        """Everything that can stop or bend one message's transmission;
        ``Host.send`` calls it only while ``_guarded`` or ``taps`` is
        truthy.  ``None`` = dropped (and counted), else ``(extra_delay,
        duplicate_lag)`` with ``duplicate_lag < 0`` meaning no copy."""
        for tap in self.taps:
            tap(message)
        return self._verdict(message.src, message.dst, message.payload, 1)

    def _verdict(self, src_name: str, dst: str, payload: typing.Any,
                 count: int) -> "tuple[float, float] | None":
        """The drop / bend decision for one transmission of ``count``
        payloads.  The order — partition, fault hooks (``fault_rng``),
        ``drop_rate`` roll (``sim.rng``), all before the caller samples
        the wire — fixes the rng draw order, which is part of the
        golden-trace contract."""
        # The partition check allocates no frozenset while no partition
        # is active.
        if self._blocked and frozenset((src_name, dst)) in self._blocked:
            return self._dropped(count)
        bent = 0.0, -1.0
        if self._faults_active:
            if (src_name, dst) in self._blocked_oneway \
                    or not self._passes_gray(dst, payload):
                return self._dropped(count)
            bent = self._link_verdict(src_name, dst)
            if bent is None:
                return self._dropped(count)
        if self._drop_rate > 0 and self.sim.rng.random() < self._drop_rate:
            return self._dropped(count)
        return bent

    def _dropped(self, count: int) -> None:
        self.stats.messages_dropped += 1
        self.stats.payloads_dropped += count

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
        target, sampler = src._links.get(dst) or src._bind_link(dst)
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
        extra = 0.0
        dup = -1.0
        if self._guarded or self.taps:
            for tap in self.taps:
                for message in messages:
                    tap(message)
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
                    # What arrives is what was kept: its size too (the
                    # *sent* bytes counted above stay).
                    messages = kept
                    count = len(messages)
                    size_bytes = sum(m.size_bytes for m in messages)
            # The rest is per transmission and shared with single
            # messages; the payload-less probe passes the gray filter.
            verdict = self._verdict(src_name, dst, None, count)
            if verdict is None:
                return
            extra, dup = verdict
        wire = 0.0 if sampler is None else sampler()
        if count == 1:
            payload: typing.Any = messages[0]
        else:
            payload = Frame(src_name, dst, messages, size_bytes, sim.now)
        delay = departs_at - sim.now + wire + extra
        sim._schedule_deliver(delay, target, payload)
        if dup >= 0.0:
            stats.messages_duplicated += 1
            sim._schedule_deliver(delay + dup, target, payload)
