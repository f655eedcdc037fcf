"""The network: asynchronous, unreliable message delivery.

Matches the paper's network model (§3.1): *asynchronous* (no bound on
message delay — latency is sampled from arbitrary distributions) and
*unreliable* (messages can be dropped, hosts partitioned).  CURP must be
correct under all of it; the tests exercise drops and partitions, and
the benchmarks calibrate the latency models to the paper's clusters.
"""

from __future__ import annotations

import typing

from repro.net.host import Host
from repro.net.latency import LatencyModel
from repro.net.message import Message
from repro.sim.distributions import Distribution

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.sim.simulator import Simulator


class TrafficStats:
    """Message/byte counters, per host and total (§5.2 analysis).

    Every RPC request and response is one transmission, so
    ``messages_sent`` is the protocol's per-message floor.  Each host
    counts what it sent (``Host.messages_sent`` / ``bytes_sent``); the
    totals and per-host maps are read-only views over the hosts.
    """

    def __init__(self, hosts: dict[str, Host]) -> None:
        self.messages_dropped = 0
        #: extra deliveries injected by per-link duplication faults
        #: (net/faults.py); never counted in ``messages_sent``, so the
        #: messages-per-update gates read the protocol's own traffic
        self.messages_duplicated = 0
        self._hosts = hosts

    @property
    def messages_sent(self) -> int:
        return sum(host.messages_sent for host in self._hosts.values())

    @property
    def bytes_sent(self) -> int:
        return sum(host.bytes_sent for host in self._hosts.values())

    @property
    def per_host_sent(self) -> dict[str, int]:
        """Messages sent per host name; a host that never sent is
        absent."""
        return {name: host.messages_sent
                for name, host in self._hosts.items() if host.messages_sent}

    @property
    def per_host_bytes(self) -> dict[str, int]:
        """Bytes sent per host name, keyed like ``per_host_sent``."""
        return {name: host.bytes_sent
                for name, host in self._hosts.items() if host.messages_sent}

    @property
    def payloads_sent(self) -> int:
        """RPC payloads sent: one per transmission, so always
        ``messages_sent`` (kept for readers of the payloads-per-message
        ratio)."""
        return self.messages_sent

    def messages_per_update(self, completed_updates: int) -> float:
        """Wire transmissions per completed update — the protocol's
        per-message floor (~8 at f = 3: the update and f records, their
        1 + f replies, plus amortized sync / gc).  Callers pass the
        completed update count from the clients/masters driving the
        run."""
        if completed_updates <= 0:
            return 0.0
        return self.messages_sent / completed_updates


class Network:
    """Connects hosts; owns latency, drop and partition behaviour."""

    def __init__(self, sim: "Simulator", latency: LatencyModel | None = None,
                 drop_rate: float = 0.0):
        self.sim = sim
        self.latency = latency or LatencyModel()
        self.hosts: dict[str, Host] = {}
        self.stats = TrafficStats(self.hosts)
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
    # transmission (Host.send after NIC serialization)
    # ------------------------------------------------------------------
    def _admit(self, message: Message) -> "tuple[float, float] | None":
        """Everything that can stop or bend one message's transmission;
        ``Host.send`` calls it only while ``_guarded`` or ``taps`` is
        truthy.  ``None`` = dropped (and counted), else ``(extra_delay,
        duplicate_lag)`` with ``duplicate_lag < 0`` meaning no copy.

        The order — taps, partition, fault hooks (``fault_rng``),
        ``drop_rate`` roll (``sim.rng``), all before the caller samples
        the wire — fixes the rng draw order, which is part of the
        golden-trace contract."""
        for tap in self.taps:
            tap(message)
        src_name = message.src
        dst = message.dst
        # The partition check allocates no frozenset while no partition
        # is active.
        if self._blocked and frozenset((src_name, dst)) in self._blocked:
            bent = None
        elif not self._faults_active:
            bent = 0.0, -1.0
        elif (src_name, dst) in self._blocked_oneway \
                or not self._passes_gray(dst, message.payload):
            bent = None
        else:
            bent = self._link_verdict(src_name, dst)
        if bent is not None and self._drop_rate > 0 \
                and self.sim.rng.random() < self._drop_rate:
            bent = None
        if bent is None:
            self.stats.messages_dropped += 1
        return bent
