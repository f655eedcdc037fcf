"""Scheduled, deterministic fault injection against a live cluster.

The chaos tests (tests/integration/test_chaos.py) script failures by
hand: ad-hoc generators that crash hosts and cut links at random
offsets.  That style cannot express the *gray* failures a production
serving stack actually dies of — a link that drops 30% of its frames,
a one-way partition, a host that still answers pings while its data
path is dead, a disk that got 50× slower — and it cannot be replayed,
composed or measured.  This module makes fault scenarios first-class:

- a :class:`FaultPlan` is a tuple of :class:`FaultEvent` s, each with a
  ``start`` (and optional ``end``) in virtual µs — a declarative,
  reusable scenario (the availability benchmarks ship canned plans);
- a :class:`FaultInjector` binds a plan to a live cluster and applies
  each event on schedule: asymmetric one-way partitions and per-link
  loss/delay/duplication profiles through the network's fault hooks,
  host flaps through ``Host.crash``/``restart``, slow disks by scaling
  the service times of a host's disk (``host.disk``).

Determinism contract: every random draw a fault needs (loss rolls,
delay jitter, duplicate lag) comes from the injector's **dedicated rng
stream** (``random.Random(plan.seed)``), never from ``sim.rng`` — so a
fault plan perturbs the main event stream only through the messages it
actually drops/delays, and an **empty plan schedules nothing, draws
nothing, and keeps every golden trace byte-identical**.  Two runs of
the same plan against the same seed replay the same trace.
"""

from __future__ import annotations

import dataclasses
import random
import typing

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.net.network import Network


@dataclasses.dataclass(frozen=True)
class LinkProfile:
    """Per-link gray behaviour, applied to one ``(src, dst)`` direction
    by :meth:`Network.set_link_fault`.

    ``loss_rate`` drops each transmission independently; ``extra_delay``
    (+ uniform ``jitter``) stretches wire latency — the delay-spike
    half of a gray link; ``duplicate_rate`` delivers a second copy
    ``duplicate_lag``-uniform µs later (exercising the RIFL/RPC dedup
    paths).  All rolls come from the injector's dedicated rng.
    """

    loss_rate: float = 0.0
    extra_delay: float = 0.0
    jitter: float = 0.0
    duplicate_rate: float = 0.0
    duplicate_lag: float = 5.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.loss_rate <= 1.0:
            raise ValueError(f"loss_rate must be in [0, 1]: {self.loss_rate}")
        if self.extra_delay < 0:
            raise ValueError("extra_delay must be >= 0")
        if self.jitter < 0:
            raise ValueError("jitter must be >= 0")
        if not 0.0 <= self.duplicate_rate <= 1.0:
            raise ValueError("duplicate_rate must be in [0, 1]")
        if self.duplicate_lag < 0:
            raise ValueError("duplicate_lag must be >= 0")


@dataclasses.dataclass(frozen=True)
class FaultEvent:
    """Base class: one scheduled fault with a start (and optional end).

    ``end=None`` means the fault is never reverted by the injector (a
    permanent kill, or a gray host that stays gray until the watchdog
    replaces it).
    """

    start: float = 0.0
    end: float | None = None

    def __post_init__(self) -> None:
        if self.start < 0:
            raise ValueError(f"start must be >= 0: {self.start}")
        if self.end is not None and self.end <= self.start:
            raise ValueError(f"end must be > start: {self.end} <= {self.start}")

    # Subclasses override; the injector calls these at start/end.
    def apply(self, injector: "FaultInjector") -> None:
        raise NotImplementedError

    def revert(self, injector: "FaultInjector") -> None:
        raise NotImplementedError


@dataclasses.dataclass(frozen=True)
class OneWayPartition(FaultEvent):
    """Block ``src → dst`` only; the reverse direction keeps flowing.

    The classic gray network failure binary partitions cannot model:
    requests arrive but replies are lost (or vice versa), so each side
    sees a different cluster."""

    src: str = ""
    dst: str = ""

    def apply(self, injector: "FaultInjector") -> None:
        injector.network.partition_one_way(self.src, self.dst)

    def revert(self, injector: "FaultInjector") -> None:
        injector.network.heal_one_way(self.src, self.dst)


@dataclasses.dataclass(frozen=True)
class SymmetricPartition(FaultEvent):
    """Block both directions between ``a`` and ``b`` (the pre-existing
    ``Network.partition`` behaviour, schedulable)."""

    a: str = ""
    b: str = ""

    def apply(self, injector: "FaultInjector") -> None:
        injector.network.partition(self.a, self.b)

    def revert(self, injector: "FaultInjector") -> None:
        injector.network.heal(self.a, self.b)


@dataclasses.dataclass(frozen=True)
class GrayLink(FaultEvent):
    """Install a :class:`LinkProfile` on ``src → dst`` (both directions
    when ``symmetric``)."""

    src: str = ""
    dst: str = ""
    loss_rate: float = 0.0
    extra_delay: float = 0.0
    jitter: float = 0.0
    duplicate_rate: float = 0.0
    duplicate_lag: float = 5.0
    symmetric: bool = False

    def _profile(self) -> LinkProfile:
        return LinkProfile(loss_rate=self.loss_rate,
                           extra_delay=self.extra_delay, jitter=self.jitter,
                           duplicate_rate=self.duplicate_rate,
                           duplicate_lag=self.duplicate_lag)

    def apply(self, injector: "FaultInjector") -> None:
        injector.network.set_link_fault(self.src, self.dst, self._profile(),
                                        symmetric=self.symmetric)

    def revert(self, injector: "FaultInjector") -> None:
        injector.network.clear_link_fault(self.src, self.dst,
                                          symmetric=self.symmetric)


@dataclasses.dataclass(frozen=True)
class HostFlap(FaultEvent):
    """Crash ``host`` at ``start``; restart it at ``end`` (never, when
    ``end=None`` — a permanent kill the watchdog must repair)."""

    host: str = ""

    def apply(self, injector: "FaultInjector") -> None:
        injector.network.host(self.host).crash()

    def revert(self, injector: "FaultInjector") -> None:
        injector.network.host(self.host).restart()


@dataclasses.dataclass(frozen=True)
class GrayHost(FaultEvent):
    """The canonical gray failure: ``host`` keeps answering the RPC
    methods in ``allow`` (control path) while every other inbound
    *request* is silently dropped at the network — it looks alive to a
    ping-only failure detector and dead to every client.  Responses and
    non-RPC payloads still flow, so in-flight control traffic behaves
    normally."""

    host: str = ""
    allow: tuple[str, ...] = ("ping",)

    def apply(self, injector: "FaultInjector") -> None:
        injector.network.set_gray_host(self.host, self.allow)

    def revert(self, injector: "FaultInjector") -> None:
        injector.network.clear_gray_host(self.host)


@dataclasses.dataclass(frozen=True)
class SlowDisk(FaultEvent):
    """Multiply every IO charged to ``host``'s disk
    (:class:`~repro.sim.resources.VirtualDisk`) by ``multiplier`` — the
    fail-slow disk (bad sector remaps, background scrubbing, dying
    flash) that stalls sync acks without ever failing a request.  It
    slows a Redis server's AOF fsyncs, and a backup's WAL IO only when
    the :class:`~repro.core.config.StorageProfile` is enabled."""

    host: str = ""
    multiplier: float = 10.0

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.multiplier <= 0:
            raise ValueError(f"multiplier must be > 0: {self.multiplier}")

    def apply(self, injector: "FaultInjector") -> None:
        injector.network.hosts[self.host].disk.multiplier = self.multiplier

    def revert(self, injector: "FaultInjector") -> None:
        injector.network.hosts[self.host].disk.multiplier = 1.0


@dataclasses.dataclass(frozen=True)
class FaultPlan:
    """A deterministic fault scenario: scheduled events + an rng seed.

    Empty plans are the disabled state: attaching one to a cluster
    schedules nothing and draws nothing.
    """

    events: tuple[FaultEvent, ...] = ()
    #: seeds the injector's dedicated rng stream (never ``sim.rng``)
    seed: int = 1

    def __post_init__(self) -> None:
        object.__setattr__(self, "events", tuple(self.events))

    def shifted(self, offset: float) -> "FaultPlan":
        """A copy with every start/end moved ``offset`` µs later —
        benches build plans relative to "after warmup" and shift them
        to absolute virtual time at injection."""
        moved = tuple(dataclasses.replace(
            event, start=event.start + offset,
            end=None if event.end is None else event.end + offset)
            for event in self.events)
        return dataclasses.replace(self, events=moved)


class FaultInjector:
    """Applies a :class:`FaultPlan` to a live cluster on schedule.

    ``start()`` on an empty plan is a no-op — zero events, zero draws.
    """

    def __init__(self, network: "Network", plan: FaultPlan):
        self.network = network
        self.sim = network.sim
        self.plan = plan
        #: the dedicated fault rng stream (determinism contract above)
        self.rng = random.Random(plan.seed)
        self.started = False
        #: events currently applied and not yet reverted
        self.active: list[FaultEvent] = []
        #: (virtual time, event) logs — availability metrics read these
        self.applied: list[tuple[float, FaultEvent]] = []
        self.reverted: list[tuple[float, FaultEvent]] = []

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Schedule every event; idempotent."""
        if self.started or not self.plan.events:
            return
        self.started = True
        self.network.fault_rng = self.rng
        now = self.sim.now
        for event in self.plan.events:
            self.sim.schedule_callback(max(0.0, event.start - now),
                                       self._apply, event)

    def _apply(self, event: FaultEvent) -> None:
        event.apply(self)
        self.active.append(event)
        self.applied.append((self.sim.now, event))
        if event.end is not None:
            self.sim.schedule_callback(event.end - self.sim.now,
                                       self._revert, event)

    def _revert(self, event: FaultEvent) -> None:
        if event not in self.active:
            return
        event.revert(self)
        self.active.remove(event)
        self.reverted.append((self.sim.now, event))

    def heal_all(self) -> None:
        """Revert every still-active event immediately (end-of-test
        cleanup; events with pending scheduled reverts no-op later)."""
        for event in list(self.active):
            self._revert(event)
