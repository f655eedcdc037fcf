"""Open-loop traffic: Poisson arrivals decoupled from completions.

Every pre-existing driver in this package is *closed-loop*: each client
issues its next operation only after the previous one completes, so the
offered load self-throttles to whatever the cluster can absorb and the
cluster can never be pushed past saturation.  Real traffic ("millions
of users", the ROADMAP's north star) is open-loop: arrivals keep coming
at the offered rate no matter how slowly completions drain — which is
exactly the regime where an undefended cluster collapses (queues grow
without bound, queueing delay exceeds every client's RPC patience, and
goodput falls off a cliff past saturation instead of flattening).

This module provides:

- :class:`ArrivalSchedule` and its shapes — :class:`ConstantRate`,
  :class:`DiurnalRate` (sinusoidal day/night swing), and
  :class:`FlashCrowd` (a step surge multiplier over any base schedule).
  Arrival instants are a non-homogeneous Poisson process sampled by
  Lewis–Shedler thinning against the schedule's peak rate, driven
  entirely from ``sim.rng`` — deterministic per seed.
- :class:`TenantSpec` / :class:`OpenLoopEngine` — N tenants, each with
  its own schedule, its own (prefix-disjoint, independently zipfian)
  YCSB key space and its own small pool of connections, offered
  against one cluster.  Arrivals enqueue; a dispatcher issues queued
  operations up to an AIMD in-flight window per tenant (the
  backpressure half of the ``RETRY_LATER`` contract: multiplicative
  shrink on pushback, additive growth on clean completions).  With
  backpressure off the window is unbounded and every arrival fires
  immediately — the naive open loop that demonstrates the collapse.

Goodput is reported as completions/s (optionally SLO-filtered) over
the measured window, per tenant and aggregate, alongside latency
percentiles (arrival → completion, queueing included), pushback
counts, and drop/give-up totals.
"""

from __future__ import annotations

import collections
import dataclasses
import math
import typing

from repro.core.client import ClientGaveUp, CurpClient
from repro.kvstore.operations import Read
from repro.metrics.stats import LatencyRecorder
from repro.workload.ycsb import YcsbOpStream, YcsbWorkload

if typing.TYPE_CHECKING:  # pragma: no cover
    import random

    from repro.harness.builder import Cluster
    from repro.verify.history import History

# -- client backpressure (AIMD in-flight window) ------------------------
#: floor for the adaptive in-flight window
MIN_WINDOW = 1
#: multiplicative shrink factor applied on pushback
WINDOW_DECREASE = 0.5
#: additive growth per window's worth of clean completions
WINDOW_INCREASE = 1.0


# ----------------------------------------------------------------------
# arrival schedules (rates in operations per second; time in µs)
# ----------------------------------------------------------------------
class ArrivalSchedule:
    """A time-varying offered rate r(t), in ops/s."""

    def rate_at(self, t: float) -> float:
        raise NotImplementedError

    @property
    def peak_rate(self) -> float:
        """An upper bound on ``rate_at`` over all t (thinning envelope)."""
        raise NotImplementedError

    def next_interval(self, now: float, rng: "random.Random") -> float:
        """Time (µs) from ``now`` to the next Poisson arrival.

        Lewis–Shedler thinning: candidate arrivals at the peak rate,
        each kept with probability r(t)/peak.  Exactly reproduces the
        non-homogeneous process as long as ``rate_at`` never exceeds
        ``peak_rate`` (the constructors enforce that).
        """
        peak = self.peak_rate
        if peak <= 0:
            raise ValueError(f"peak rate must be > 0: {peak}")
        t = now
        while True:
            t += rng.expovariate(peak / 1e6)
            if rng.random() * peak <= self.rate_at(t):
                return t - now


@dataclasses.dataclass(frozen=True)
class ConstantRate(ArrivalSchedule):
    """Flat r(t) = rate ops/s."""

    rate: float

    def __post_init__(self) -> None:
        if self.rate <= 0:
            raise ValueError(f"rate must be > 0: {self.rate}")

    def rate_at(self, t: float) -> float:
        return self.rate

    @property
    def peak_rate(self) -> float:
        return self.rate


@dataclasses.dataclass(frozen=True)
class DiurnalRate(ArrivalSchedule):
    """Sinusoidal day/night swing around a base rate:
    r(t) = base × (1 + amplitude × sin(2π (t + phase) / period))."""

    base: float
    #: swing as a fraction of base, in [0, 1)
    amplitude: float = 0.5
    #: one "day", in µs (benches compress this far below 24 h)
    period: float = 1_000_000.0
    phase: float = 0.0

    def __post_init__(self) -> None:
        if self.base <= 0:
            raise ValueError(f"base must be > 0: {self.base}")
        if not 0.0 <= self.amplitude < 1.0:
            raise ValueError("amplitude must be in [0, 1) — the rate "
                             "must stay positive")
        if self.period <= 0:
            raise ValueError(f"period must be > 0: {self.period}")

    def rate_at(self, t: float) -> float:
        swing = math.sin(2 * math.pi * (t + self.phase) / self.period)
        return self.base * (1.0 + self.amplitude * swing)

    @property
    def peak_rate(self) -> float:
        return self.base * (1.0 + self.amplitude)


@dataclasses.dataclass(frozen=True)
class FlashCrowd(ArrivalSchedule):
    """A step surge over any base schedule: rate × ``multiplier``
    during [surge_start, surge_end), the base rate outside it."""

    base: ArrivalSchedule
    multiplier: float
    surge_start: float
    surge_end: float

    def __post_init__(self) -> None:
        if isinstance(self.base, (int, float)):
            object.__setattr__(self, "base", ConstantRate(float(self.base)))
        if self.multiplier < 1.0:
            raise ValueError("multiplier must be >= 1 (a lull is a "
                             "diurnal trough, not a flash crowd)")
        if self.surge_end <= self.surge_start:
            raise ValueError("surge_end must be > surge_start")

    def rate_at(self, t: float) -> float:
        rate = self.base.rate_at(t)
        if self.surge_start <= t < self.surge_end:
            return rate * self.multiplier
        return rate

    @property
    def peak_rate(self) -> float:
        return self.base.peak_rate * self.multiplier


# ----------------------------------------------------------------------
# tenants
# ----------------------------------------------------------------------
@dataclasses.dataclass(frozen=True)
class KeySetWorkload:
    """A fixed set of keys, chosen uniformly — fairness scenarios pick
    keys by owning shard (``cluster.shard_for``) so one tenant's entire
    load lands on one master, which a hash-routed YCSB key space cannot
    arrange."""

    name: str
    keys: tuple
    read_fraction: float = 0.0
    value_size: int = 100

    def __post_init__(self) -> None:
        if not self.keys:
            raise ValueError("at least one key is required")
        if not 0.0 <= self.read_fraction <= 1.0:
            raise ValueError("read_fraction must be in [0, 1]")

    def generator(self) -> "KeySetStream":
        return KeySetStream(self)


class KeySetStream:
    """Op stream over a :class:`KeySetWorkload`."""

    def __init__(self, workload: KeySetWorkload):
        self.workload = workload
        self._value = "v" * workload.value_size

    def next_op(self, rng: "random.Random"):
        from repro.kvstore.operations import Write

        key = self.workload.keys[rng.randrange(len(self.workload.keys))]
        if rng.random() < self.workload.read_fraction:
            return Read(key)
        return Write(key, self._value)


@dataclasses.dataclass(frozen=True)
class TenantSpec:
    """One tenant's offered traffic: a schedule over its own key space."""

    name: str
    schedule: ArrivalSchedule
    workload: YcsbWorkload
    #: connection pool: arrivals round-robin over this many clients
    #: (one client id = one RIFL sequence = one op at a time per rpc_id,
    #: but the engine issues concurrent ops across the pool)
    n_clients: int = 4

    def __post_init__(self) -> None:
        if self.n_clients < 1:
            raise ValueError("n_clients must be >= 1")


class _TenantState:
    """Runtime counters and queue for one tenant."""

    def __init__(self, spec: TenantSpec, initial_window: float):
        self.spec = spec
        self.stream: YcsbOpStream = spec.workload.generator()
        self.clients: list[CurpClient] = []
        self.queue: collections.deque = collections.deque()
        self.window = initial_window
        self.in_flight = 0
        self.next_client = 0
        self.offered = 0
        self.issued = 0
        self.completed = 0
        self.good = 0
        self.failed = 0
        self.dropped = 0
        self.pushback_base = 0
        self.latency = LatencyRecorder()
        #: (completion time, latency) pairs, when record_timeline
        self.completions: list[tuple[float, float]] = []

    def reset(self) -> None:
        self.offered = 0
        self.issued = 0
        self.completed = 0
        self.good = 0
        self.failed = 0
        self.dropped = 0
        self.latency.reset()
        self.completions.clear()
        self.pushback_base = sum(c.pushbacks for c in self.clients)

    @property
    def pushbacks(self) -> int:
        return sum(c.pushbacks for c in self.clients) - self.pushback_base


class OpenLoopEngine:
    """Drive N tenants of open-loop traffic against a cluster.

    ``backpressure=None`` (the default) follows
    ``cluster.config.overload.enabled`` — one switch turns on both the
    server defenses and the client half of the contract.  ``max_window``
    caps the AIMD window (and is the initial window); with backpressure
    off the window is effectively infinite.  ``max_queue_wait`` (µs,
    backpressure mode) drops arrivals that waited too long client-side
    — shedding at the edge, where it is cheapest.  ``slo`` (µs) makes
    goodput SLO-filtered: completions slower than the SLO count as
    completed but not *good*.  ``history`` wires every operation
    through a :class:`~repro.verify.history.History` for
    linearizability audits (chaos tests).
    """

    def __init__(self, cluster: "Cluster",
                 tenants: typing.Sequence[TenantSpec],
                 backpressure: bool | None = None,
                 max_window: int = 64,
                 max_queue_wait: float | None = None,
                 slo: float | None = None,
                 history: "History | None" = None,
                 record_timeline: bool = False):
        if not tenants:
            raise ValueError("at least one tenant is required")
        names = [spec.name for spec in tenants]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate tenant names: {names}")
        self.cluster = cluster
        self.sim = cluster.sim
        self.backpressure = (cluster.config.overload.enabled
                             if backpressure is None else backpressure)
        self.max_window = max_window
        self.max_queue_wait = max_queue_wait
        self.slo = slo
        self.history = history
        self.record_timeline = record_timeline
        self.tenants = [_TenantState(spec, float(max_window))
                        for spec in tenants]
        self.running = False
        self.started = False

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Connect the tenant pools and start the arrival loops."""
        if self.started:
            return
        self.started = True
        for tenant in self.tenants:
            tenant.clients = [
                self.cluster.new_client(collect_outcomes=False)
                for _ in range(tenant.spec.n_clients)]
        self.running = True
        for tenant in self.tenants:
            # Arrival loops are plain sim processes, not host processes:
            # offered load is generated by the outside world and must
            # survive any in-cluster crash.
            self.sim.process(self._arrivals(tenant))

    def stop(self) -> None:
        self.running = False

    def _arrivals(self, tenant: _TenantState):
        rng = self.sim.rng
        schedule = tenant.spec.schedule
        while self.running:
            yield self.sim.timeout(schedule.next_interval(self.sim.now, rng))
            if not self.running:
                return
            tenant.offered += 1
            tenant.queue.append((tenant.stream.next_op(rng), self.sim.now))
            self._pump(tenant)

    # ------------------------------------------------------------------
    # dispatch (the backpressure window)
    # ------------------------------------------------------------------
    def _limit(self, tenant: _TenantState) -> float:
        if not self.backpressure:
            return math.inf
        return max(MIN_WINDOW, int(tenant.window))

    def _pump(self, tenant: _TenantState) -> None:
        while tenant.queue and tenant.in_flight < self._limit(tenant):
            op, arrived = tenant.queue.popleft()
            if (self.max_queue_wait is not None
                    and self.sim.now - arrived > self.max_queue_wait):
                tenant.dropped += 1
                continue
            tenant.in_flight += 1
            tenant.issued += 1
            client = tenant.clients[tenant.next_client]
            tenant.next_client = ((tenant.next_client + 1)
                                  % len(tenant.clients))
            client.host.spawn(self._run_op(tenant, client, op, arrived),
                              name=f"openloop-{tenant.spec.name}")

    def _run_op(self, tenant: _TenantState, client: CurpClient, op,
                arrived: float):
        before = client.pushbacks
        ok = yield from self._perform(client, op)
        if ok:
            latency = self.sim.now - arrived
            tenant.completed += 1
            tenant.latency.record(latency)
            if self.slo is None or latency <= self.slo:
                tenant.good += 1
            if self.record_timeline:
                tenant.completions.append((self.sim.now, latency))
        else:
            tenant.failed += 1
        tenant.in_flight -= 1
        self._adjust_window(tenant, saw_pushback=client.pushbacks > before)
        self._pump(tenant)

    def _perform(self, client: CurpClient, op):
        """Generator: one operation; True iff it completed.  With a
        history attached, the op is recorded invoke/complete (give-ups
        stay pending — may-or-may-not-have-happened, §3.4)."""
        record = None
        if self.history is not None:
            from repro.verify.instrument import HistoryClient
            record = HistoryClient(client, self.history)._begin(op)
        try:
            if isinstance(op, Read):
                value = yield from client.read(op.key)
            else:
                outcome = yield from client.update(op)
                value = outcome.result
        except ClientGaveUp:
            return False
        if record is not None:
            self.history.complete(record, value, self.sim.now)
        return True

    def _adjust_window(self, tenant: _TenantState,
                       saw_pushback: bool) -> None:
        if not self.backpressure:
            return
        if saw_pushback:
            # Multiplicative decrease: the op absorbed >= 1 RETRY_LATER.
            tenant.window = max(float(MIN_WINDOW),
                                tenant.window * WINDOW_DECREASE)
        else:
            # Additive increase: +WINDOW_INCREASE per window's worth of
            # clean completions (TCP congestion avoidance's shape).
            tenant.window = min(float(self.max_window),
                                tenant.window
                                + WINDOW_INCREASE / max(tenant.window, 1.0))

    # ------------------------------------------------------------------
    # measurement
    # ------------------------------------------------------------------
    def run(self, duration: float, warmup: float = 0.0) -> dict:
        """Offer load for ``warmup + duration`` µs; return the measured
        window's per-tenant and aggregate results."""
        self.start()
        if warmup > 0:
            self.sim.run(until=self.sim.now + warmup)
            for tenant in self.tenants:
                tenant.reset()
        start = self.sim.now
        self.sim.run(until=start + duration)
        self.stop()
        return self.results(self.sim.now - start)

    def drain(self, timeout: float = 1_000_000.0) -> bool:
        """After stop(): step until in-flight ops finish (or timeout).
        True iff everything drained."""
        deadline = self.sim.now + timeout
        while any(t.in_flight for t in self.tenants):
            if self.sim.now > deadline or not self.sim.step():
                return False
        return True

    def results(self, elapsed: float) -> dict:
        seconds = elapsed / 1e6
        per_tenant = {}
        for tenant in self.tenants:
            summary = tenant.latency.summary()
            per_tenant[tenant.spec.name] = {
                "offered": tenant.offered,
                "offered_per_sec": tenant.offered / seconds if seconds else 0.0,
                "issued": tenant.issued,
                "completed": tenant.completed,
                "failed": tenant.failed,
                "dropped": tenant.dropped,
                "queued": len(tenant.queue),
                "in_flight": tenant.in_flight,
                "goodput": tenant.good / seconds if seconds else 0.0,
                "completed_per_sec": (tenant.completed / seconds
                                      if seconds else 0.0),
                "pushbacks": tenant.pushbacks,
                "window": tenant.window if self.backpressure else None,
                "latency": summary,
                "completions": (list(tenant.completions)
                                if self.record_timeline else None),
            }
        total_good = sum(t.good for t in self.tenants)
        total_offered = sum(t.offered for t in self.tenants)
        return {
            "elapsed": elapsed,
            "offered": total_offered,
            "offered_per_sec": total_offered / seconds if seconds else 0.0,
            "completed": sum(t.completed for t in self.tenants),
            "failed": sum(t.failed for t in self.tenants),
            "dropped": sum(t.dropped for t in self.tenants),
            "goodput": total_good / seconds if seconds else 0.0,
            "pushbacks": sum(t.pushbacks for t in self.tenants),
            "per_tenant": per_tenant,
        }
