"""Cluster builder: one call from nothing to a serving CURP cluster.

Used by the test suite (with ``TEST_PROFILE`` for exact RTT math), the
examples, and every benchmark (with the calibrated profiles).
"""

from __future__ import annotations

import dataclasses

from repro.cluster.coordinator import Coordinator
from repro.cluster.rebalancer import Rebalancer
from repro.core.client import CurpClient
from repro.core.config import CurpConfig
from repro.core.master import CurpMaster, MasterStats
from repro.harness.profiles import ClusterProfile, TEST_PROFILE
from repro.net.latency import LatencyModel
from repro.net.network import Network
from repro.sim.simulator import Simulator


@dataclasses.dataclass
class Cluster:
    """A built cluster plus handles to everything in it."""

    sim: Simulator
    network: Network
    config: CurpConfig
    profile: ClusterProfile
    coordinator: Coordinator
    masters: dict[str, CurpMaster]
    backup_hosts: dict[str, list[str]]
    witness_hosts: dict[str, list[str]]
    clients: list[CurpClient]
    #: the load-driven rebalancer, once started (None = static tablets)
    rebalancer: "Rebalancer | None" = None
    _host_counter: int = 0

    # ------------------------------------------------------------------
    # convenience plumbing
    # ------------------------------------------------------------------
    def master(self, master_id: str = "m0") -> CurpMaster:
        """The currently-active master object (tracks recoveries)."""
        managed = self.coordinator.masters.get(master_id)
        if managed is not None and managed.master is not None:
            return managed.master
        return self.masters[master_id]

    @property
    def shard_map(self):
        """The coordinator's current routing snapshot."""
        return self.coordinator.shard_map

    def shard_for(self, key: str) -> str | None:
        """Which master id owns ``key`` right now."""
        return self.shard_map.master_for_key(key)

    def total_master_stats(self) -> MasterStats:
        """Sum of every shard's :class:`MasterStats` (scale-out benches
        read aggregate throughput and gc traffic off this)."""
        total = MasterStats()
        for master_id in self.masters:
            stats = self.master(master_id).stats
            for field in dataclasses.fields(MasterStats):
                value = getattr(stats, field.name)
                if isinstance(value, dict):
                    merged = getattr(total, field.name)
                    for key, count in value.items():
                        merged[key] = merged.get(key, 0) + count
                else:
                    setattr(total, field.name,
                            getattr(total, field.name) + value)
        return total

    def run(self, generator_or_event, timeout: float | None = None):
        """Run a client generator (or event) to completion; returns its
        value.  ``timeout`` bounds simulated time (RuntimeError on
        expiry) so a buggy protocol can't hang the test suite."""
        from repro.sim.events import Event
        if isinstance(generator_or_event, Event):
            target = generator_or_event
        else:
            target = self.sim.process(generator_or_event)
        if timeout is not None:
            deadline = self.sim.now + timeout
            while not target.triggered:
                if self.sim.now > deadline or not self.sim.step():
                    raise RuntimeError(
                        f"cluster.run timed out at t={self.sim.now}")
            return target.value
        return self.sim.run(target)

    def new_client(self, collect_outcomes: bool = True) -> CurpClient:
        """Create and connect a client (runs the simulator briefly)."""
        self._host_counter += 1
        host = self.network.add_host(
            f"client{self._host_counter}",
            tx_cost=self.profile.client.tx, rx_cost=self.profile.client.rx)
        client = CurpClient(host, self.config,
                            coordinator=self.coordinator.host.name,
                            collect_outcomes=collect_outcomes)
        self.run(client.connect())
        self.clients.append(client)
        return client

    def add_host(self, name: str, role: str = "client"):
        """Add a raw host costed per the profile role."""
        costs = getattr(self.profile, role)
        return self.network.add_host(name, tx_cost=costs.tx,
                                     rx_cost=costs.rx,
                                     shared_dispatch=costs.shared)

    def settle(self, quiet: float = 5_000.0) -> None:
        """Run the simulator for a while (drain syncs, timers)."""
        self.sim.run(until=self.sim.now + quiet)

    def close(self) -> None:
        """End the simulation for good and let the collector free it in
        one pass.

        A run stopped with operations in flight leaves thousands of
        suspended process generators, and one that retried keeps its
        last RPC error, whose traceback holds the generator's own
        frame.  When the collector finalizes such a generator, CPython
        moves that frame into a frame object outside the garbage being
        collected, and everything the frame reaches — the whole
        cluster — survives until the next collection.  Close the
        generators here instead, then drop every kernel record.  The
        cluster cannot run afterwards.
        """
        for host in self.network.hosts.values():
            for process in list(host._processes):
                process.generator.close()
            host._processes.clear()
        self.sim._heap.clear()
        self.sim._now_queue.clear()

    def inject_faults(self, plan) -> "FaultInjector":
        """Bind a :class:`~repro.net.faults.FaultPlan` to this cluster
        and start it.  Empty plans schedule nothing and draw nothing
        (the golden-trace contract); the returned injector exposes
        ``applied``/``reverted`` timelines and ``heal_all()``."""
        from repro.net.faults import FaultInjector
        injector = FaultInjector(self.network, plan)
        injector.start()
        return injector

    def start_rebalancer(self, **kwargs) -> "Rebalancer":
        """Start the load-driven rebalancer loop on the coordinator.

        Keyword arguments are :class:`Rebalancer`'s (``interval``,
        ``threshold``, ``min_ops``, ``cooling_max_ops``); its RPCs wait
        ``config.rpc_timeout``.
        Off by default: a cluster that never calls this keeps its
        tablets static, which is what every pre-existing golden trace
        pins."""
        if self.rebalancer is not None and self.rebalancer.running:
            raise RuntimeError("a rebalancer is already running on this "
                               "cluster; stop() it before starting another")
        rebalancer = Rebalancer(self.coordinator, **kwargs)
        rebalancer.start()
        self.rebalancer = rebalancer
        return rebalancer


def build_cluster(config: CurpConfig | None = None,
                  profile: ClusterProfile = TEST_PROFILE,
                  n_masters: int = 1,
                  seed: int = 0,
                  drop_rate: float = 0.0,
                  colocate_witnesses: bool = False,
                  multi_tenant_witnesses: bool = False) -> Cluster:
    """Build a cluster: coordinator + n masters, each with f backups and
    f witnesses (when the mode uses them), on a fresh simulator.

    ``n_masters > 1`` builds a sharded multi-master cluster: the key
    hash space is split evenly into one tablet per master, each shard
    gets its own backup and witness set, and clients route through the
    coordinator's :class:`~repro.cluster.shard_map.ShardMap`.

    ``colocate_witnesses=True`` places each witness on its backup's
    host — the paper's Figure 2 deployment ("witnesses are lightweight
    and can be co-hosted with backups").

    ``multi_tenant_witnesses=True`` builds f shared witness hosts
    (``wshared0..f-1``), each serving every master's witness as a
    tenant — f hosts of witness hardware for the whole multi-shard
    cluster.  Either flag only chooses placement: every witness host
    runs the same :class:`~repro.core.witness.WitnessEndpoint`."""
    config = config or CurpConfig()
    if n_masters < 1:
        raise ValueError("n_masters must be >= 1")
    if colocate_witnesses and multi_tenant_witnesses:
        raise ValueError("colocate_witnesses and multi_tenant_witnesses "
                         "are mutually exclusive deployments")
    overload = config.overload
    if (overload.enabled and overload.witness_window_records > 0
            and not multi_tenant_witnesses):
        raise ValueError("overload.witness_window_records > 0 (per-tenant "
                         "fair witness admission) shares a witness host "
                         "between masters: it requires "
                         "multi_tenant_witnesses=True")
    sim = Simulator(seed=seed)
    network = Network(sim, latency=LatencyModel(profile.latency()),
                      drop_rate=drop_rate)
    coordinator_host = network.add_host("coordinator",
                                        tx_cost=profile.coordinator.tx,
                                        rx_cost=profile.coordinator.rx)
    coordinator = Coordinator(coordinator_host, network, config)

    masters: dict[str, CurpMaster] = {}
    backup_hosts: dict[str, list[str]] = {}
    witness_hosts: dict[str, list[str]] = {}
    shared_witnesses = [
        network.add_host(f"wshared{i}", tx_cost=profile.witness.tx,
                         rx_cost=profile.witness.rx)
        for i in range(config.f if multi_tenant_witnesses
                       and config.uses_witnesses else 0)]
    span = 2 ** 64 // n_masters
    for index in range(n_masters):
        master_id = f"m{index}"
        master_host = network.add_host(f"{master_id}-host",
                                       tx_cost=profile.master.tx,
                                       rx_cost=profile.master.rx,
                                       shared_dispatch=profile.master.shared)
        backups = [network.add_host(f"{master_id}-backup{i}",
                                    tx_cost=profile.backup.tx,
                                    rx_cost=profile.backup.rx)
                   for i in range(config.f if config.uses_backups else 0)]
        if multi_tenant_witnesses and config.uses_witnesses:
            witnesses = shared_witnesses
        elif colocate_witnesses and config.uses_witnesses:
            if len(backups) < config.f:
                raise ValueError("colocation requires f backups")
            witnesses = backups[:config.f]
        else:
            witnesses = [network.add_host(f"{master_id}-witness{i}",
                                          tx_cost=profile.witness.tx,
                                          rx_cost=profile.witness.rx)
                         for i in range(config.f if config.uses_witnesses
                                        else 0)]
        lo = index * span
        hi = (index + 1) * span if index < n_masters - 1 else 2 ** 64
        master = coordinator.create_master(
            master_id, master_host,
            backup_hosts=backups, witness_hosts=witnesses,
            owned_ranges=((lo, hi),),
            backup_process_time=profile.backup_process_time,
            witness_record_time=profile.witness_record_time,
            n_workers=profile.master_workers,
            execute_time=profile.execute_time)
        masters[master_id] = master
        backup_hosts[master_id] = [b.name for b in backups]
        witness_hosts[master_id] = [w.name for w in witnesses]

    return Cluster(sim=sim, network=network, config=config, profile=profile,
                   coordinator=coordinator, masters=masters,
                   backup_hosts=backup_hosts, witness_hosts=witness_hosts,
                   clients=[])
