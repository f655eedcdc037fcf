"""Redis cluster builder (the §5.4 testbed)."""

from __future__ import annotations

import dataclasses

from repro.core.witness import WitnessEndpoint, WitnessServer
from repro.harness.profiles import ClusterProfile, TEST_PROFILE
from repro.net.latency import LatencyModel
from repro.net.network import Network
from repro.redislike.client import SUSPECT_AFTER, RedisClient
from repro.redislike.server import DurabilityMode, RedisServer
from repro.sim.distributions import Distribution
from repro.sim.simulator import Simulator


@dataclasses.dataclass
class RedisCluster:
    sim: Simulator
    network: Network
    profile: ClusterProfile
    mode: DurabilityMode
    server: RedisServer
    witness_servers: list[WitnessServer]
    clients: list[RedisClient]
    _host_counter: int = 0

    def run(self, generator_or_event, timeout: float | None = None):
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
                        f"redis cluster run timed out at t={self.sim.now}")
            return target.value
        return self.sim.run(target)

    def new_client(self, collect_outcomes: bool = True) -> RedisClient:
        self._host_counter += 1
        host = self.network.add_host(f"rclient{self._host_counter}",
                                     tx_cost=self.profile.client.tx,
                                     rx_cost=self.profile.client.rx)
        client = RedisClient(
            host, server=self.server.host.name, mode=self.mode,
            witnesses=list(self.server.witnesses),
            collect_outcomes=collect_outcomes)
        self.clients.append(client)
        return client

    def settle(self, quiet: float = 5_000.0) -> None:
        self.sim.run(until=self.sim.now + quiet)


def build_redis_cluster(mode: DurabilityMode,
                        n_witnesses: int = 1,
                        profile: ClusterProfile = TEST_PROFILE,
                        fsync_duration: Distribution | None = None,
                        execute_time: float | None = None,
                        seed: int = 0,
                        curp_fsync_batch: int = 20) -> RedisCluster:
    """A Redis server (+witnesses in CURP mode) on a fresh simulator."""
    sim = Simulator(seed=seed)
    network = Network(sim, latency=LatencyModel(profile.latency()))
    server_host = network.add_host("redis-server",
                                   tx_cost=profile.master.tx,
                                   rx_cost=profile.master.rx,
                                   shared_dispatch=profile.master.shared)
    witness_servers = []
    witness_names = []
    if mode is DurabilityMode.CURP:
        for index in range(n_witnesses):
            witness_host = network.add_host(f"redis-witness{index}",
                                            tx_cost=profile.witness.tx,
                                            rx_cost=profile.witness.rx)
            endpoint = WitnessEndpoint(
                witness_host, suspect_after=SUSPECT_AFTER,
                record_time=profile.witness_record_time)
            witness_servers.append(
                endpoint.serve(f"redis:{server_host.name}"))
            witness_names.append(witness_host.name)
    server = RedisServer(
        server_host, mode, fsync_time=fsync_duration, witnesses=witness_names,
        execute_time=(profile.execute_time if execute_time is None
                      else execute_time),
        curp_fsync_batch=curp_fsync_batch)
    return RedisCluster(sim=sim, network=network, profile=profile, mode=mode,
                        server=server, witness_servers=witness_servers,
                        clients=[])
