"""The multi-tenant witness endpoint (ISSUE 4).

One host serves several masters' witness sets behind a single rx
handler: records/probes/gc route to per-master tenants, a recovery
freeze is per tenant, and every master's ``gc`` receives exactly its
own stale-suspect list.
"""

from __future__ import annotations

import pytest

from repro.core.messages import (
    GcArgs,
    GetRecoveryDataArgs,
    PROBE_COMMUTE,
    PROBE_CONFLICT,
    ProbeArgs,
    RECORD_ACCEPTED,
    RECORD_REJECTED,
    RecordArgs,
    RecordedRequest,
    StartArgs,
)
from repro.core.witness import MODE_RECOVERY, WitnessEndpoint
from repro.net import Network
from repro.rpc import AppError, RpcTransport
from repro.sim import Simulator


@pytest.fixture
def setup(sim: Simulator, network: Network):
    """An endpoint serving m0 and m1, plus one transport per master."""
    endpoint = WitnessEndpoint(network.add_host("witness"), slots=64,
                               associativity=4, stale_threshold=3)
    endpoint.serve("m0")
    endpoint.serve("m1")
    m0 = RpcTransport(network.add_host("m0-host"))
    m1 = RpcTransport(network.add_host("m1-host"))
    return endpoint, m0, m1


def record_args(master_id: str, key_hash: int, rpc_id) -> RecordArgs:
    return RecordArgs(master_id=master_id, key_hashes=(key_hash,),
                      rpc_id=rpc_id,
                      request=RecordedRequest(op=f"op-{rpc_id}",
                                              rpc_id=rpc_id))


# ----------------------------------------------------------------------
# tenant routing
# ----------------------------------------------------------------------
def test_records_route_to_independent_tenant_caches(sim, setup):
    endpoint, m0, m1 = setup
    # The same key hash occupies a slot in *both* tenants: capacity and
    # commutativity are per master, as with separate witness hosts.
    assert sim.run(m0.call("witness", "record",
                           record_args("m0", 7, "a"))) == RECORD_ACCEPTED
    assert sim.run(m1.call("witness", "record",
                           record_args("m1", 7, "b"))) == RECORD_ACCEPTED
    # A conflicting record is rejected only on the tenant that holds
    # the first one.
    assert sim.run(m0.call("witness", "record",
                           record_args("m0", 7, "c"))) == RECORD_REJECTED
    assert endpoint.stats.records == 3
    assert endpoint.tenants["m0"].cache.occupied_slots() == 1
    assert endpoint.tenants["m1"].cache.occupied_slots() == 1


def test_unknown_master_is_rejected_conservatively(sim, setup):
    _endpoint, m0, _m1 = setup
    assert sim.run(m0.call("witness", "record",
                           record_args("m9", 1, "x"))) == RECORD_REJECTED
    assert sim.run(m0.call(
        "witness", "probe",
        ProbeArgs(master_id="m9", key_hashes=(1,)))) == PROBE_CONFLICT
    with pytest.raises(AppError) as exc:
        sim.run(m0.call("witness", "gc",
                        GcArgs(master_id="m9", pairs=())))
    assert exc.value.code == "WRONG_WITNESS_STATE"


def test_probe_routes_per_tenant(sim, setup):
    _endpoint, m0, m1 = setup
    sim.run(m0.call("witness", "record", record_args("m0", 5, "a")))
    assert sim.run(m0.call(
        "witness", "probe",
        ProbeArgs(master_id="m0", key_hashes=(5,)))) == PROBE_CONFLICT
    assert sim.run(m1.call(
        "witness", "probe",
        ProbeArgs(master_id="m1", key_hashes=(5,)))) == PROBE_COMMUTE


def test_recovery_freezes_only_one_tenant(sim, setup):
    endpoint, m0, m1 = setup
    sim.run(m0.call("witness", "record", record_args("m0", 3, "a")))
    data = sim.run(m0.call("witness", "get_recovery_data",
                           GetRecoveryDataArgs(master_id="m0")))
    assert [r.rpc_id for r in data] == ["a"]
    assert endpoint.tenants["m0"].mode == MODE_RECOVERY
    # m0 is frozen (record rejected); m1 keeps serving.
    assert sim.run(m0.call("witness", "record",
                           record_args("m0", 9, "b"))) == RECORD_REJECTED
    assert sim.run(m1.call("witness", "record",
                           record_args("m1", 9, "c"))) == RECORD_ACCEPTED
    # start (§3.6) begins a fresh life for m0 without touching m1.
    assert sim.run(m0.call("witness", "start",
                           StartArgs(master_id="m0"))) == "SUCCESS"
    assert sim.run(m0.call("witness", "record",
                           record_args("m0", 9, "d"))) == RECORD_ACCEPTED
    assert endpoint.tenants["m1"].cache.occupied_slots() == 1


def test_end_decommissions_one_tenant(sim, setup):
    endpoint, m0, m1 = setup
    sim.run(m0.call("witness", "record", record_args("m0", 3, "a")))
    sim.run(m1.call("witness", "record", record_args("m1", 4, "b")))
    sim.run(m0.call("witness", "end", StartArgs(master_id="m0")))
    assert "m0" not in endpoint.tenants
    assert sim.run(m0.call("witness", "record",
                           record_args("m0", 5, "c"))) == RECORD_REJECTED
    assert endpoint.tenants["m1"].cache.occupied_slots() == 1


# ----------------------------------------------------------------------
# gc routing
# ----------------------------------------------------------------------
def test_gc_drops_only_the_calling_masters_records(sim, setup):
    endpoint, m0, m1 = setup
    # The same (hash, RpcId) pair on both tenants: m0's gc must not
    # reach into m1's cache.
    sim.run(m0.call("witness", "record", record_args("m0", 11, "a")))
    sim.run(m1.call("witness", "record", record_args("m1", 11, "a")))
    assert sim.run(m0.call(
        "witness", "gc", GcArgs(master_id="m0", pairs=((11, "a"),)))) == ()
    assert endpoint.tenants["m0"].cache.occupied_slots() == 0
    assert endpoint.tenants["m1"].cache.occupied_slots() == 1
    assert sim.run(m1.call(
        "witness", "gc", GcArgs(master_id="m1", pairs=((11, "a"),)))) == ()
    assert endpoint.tenants["m1"].cache.occupied_slots() == 0
    assert endpoint.stats.gcs == 2
    assert endpoint.tenants["m0"].gcs_processed == 1
    assert endpoint.tenants["m1"].gcs_processed == 1


def test_gc_returns_stale_suspects_to_the_right_master(sim, setup):
    """m0 accumulates an uncollected record (aged past the stale
    threshold, then bumped by a conflicting record, §4.5); m1's gc must
    neither age it nor be handed it."""
    _endpoint, m0, m1 = setup
    sim.run(m0.call("witness", "record", record_args("m0", 11, "orphan")))
    for _round in range(3):  # m1's rounds do not age m0's record
        sim.run(m1.call("witness", "gc", GcArgs(master_id="m1", pairs=())))
    assert sim.run(m0.call(
        "witness", "record",
        record_args("m0", 11, "early"))) == RECORD_REJECTED
    assert sim.run(m0.call(
        "witness", "gc", GcArgs(master_id="m0", pairs=()))) == ()
    for _round in range(2):  # three m0 rounds in all: past the threshold
        sim.run(m0.call("witness", "gc", GcArgs(master_id="m0", pairs=())))
    assert sim.run(m0.call(
        "witness", "record",
        record_args("m0", 11, "bumper"))) == RECORD_REJECTED
    assert sim.run(m1.call(
        "witness", "gc", GcArgs(master_id="m1", pairs=()))) == ()
    stale = sim.run(m0.call("witness", "gc",
                            GcArgs(master_id="m0", pairs=())))
    assert [r.rpc_id for r in stale] == ["orphan"]


def test_single_tenant_server_cannot_clobber_an_endpoint_host(sim, network):
    """Coordinator guard symmetry: installing a single-tenant witness
    on a host that already runs a multi-tenant endpoint would steal
    the rx handler and orphan every tenant — both directions must
    refuse."""
    from repro.core.config import CurpConfig
    from repro.cluster.coordinator import Coordinator

    coordinator = Coordinator(network.add_host("coord"), network,
                              CurpConfig(f=1))
    shared = network.add_host("shared-witness")
    coordinator.add_witness_endpoint(shared)
    with pytest.raises(ValueError, match="multi-tenant"):
        coordinator.add_witness_host(shared)
    solo = network.add_host("solo-witness")
    coordinator.add_witness_host(solo)
    with pytest.raises(ValueError, match="single-tenant"):
        coordinator.add_witness_endpoint(solo)
