"""The witness RPC contract (Figure 4 API) on every witness host shape:
a dedicated host, a host colocated with a backup (sharing its
transport, Figure 2), and a host shared with a second master."""

from __future__ import annotations

import pytest

from repro.core.config import CurpConfig, ReplicationMode
from repro.core.messages import (
    GcArgs,
    GetRecoveryDataArgs,
    ProbeArgs,
    PROBE_COMMUTE,
    PROBE_CONFLICT,
    RECORD_ACCEPTED,
    RECORD_REJECTED,
    RecordArgs,
    RecordedRequest,
    StartArgs,
)
from repro.core.witness import MODE_NORMAL, MODE_RECOVERY, WitnessEndpoint
from repro.harness import build_cluster
from repro.kvstore.backup import BackupServer
from repro.net import Network
from repro.rifl import RpcId
from repro.rpc import AppError, RpcTransport

HOSTS = ("dedicated", "colocated", "shared")

#: key hashes the tests below record for m0; the shared host's other
#: master holds its own records for the same hashes
NEIGHBOUR_HASHES = (1, 2, 5, 6)


def record_args(key_hash: int, seq: int, master="m0") -> RecordArgs:
    rpc_id = RpcId(1, seq)
    return RecordArgs(master_id=master, key_hashes=(key_hash,),
                      rpc_id=rpc_id,
                      request=RecordedRequest(op=f"op{seq}", rpc_id=rpc_id))


@pytest.fixture(params=HOSTS)
def endpoint(request, network: Network) -> WitnessEndpoint:
    """A witness host ``w0`` of one shape, not yet serving m0."""
    host = network.add_host("w0")
    transport = None
    if request.param == "colocated":
        transport = BackupServer(host, master_id="m0").transport
    endpoint = WitnessEndpoint(host, 1_000.0, slots=64, associativity=4,
                               transport=transport)
    if request.param == "shared":
        neighbour = endpoint.serve("m1")
        for h in NEIGHBOUR_HASHES:
            rpc_id = RpcId(2, h)
            neighbour.cache.record([h], rpc_id, RecordedRequest(
                op=f"m1-op{h}", rpc_id=rpc_id))
    yield endpoint
    if request.param == "shared":
        # Nothing m0 did reached its neighbour.
        assert endpoint.tenants["m1"].mode == MODE_NORMAL
        assert endpoint.tenants["m1"].cache.occupied_slots() \
            == len(NEIGHBOUR_HASHES)


@pytest.fixture
def setup(endpoint: WitnessEndpoint, network: Network):
    witness = endpoint.serve("m0")
    caller = RpcTransport(network.add_host("caller"))
    return witness, caller


def test_record_accept_and_reject(setup, sim):
    witness, caller = setup
    assert sim.run(caller.call("w0", "record", record_args(1, 1))) \
        == RECORD_ACCEPTED
    assert sim.run(caller.call("w0", "record", record_args(1, 2))) \
        == RECORD_REJECTED


def test_record_wrong_master_rejected(setup, sim):
    """§4.1: witnesses only record for the master they were started
    for — this stops clients recording to incorrect witnesses."""
    _witness, caller = setup
    assert sim.run(caller.call("w0", "record",
                               record_args(1, 1, master="other"))) \
        == RECORD_REJECTED


def test_unconfigured_witness_rejects(endpoint, sim, network):
    caller = RpcTransport(network.add_host("caller"))
    assert sim.run(caller.call("w0", "record", record_args(1, 1))) \
        == RECORD_REJECTED


def test_get_recovery_data_freezes_witness(setup, sim):
    """§4.1: getRecoveryData irreversibly moves the witness to recovery
    mode; later records are rejected (zombie-client protection §4.7)."""
    witness, caller = setup
    sim.run(caller.call("w0", "record", record_args(1, 1)))
    data = sim.run(caller.call("w0", "get_recovery_data",
                               GetRecoveryDataArgs(master_id="m0")))
    assert [r.op for r in data] == ["op1"]
    assert witness.mode == MODE_RECOVERY
    assert sim.run(caller.call("w0", "record", record_args(2, 2))) \
        == RECORD_REJECTED
    # Duplicate getRecoveryData still works and returns the same data.
    again = sim.run(caller.call("w0", "get_recovery_data",
                                GetRecoveryDataArgs(master_id="m0")))
    assert [r.op for r in again] == ["op1"]


def test_get_recovery_data_wrong_master_errors(setup, sim):
    witness, caller = setup
    with pytest.raises(AppError):
        sim.run(caller.call("w0", "get_recovery_data",
                            GetRecoveryDataArgs(master_id="other")))
    assert witness.mode == MODE_NORMAL  # unaffected


def test_gc_drops_and_reports(setup, sim):
    witness, caller = setup
    args1 = record_args(1, 1)
    sim.run(caller.call("w0", "record", args1))
    stale = sim.run(caller.call("w0", "gc",
                                GcArgs(master_id="m0",
                                       pairs=((1, args1.rpc_id),))))
    assert stale == ()
    assert witness.cache.occupied_slots() == 0


def test_gc_in_recovery_mode_errors(setup, sim):
    _witness, caller = setup
    sim.run(caller.call("w0", "get_recovery_data",
                        GetRecoveryDataArgs(master_id="m0")))
    with pytest.raises(AppError) as err:
        sim.run(caller.call("w0", "gc", GcArgs(master_id="m0", pairs=())))
    assert err.value.code == "WRONG_WITNESS_STATE"


def test_gc_from_wrong_master_errors(setup, sim):
    witness, caller = setup
    args1 = record_args(1, 1)
    sim.run(caller.call("w0", "record", args1))
    with pytest.raises(AppError) as err:
        sim.run(caller.call("w0", "gc",
                            GcArgs(master_id="other",
                                   pairs=((1, args1.rpc_id),))))
    assert err.value.code == "WRONG_WITNESS_STATE"
    assert witness.cache.occupied_slots() == 1  # nothing dropped
    assert witness.gcs_processed == 0


def test_probe_commutativity(setup, sim):
    """§A.1: probe tells readers whether a backup value can be stale."""
    _witness, caller = setup
    sim.run(caller.call("w0", "record", record_args(5, 1)))
    assert sim.run(caller.call("w0", "probe",
                               ProbeArgs(master_id="m0", key_hashes=(5,)))) \
        == PROBE_CONFLICT
    assert sim.run(caller.call("w0", "probe",
                               ProbeArgs(master_id="m0", key_hashes=(6,)))) \
        == PROBE_COMMUTE


def test_probe_conservative_when_not_normal(setup, sim):
    _witness, caller = setup
    sim.run(caller.call("w0", "get_recovery_data",
                        GetRecoveryDataArgs(master_id="m0")))
    assert sim.run(caller.call("w0", "probe",
                               ProbeArgs(master_id="m0", key_hashes=(6,)))) \
        == PROBE_CONFLICT


def test_end_then_start_begins_fresh_life(setup, endpoint, sim):
    """§4.1: ``end`` decommissions a master's witness; ``start`` begins
    a fresh normal-mode life for a master, the ended one included."""
    _witness, caller = setup
    sim.run(caller.call("w0", "record", record_args(1, 1)))
    sim.run(caller.call("w0", "get_recovery_data",
                        GetRecoveryDataArgs(master_id="m0")))
    sim.run(caller.call("w0", "end", GetRecoveryDataArgs(master_id="m0")))
    assert "m0" not in endpoint.tenants
    assert sim.run(caller.call("w0", "record", record_args(1, 2))) \
        == RECORD_REJECTED
    for master in ("m2", "m0"):
        sim.run(caller.call("w0", "start", StartArgs(master_id=master)))
        assert endpoint.tenants[master].mode == MODE_NORMAL
        assert endpoint.tenants[master].cache.occupied_slots() == 0
        assert sim.run(caller.call("w0", "record",
                                   record_args(1, 9, master=master))) \
            == RECORD_ACCEPTED


def test_witness_storage_survives_crash_restart(setup, sim, network):
    """§3.2.2: witness data lives in non-volatile memory."""
    _witness, caller = setup
    sim.run(caller.call("w0", "record", record_args(1, 1)))
    network.hosts["w0"].crash()
    network.hosts["w0"].restart()
    data = sim.run(caller.call("w0", "get_recovery_data",
                               GetRecoveryDataArgs(master_id="m0")))
    assert len(data) == 1


def test_record_time_is_charged(endpoint, sim, network):
    endpoint.record_time = 1.5
    endpoint.serve("m0")
    caller = RpcTransport(network.add_host("caller"))
    assert sim.run(caller.call("w0", "record", record_args(1, 1))) \
        == RECORD_ACCEPTED
    assert sim.now == 5.5  # 2 + 1.5 + 2


def test_counters(setup, sim):
    witness, caller = setup
    sim.run(caller.call("w0", "record", record_args(1, 1)))
    sim.run(caller.call("w0", "record", record_args(1, 2)))
    sim.run(caller.call("w0", "gc", GcArgs(master_id="m0", pairs=())))
    assert witness.records_processed == 2
    assert witness.gcs_processed == 1


@pytest.mark.parametrize("builder_kwargs", [
    {},
    {"colocate_witnesses": True},
    {"n_masters": 2, "multi_tenant_witnesses": True},
], ids=HOSTS)
def test_start_for_another_master_keeps_this_masters_witness(builder_kwargs):
    """``start(X)`` on a host begins X's life there and leaves master
    Y's witness — its mode and its records — as it was.  A record left
    for Y cannot complete an update once Y's list drops the host (Y's
    master rejects the stale list version), and recovery replays only
    from Y's current list, so keeping it is safe."""
    cluster = build_cluster(CurpConfig(f=1, mode=ReplicationMode.CURP),
                            **builder_kwargs)
    transport = cluster.coordinator.transport
    host = cluster.witness_hosts["m0"][0]

    def script():
        accepted = yield transport.call(host, "record", record_args(1, 1),
                                        timeout=1_000.0)
        yield transport.call(host, "start", StartArgs(master_id="m9"),
                             timeout=1_000.0)
        data = yield transport.call(host, "get_recovery_data",
                                    GetRecoveryDataArgs(master_id="m0"),
                                    timeout=1_000.0)
        return accepted, data
    accepted, data = cluster.run(script())
    assert accepted == RECORD_ACCEPTED
    assert [r.op for r in data] == ["op1"]
