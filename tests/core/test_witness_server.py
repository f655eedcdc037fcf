"""Unit tests for the witness RPC server (Figure 4 API)."""

from __future__ import annotations

import pytest

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
from repro.core.witness import (
    MODE_NORMAL,
    MODE_RECOVERY,
    MODE_UNCONFIGURED,
    WitnessServer,
)
from repro.net import Network
from repro.rifl import RpcId
from repro.rpc import AppError, RpcTransport
from repro.sim import Simulator


@pytest.fixture
def setup(sim: Simulator, network: Network):
    witness = WitnessServer(network.add_host("w0"), slots=64, associativity=4)
    witness.start_for("m0")
    caller = RpcTransport(network.add_host("caller"))
    return witness, caller


def record_args(key_hash: int, seq: int, master="m0") -> RecordArgs:
    rpc_id = RpcId(1, seq)
    return RecordArgs(master_id=master, key_hashes=(key_hash,),
                      rpc_id=rpc_id,
                      request=RecordedRequest(op=f"op{seq}", rpc_id=rpc_id))


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


def test_unconfigured_witness_rejects(sim, network):
    WitnessServer(network.add_host("w0"), slots=64, associativity=4)
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


def test_start_begins_fresh_life(setup, sim):
    """§4.1: after end/start the witness serves a different master."""
    witness, caller = setup
    sim.run(caller.call("w0", "record", record_args(1, 1)))
    sim.run(caller.call("w0", "get_recovery_data",
                        GetRecoveryDataArgs(master_id="m0")))
    sim.run(caller.call("w0", "end", None))
    assert witness.mode == MODE_UNCONFIGURED
    sim.run(caller.call("w0", "start", StartArgs(master_id="m1")))
    assert witness.mode == MODE_NORMAL
    assert witness.cache.occupied_slots() == 0
    assert sim.run(caller.call("w0", "record",
                               record_args(1, 9, master="m1"))) \
        == RECORD_ACCEPTED


def test_witness_storage_survives_crash_restart(setup, sim):
    """§3.2.2: witness data lives in non-volatile memory."""
    witness, caller = setup
    sim.run(caller.call("w0", "record", record_args(1, 1)))
    witness.host.crash()
    witness.host.restart()
    data = sim.run(caller.call("w0", "get_recovery_data",
                               GetRecoveryDataArgs(master_id="m0")))
    assert len(data) == 1


def test_record_time_is_charged(sim, network):
    witness = WitnessServer(network.add_host("w0"), slots=64,
                            associativity=4, record_time=1.5)
    witness.start_for("m0")
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
