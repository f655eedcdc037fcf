"""RIFL: Reusable Infrastructure For Linearizability (Lee et al., SOSP'15).

The exactly-once RPC substrate CURP depends on (§3.3, §4.8).  Clients
stamp every update RPC with a unique :class:`~repro.rifl.ids.RpcId`
(lease-backed client id + per-client sequence number) and piggyback an
acknowledgment of their oldest incomplete RPC.  Servers keep durable
*completion records* so a retried or witness-replayed RPC is answered
from the record instead of re-executing: every backend's intake is
:meth:`ResultRegistry.admit`.

CURP-specific modifications (paper §4.8), both implemented here:

1. piggybacked acknowledgments must be **ignored during witness
   replay** (replays arrive in arbitrary order, so a later request's
   ack could erase the completion record a replayed earlier request
   needs) — the one replay, :func:`repro.core.curp.replay`, brackets
   itself in the registry's recovery mode;
2. masters must **sync to backups before expiring a client lease**
   (otherwise replay of the expired client's requests would be
   silently ignored) — enforced by the master's lease-expiry hook.
"""

from repro.rifl.ids import RpcId, TxnId
from repro.rifl.lease import LeaseServer
from repro.rifl.client_tracker import RiflClientTracker
from repro.rifl.result_registry import CompletionRecord, DuplicateState, ResultRegistry

__all__ = [
    "CompletionRecord",
    "DuplicateState",
    "LeaseServer",
    "ResultRegistry",
    "RiflClientTracker",
    "RpcId",
    "TxnId",
]
