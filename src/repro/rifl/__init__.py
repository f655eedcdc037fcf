"""RIFL: Reusable Infrastructure For Linearizability (Lee et al., SOSP'15).

The exactly-once RPC substrate CURP depends on (§3.3, §4.8).  Clients
stamp every update RPC with a unique :class:`~repro.rifl.ids.RpcId`
(coordinator-issued client id + per-client sequence number) and piggyback an
acknowledgment of their oldest incomplete RPC.  Servers keep durable
*completion records* so a retried or witness-replayed RPC is answered
from the record instead of re-executing: every backend's intake is
:meth:`ResultRegistry.admit`.

CURP-specific modifications (paper §4.8):

1. piggybacked acknowledgments must be **ignored during witness
   replay** (replays arrive in arbitrary order, so a later request's
   ack could erase the completion record a replayed earlier request
   needs) — the one replay, :func:`repro.core.curp.replay`, brackets
   itself in the registry's recovery mode;
2. a master must **sync to backups before it expires a departed
   client's completion records** — not applicable here: clients never
   leave this model, so records are collected only by their own
   client's acknowledgments.  It returns if client churn is ever
   modelled.
"""

from repro.rifl.ids import RpcId, TxnId
from repro.rifl.client_tracker import RiflClientTracker
from repro.rifl.result_registry import CompletionRecord, DuplicateState, ResultRegistry

__all__ = [
    "CompletionRecord",
    "DuplicateState",
    "ResultRegistry",
    "RiflClientTracker",
    "RpcId",
    "TxnId",
]
