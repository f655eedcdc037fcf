"""Server-side completion records and duplicate filtering.

The registry answers one question before a master executes an update:
*have I already executed this RpcId?*  Completion records are created
atomically with the update itself (they travel inside the replicated
log entries, giving the atomic durability the paper notes in §3.3) and
are garbage collected by client acknowledgments or lease expiry.

States returned by :meth:`ResultRegistry.check`:

- ``NEW``: never seen — execute it.
- ``COMPLETED``: executed — return the saved result, do not re-execute.
- ``STALE``: the client already acknowledged the result, the record was
  dropped, and re-execution would be a linearizability violation; the
  request is ignored (no result available — the paper's "masters ...
  start to ignore the duplicate requests").
"""

from __future__ import annotations

import dataclasses
import enum
import typing


class DuplicateState(enum.Enum):
    NEW = "new"
    COMPLETED = "completed"
    STALE = "stale"


@dataclasses.dataclass(slots=True)
class CompletionRecord:
    """Durable record of one executed update RPC."""

    rpc_id: "typing.Any"  # RpcId; typed loosely to keep dataclass cheap
    result: typing.Any
    #: log position of the entry that created this record (for sync tags)
    log_position: int = -1


class ResultRegistry:
    """Tracks completion records for one master."""

    def __init__(self) -> None:
        #: (client_id -> {seq -> CompletionRecord})
        self._records: dict[int, dict[int, CompletionRecord]] = {}
        #: (client_id -> first seq NOT yet acknowledged); seqs below are STALE
        self._ack_level: dict[int, int] = {}
        #: §4.8 modification 1: acks are ignored during witness replay
        self._in_recovery = False

    # ------------------------------------------------------------------
    # duplicate detection
    # ------------------------------------------------------------------
    def check(self, rpc_id) -> tuple[DuplicateState, typing.Any]:
        """Classify an incoming update RPC; returns (state, saved result)."""
        client_records = self._records.get(rpc_id.client_id)
        if client_records is not None and rpc_id.seq in client_records:
            return DuplicateState.COMPLETED, client_records[rpc_id.seq].result
        if rpc_id.seq < self._ack_level.get(rpc_id.client_id, 1):
            return DuplicateState.STALE, None
        return DuplicateState.NEW, None

    def record(self, rpc_id, result: typing.Any, log_position: int = -1) -> CompletionRecord:
        """Create the completion record for a newly executed RPC."""
        record = CompletionRecord(rpc_id=rpc_id, result=result,
                                  log_position=log_position)
        self._records.setdefault(rpc_id.client_id, {})[rpc_id.seq] = record
        return record

    def get(self, rpc_id) -> CompletionRecord | None:
        return self._records.get(rpc_id.client_id, {}).get(rpc_id.seq)

    # ------------------------------------------------------------------
    # garbage collection
    # ------------------------------------------------------------------
    def process_ack(self, client_id: int, first_incomplete: int) -> int:
        """Drop records the client acknowledged; returns #dropped.

        No-op during witness replay (§4.8): replays arrive in arbitrary
        order, and a later request's piggybacked ack must not erase the
        completion record that a not-yet-replayed earlier request needs.
        """
        if self._in_recovery:
            return 0
        current = self._ack_level.get(client_id, 1)
        if first_incomplete <= current:
            return 0
        self._ack_level[client_id] = first_incomplete
        client_records = self._records.get(client_id)
        if not client_records:
            return 0
        stale = [seq for seq in client_records if seq < first_incomplete]
        for seq in stale:
            del client_records[seq]
        return len(stale)

    def expire_client(self, client_id: int) -> int:
        """Drop all records for a client whose lease lapsed.

        The caller (master) must have synced to backups first — §4.8
        modification 2; the master enforces that, not the registry.
        """
        dropped = len(self._records.pop(client_id, {}))
        # Everything from this client is ignored from now on.
        self._ack_level[client_id] = 2 ** 62
        return dropped

    # ------------------------------------------------------------------
    # recovery support
    # ------------------------------------------------------------------
    def begin_recovery(self) -> None:
        """Enter witness-replay mode: piggybacked acks are ignored."""
        self._in_recovery = True

    def end_recovery(self) -> None:
        self._in_recovery = False

    # ------------------------------------------------------------------
    # durability plumbing
    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """Serializable copy (rebuilt from the replicated log normally;
        used by tests and by whole-state backups)."""
        return {
            "records": {cid: dict(recs) for cid, recs in self._records.items()},
            "ack_level": dict(self._ack_level),
        }

    def restore(self, snapshot: dict) -> None:
        self._records = {cid: dict(recs)
                         for cid, recs in snapshot["records"].items()}
        self._ack_level = dict(snapshot["ack_level"])

    def record_count(self) -> int:
        return sum(len(recs) for recs in self._records.values())
