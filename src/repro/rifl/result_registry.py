"""Server-side completion records and duplicate filtering.

The registry answers one question before a server executes an update:
*have I already executed this RpcId?*  Completion records are created
atomically with the update itself (they travel inside the replicated
log entries, giving the atomic durability the paper notes in §3.3) and
are garbage collected by client acknowledgments.
:meth:`ResultRegistry.admit` is the intake of all three backends.

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

from repro.rifl.ids import RpcId
from repro.rpc.errors import AppError


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
    def admit(self, rpc_id, ack_seq: int, durable_position: int):
        """The RIFL intake of an update RPC (§3.3): apply the piggybacked
        ack (not during replay, §4.8), then return ``None`` for a new RPC
        or ``(saved result, synced)`` for a duplicate, synced if its log
        position is ≤ ``durable_position``; a stale one raises
        ``AppError("STALE_RPC")``."""
        client_id = rpc_id.client_id
        ack_level = self._ack_level.get(client_id, 1)
        client_records = self._records.get(client_id)
        if ack_seq > ack_level and not self._in_recovery:
            self._ack_level[client_id] = ack_level = ack_seq
            if client_records:
                for seq in [seq for seq in client_records if seq < ack_seq]:
                    del client_records[seq]
        if client_records:
            record = client_records.get(rpc_id.seq)
            if record is not None:
                return (record.result,
                        record.log_position <= durable_position)
        if rpc_id.seq < ack_level:
            raise AppError("STALE_RPC", {"rpc_id": str(rpc_id)})
        return None

    def check(self, rpc_id) -> tuple[DuplicateState, typing.Any]:
        """Classify an RPC without touching the ack level; returns
        (state, saved result)."""
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

    def sync_target(self, rpc_id, log_end: int) -> int:
        """Log position a client's ``sync`` RPC (§3.2.1) waits for: its
        own update's entry, or ``log_end`` for ``None``.  A sync is
        prefix-durable, and a ``synced=False`` reply means the update
        commuted with every earlier unsynced entry (§4.3), so no later
        entry is needed.  An RpcId with no record here is an update this
        server does not hold (a crash lost it): ``UNKNOWN_RPC``, and the
        client resends it, never acknowledging a write no state holds."""
        if rpc_id is None:
            return log_end
        record = self.get(rpc_id)
        if record is None:
            raise AppError("UNKNOWN_RPC", {"rpc_id": str(rpc_id)})
        return record.log_position

    def record_count(self) -> int:
        """Completion records held, over all clients."""
        return sum(len(recs) for recs in self._records.values())

    def records(self) -> typing.Iterator[CompletionRecord]:
        """Every completion record held, over all clients."""
        for client_records in self._records.values():
            yield from client_records.values()

    # ------------------------------------------------------------------
    # garbage collection
    # ------------------------------------------------------------------
    def process_ack(self, client_id: int, first_incomplete: int) -> None:
        """:meth:`admit`'s ack half alone (a seq no client reaches).  No
        caller in ``src/``: the frozen e2e tracer names it."""
        self.admit(RpcId(client_id, 2 ** 63), first_incomplete, 0)

    # ------------------------------------------------------------------
    # recovery support
    # ------------------------------------------------------------------
    def begin_recovery(self) -> None:
        """Enter witness-replay mode: piggybacked acks are ignored."""
        self._in_recovery = True

    def end_recovery(self) -> None:
        self._in_recovery = False
