"""The master's ordered operation log.

Every update appends one entry; the entry carries the key effects (so a
backup can rebuild object state), plus the RIFL RpcId and result (so
completion records are durable *atomically* with the update, the
property §3.3 requires for exactly-once semantics across recovery).

Log positions start at 1.  "Synced position" bookkeeping lives in the
master, not here; the log only knows order.
"""

from __future__ import annotations

import dataclasses
import typing


#: sentinel value in an effect meaning "key deleted"
TOMBSTONE = object()


@dataclasses.dataclass(frozen=True, slots=True)
class LogEntry:
    """One ordered, replicated update."""

    index: int
    #: (key, new_value | TOMBSTONE, new_version) triples
    effects: tuple[tuple[str, typing.Any, int], ...]
    #: RIFL identity + result; None for internal (non-client) entries
    rpc_id: typing.Any
    result: typing.Any
    #: master clock when executed (timestamp method of §4.3)
    timestamp: float


class Log:
    """Append-only in-memory log with absolute positions."""

    def __init__(self) -> None:
        self._entries: list[LogEntry] = []

    @property
    def end(self) -> int:
        """Position of the newest entry (0 when empty)."""
        return len(self._entries)

    def append(self, effects: tuple[tuple[str, typing.Any, int], ...],
               rpc_id: typing.Any, result: typing.Any,
               timestamp: float) -> LogEntry:
        entry = LogEntry(index=len(self._entries) + 1, effects=effects,
                         rpc_id=rpc_id, result=result, timestamp=timestamp)
        self._entries.append(entry)
        return entry

    def entry(self, index: int) -> LogEntry:
        if not 1 <= index <= len(self._entries):
            raise IndexError(f"log position {index} out of range "
                             f"[1, {len(self._entries)}]")
        return self._entries[index - 1]

    def entries_after(self, position: int) -> list[LogEntry]:
        """Entries with index > position (what a sync must replicate)."""
        if position < 0:
            raise ValueError(f"negative position: {position}")
        return self._entries[position:]

    def all_entries(self) -> list[LogEntry]:
        return list(self._entries)

    def __len__(self) -> int:
        return len(self._entries)
