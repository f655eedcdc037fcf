"""Unique RPC identifiers."""

from __future__ import annotations

import dataclasses


@dataclasses.dataclass(frozen=True, order=True, slots=True)
class TxnId:
    """Identifies one cross-shard transaction attempt (§B.2).

    Derived from the first RpcId the attempt allocated, so it is unique
    for the same reason RpcIds are: one coordinator-issued ``client_id``
    plus that client's monotonic sequence.  Every participant shard sees
    the same TxnId; each shard's prepare still carries its own RpcId,
    which is what RIFL deduplicates.
    """

    client_id: int
    seq: int

    def __str__(self) -> str:
        return f"txn:{self.client_id}.{self.seq}"


@dataclasses.dataclass(frozen=True, order=True, slots=True)
class RpcId:
    """Identifies one linearizable RPC, globally and forever.

    ``client_id`` is allocated by the coordinator and never reused;
    ``seq`` increases by one per update RPC issued by that client.
    Ordering (lexicographic) is meaningful only within one client.
    """

    client_id: int
    seq: int

    def __str__(self) -> str:
        return f"{self.client_id}.{self.seq}"
