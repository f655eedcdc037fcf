"""Client-side RIFL bookkeeping: sequence numbers and acknowledgments."""

from __future__ import annotations

from repro.rifl.ids import RpcId, TxnId


class RiflClientTracker:
    """Tracks one client's outstanding update RPCs.

    ``first_incomplete`` is the smallest sequence number whose RPC the
    client has not yet completed; it is piggybacked on every request so
    servers can garbage collect completion records for everything below
    it (paper §4.8).
    """

    def __init__(self, client_id: int):
        self.client_id = client_id
        self._next_seq = 0
        self._outstanding: set[int] = set()

    def new_rpc(self) -> RpcId:
        """Allocate the id for a new update RPC."""
        self._next_seq += 1
        self._outstanding.add(self._next_seq)
        return RpcId(self.client_id, self._next_seq)

    def new_transaction(self, n: int) -> tuple[TxnId, tuple[RpcId, ...]]:
        """Allocate ids for one cross-shard transaction attempt (§B.2):
        a :class:`TxnId` naming the attempt plus ``n`` consecutive
        RpcIds, one per participant shard's prepare.  All ``n`` RpcIds
        are outstanding until the per-shard operations complete, so
        ``first_incomplete`` (and therefore server-side completion-
        record gc) holds below the transaction until it resolves."""
        if n < 1:
            raise ValueError(f"new_transaction requires n >= 1: {n}")
        rpc_ids = tuple(self.new_rpc() for _ in range(n))
        txn_id = TxnId(self.client_id, rpc_ids[0].seq)
        return txn_id, rpc_ids

    def completed(self, rpc_id: RpcId) -> None:
        """The RPC's result has been externalized to the application."""
        if rpc_id.client_id != self.client_id:
            raise ValueError(f"rpc {rpc_id} does not belong to client "
                             f"{self.client_id}")
        self._outstanding.discard(rpc_id.seq)

    @property
    def first_incomplete(self) -> int:
        """Smallest seq not yet completed (= ack level to piggyback)."""
        if not self._outstanding:
            return self._next_seq + 1
        return min(self._outstanding)
