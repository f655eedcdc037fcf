"""Operation histories for linearizability checking."""

from __future__ import annotations

import dataclasses
import itertools
import typing


@dataclasses.dataclass(slots=True)
class OpRecord:
    """One client-observed operation.

    ``invoked_at``/``completed_at`` bound the linearization point.  An
    operation whose client crashed (or never saw the response) has
    ``completed_at=None``: the checker may linearize it anywhere after
    the invocation *or drop it entirely* — the standard treatment of
    pending operations.
    """

    client: int
    key: str
    #: "read" | "write" | "increment"
    kind: str
    #: written value / increment delta (None for reads)
    argument: typing.Any
    #: observed result (reads: the value; increments: the new value)
    result: typing.Any
    invoked_at: float
    completed_at: float | None

    @property
    def is_pending(self) -> bool:
        return self.completed_at is None


class History:
    """A set of OpRecords collected from concurrent clients.

    Discrete simulated time can make a client's next invocation
    coincide *exactly* with its previous response; under strict
    Herlihy–Wing semantics touching intervals are concurrent, which
    would let the checker reorder a single client's sequential ops.  A
    real client spends nonzero time between response and next call, so
    ``begin``/``complete`` nudge timestamps by ε to keep per-client
    program order strict.
    """

    _EPSILON = 1e-6

    def __init__(self) -> None:
        self.records: list[OpRecord] = []
        self._counter = itertools.count()
        self._client_last_end: dict[int, float] = {}

    def begin(self, client: int, key: str, kind: str,
              argument: typing.Any, now: float) -> OpRecord:
        invoked = now
        last_end = self._client_last_end.get(client)
        if last_end is not None and invoked <= last_end:
            invoked = last_end + self._EPSILON
        record = OpRecord(client=client, key=key, kind=kind,
                          argument=argument, result=None,
                          invoked_at=invoked, completed_at=None)
        self.records.append(record)
        return record

    def complete(self, record: OpRecord, result: typing.Any,
                 now: float) -> None:
        record.result = result
        record.completed_at = max(now, record.invoked_at + self._EPSILON)
        last = self._client_last_end.get(record.client, 0.0)
        self._client_last_end[record.client] = max(last,
                                                   record.completed_at)

    def by_key(self) -> dict[str, list[OpRecord]]:
        """Partition into per-key subhistories (KV ops on distinct keys
        are independent, so linearizability composes per key)."""
        partitions: dict[str, list[OpRecord]] = {}
        for record in self.records:
            partitions.setdefault(record.key, []).append(record)
        return partitions

    def __len__(self) -> int:
        return len(self.records)
