"""History-collecting client wrapper.

Wraps a :class:`~repro.core.client.CurpClient` so every operation is
recorded as an invoke/response pair in a :class:`History`.  Operations
that never complete (client crash, retries exhausted) stay *pending*,
which the checker treats as may-or-may-not-have-happened — exactly the
paper's §3.4 reading of a client crash.
"""

from __future__ import annotations

from repro.core.client import ClientGaveUp, CurpClient
from repro.kvstore.operations import Operation, Read
from repro.verify.history import History


class HistoryClient:
    """Records every operation a client performs into a shared history."""

    def __init__(self, client: CurpClient, history: History):
        self.client = client
        self.history = history
        self.sim = client.sim

    def update(self, op: Operation):
        """Generator: perform + record an update; pending on give-up."""
        record = self.history.begin(self.client.tracker.client_id, op,
                                    self.sim.now)
        try:
            outcome = yield from self.client.update(op)
        except ClientGaveUp:
            return None  # stays pending
        self.history.complete(record, outcome.result, self.sim.now)
        return outcome

    def read(self, key: str):
        """Generator: perform + record a linearizable read."""
        record = self.history.begin(self.client.tracker.client_id,
                                    Read(key), self.sim.now)
        try:
            value = yield from self.client.read(key)
        except ClientGaveUp:
            return None
        self.history.complete(record, value, self.sim.now)
        return value
