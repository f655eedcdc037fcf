"""Multi-key verification for transactions (§A.3 / §B.2).

:class:`RecordedTransaction` hooks the per-shard write and
compensation paths of :class:`~repro.core.transactions.Transaction`
so every state-changing step lands in the shared :class:`History` as
one ``MultiWrite`` per applied slice, which the checker searches as one
atomic step (so it checks a one-shard commit's atomicity itself):

- an **applied prepare** (a saga's ``TxnPrepare``, or a one-shard
  commit's ``ConditionalMultiWrite``) writes its non-``KEEP`` items
  (invoke at fan-out, complete when the shard acked);
- a **compensation** restores the keys it ``UNDONE`` (``None`` for a
  key the prepare created); with its outcome unknown it stays one
  pending restore per key, as each may be undone or superseded;
- a prepare that MISMATCHed (no effects) or never left the client is
  *removed* from the history;
- a prepare whose outcome is unknown (client gave up mid-crash) stays
  **pending** — the checker may linearize it anywhere after the
  invocation or drop it, the §3.4 treatment of a client crash, and
  right for a witnessed prepare that recovery may yet replay.

The compensation is program-ordered after the prepare, so a later read
observing an aborted value has no legal linearization.
:func:`audit_atomicity` adds the *cross*-shard check: a committed
transaction must have applied on **every** shard (no torn multi-shard
write), and an aborted one must have unwound (or confirmed superseded)
every key it prepared.
"""

from __future__ import annotations

import dataclasses

from repro.core.client import ClientGaveUp
from repro.core.transactions import Transaction
from repro.kvstore.operations import KEEP, MultiWrite, Write
from repro.verify.history import History


class AtomicityError(AssertionError):
    """A transaction committed torn or left residue."""


class RecordedTransaction(Transaction):
    """A transaction whose effects are history-recorded."""

    def __init__(self, client, history: History, ordered: bool = False):
        super().__init__(client, ordered=ordered)
        self.history = history
        #: keys whose prepare applied (shard acked OK)
        self.applied_keys: set[str] = set()
        #: key → "UNDONE" | "SUPERSEDED" from compensations
        self.unwound: dict[str, str] = {}

    def _begin_write(self, items):
        return self.history.begin(self.client.tracker.client_id,
                                  MultiWrite(items=tuple(items)),
                                  self.client.sim.now)

    def _prepare_one(self, op, rpc_id):
        items = [(key, value) for key, value, _expected in op.items
                 if value is not KEEP]  # KEEP: validate-only, no effect
        record = self._begin_write(items) if items else None
        outcome = yield from super()._prepare_one(op, rpc_id)
        if record is None:
            return outcome
        status, payload = outcome
        if status == "ok" and payload.result[0] == "OK":
            self.history.complete(record, None, self.client.sim.now)
            self.applied_keys.update(key for key, _value in items)
        elif status == "ok" or not isinstance(payload, ClientGaveUp):
            # MISMATCH (no effects) or the rpc was never sent: the
            # write did not happen — drop it from the history.
            self.history.records.remove(record)
        # else: ClientGaveUp — outcome unknown, the record stays pending.
        return outcome

    def _compensate_one(self, txn_id, undo):
        restores = [(key, None if old_version == 0 else old_value)
                    for key, old_value, old_version, _prepared in undo]
        record = self._begin_write(restores)
        try:
            outcome = yield from super()._compensate_one(txn_id, undo)
        except (ClientGaveUp, ValueError, KeyError):
            # commit() marks the shard in doubt.  Each key may have been
            # UNDONE or SUPERSEDED: one pending restore per key.
            self.history.records.remove(record)
            self.history.records.extend(
                dataclasses.replace(record, op=Write(key, value))
                for key, value in restores)
            raise
        disposition = dict(outcome.result[1])
        self.unwound.update((key, disposition.get(key, "SUPERSEDED"))
                            for key, _value in restores)
        # SUPERSEDED: a later committed write already replaced the
        # prepared value; the compensation wrote nothing there.
        undone = tuple(item for item in restores
                       if self.unwound[item[0]] == "UNDONE")
        if undone:
            record.op = MultiWrite(items=undone)
            self.history.complete(record, None, self.client.sim.now)
        else:
            self.history.records.remove(record)
        return outcome


@dataclasses.dataclass
class TxnTrace:
    """One driven transaction attempt plus its observed fate.

    ``status`` is what the *driver* observed: ``"committed"`` (commit
    returned), ``"aborted"`` (:class:`TransactionAborted`), or
    ``"unknown"`` (:class:`TransactionInDoubt`, client crash — treated
    leniently, the §3.4 reading)."""

    txn: RecordedTransaction
    status: str


def audit_atomicity(traces) -> list[str]:
    """Cross-key all-or-nothing audit; returns violation strings.

    - a **committed** transaction must have applied its write on every
      staged key and unwound none of them (a torn multi-shard commit
      shows up here even when each shard's records linearize);
    - an **aborted** transaction must have unwound (or confirmed
      superseded) every key whose prepare applied;
    - an **unknown** transaction is skipped — its pending history
      records already let the checker consider both outcomes.
    """
    violations = []
    for trace in traces:
        txn, status = trace.txn, trace.status
        staged = set(txn._writes)
        if status == "committed":
            missing = staged - txn.applied_keys
            if missing:
                violations.append(
                    f"torn commit: staged {sorted(staged)} but only "
                    f"{sorted(txn.applied_keys)} applied "
                    f"(missing {sorted(missing)})")
            if txn.unwound:
                violations.append(
                    f"committed transaction was unwound on "
                    f"{sorted(txn.unwound)}")
        elif status == "aborted":
            residue = txn.applied_keys - set(txn.unwound)
            if residue:
                violations.append(
                    f"aborted transaction left residue on "
                    f"{sorted(residue)}")
        elif status != "unknown":
            violations.append(f"unrecognized status {status!r}")
    return violations
