"""Multi-key verification for transactions (§A.3 / §B.2).

:class:`RecordedTransaction` hooks the per-shard write and
compensation paths of :class:`~repro.core.transactions.Transaction`
so every state-changing step lands in the shared :class:`History` as
per-key register writes:

- an **applied prepare** (a saga's ``TxnPrepare``, or a one-shard
  commit's ``ConditionalMultiWrite``) is a write of the staged value
  (invoke at fan-out, complete when the shard acked) — the same shape
  as any other write, so the existing per-key Wing&Gong search checks
  it;
- a **compensation** is a write restoring the pre-transaction value
  (``None`` for a key the prepare created);
- a prepare that MISMATCHed (no effects) or never left the client is
  *removed* from the history;
- a prepare whose outcome is unknown (client gave up mid-crash) stays
  **pending** — the checker may linearize it anywhere after the
  invocation or drop it, exactly the §3.4 treatment of a client crash,
  and exactly right for a witnessed prepare that recovery may yet
  replay.

Per-key linearizability over these records already rules out aborted
residue mechanically: the compensation write is program-ordered after
the prepare write, so any later read observing the aborted value has
no legal linearization.

:func:`audit_atomicity` adds the *cross*-key check linearizability
cannot see: a committed transaction must have applied on **every**
shard (no torn multi-shard write), and an aborted one must have
unwound (or confirmed superseded) every key it prepared.
"""

from __future__ import annotations

import dataclasses

from repro.core.client import ClientGaveUp
from repro.core.transactions import Transaction
from repro.kvstore.operations import KEEP
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

    def _begin_write(self, key: str, value):
        return self.history.begin(self.client.tracker.client_id, key,
                                  "write", value, self.client.sim.now)

    def _prepare_one(self, op, rpc_id):
        records = {}
        for key, value, _expected in op.items:
            if value is KEEP:
                continue  # validate-only: no state change to record
            records[key] = self._begin_write(key, value)
        outcome = yield from super()._prepare_one(op, rpc_id)
        status, payload = outcome
        now = self.client.sim.now
        if status == "ok" and payload.result[0] == "OK":
            for key, record in records.items():
                self.history.complete(record, None, now)
                self.applied_keys.add(key)
        elif status == "ok" or not isinstance(payload, ClientGaveUp):
            # MISMATCH (no effects) or the rpc was never sent: the
            # writes did not happen — drop them from the history.
            for record in records.values():
                self.history.records.remove(record)
        # else: ClientGaveUp — outcome unknown, records stay pending.
        return outcome

    def _compensate_one(self, txn_id, undo):
        records = {}
        for key, old_value, old_version, _prepared in undo:
            restored = None if old_version == 0 else old_value
            records[key] = self._begin_write(key, restored)
        # A ClientGaveUp propagates (commit() marks the shard in
        # doubt); the records stay pending, matching the unknown
        # on-disk outcome.
        outcome = yield from super()._compensate_one(txn_id, undo)
        now = self.client.sim.now
        disposition = dict(outcome.result[1])
        for key, record in records.items():
            if disposition.get(key) == "UNDONE":
                self.history.complete(record, None, now)
            else:
                # SUPERSEDED: a later committed write already replaced
                # the prepared value; the compensation wrote nothing.
                self.history.records.remove(record)
            self.unwound[key] = disposition.get(key, "SUPERSEDED")
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
      shows up here even when every per-key history linearizes);
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
