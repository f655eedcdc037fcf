"""Linearizability verification.

The paper's central claim is that CURP keeps updates *linearizable*
while completing them in 1 RTT (§3.4).  This package provides the
machinery to check that claim mechanically:

- :class:`~repro.verify.history.History` — invoke/response event logs
  collected from concurrent simulated clients (crashes included).
- :class:`~repro.verify.checker.check_linearizable` — a Wing & Gong
  style search with per-key partitioning (operations on different keys
  are independent in a KV store, so each key's subhistory is checked
  separately — the standard P-compositionality optimization).
- :mod:`~repro.verify.models` — sequential specifications (register,
  counter) the search executes against.

Integration and property tests crash masters mid-workload, recover
them, and assert every surviving history is linearizable.
"""

from repro.verify.history import History, OpRecord
from repro.verify.models import CounterModel, RegisterModel
from repro.verify.checker import (
    CheckerLimitExceeded,
    LinearizabilityError,
    check_linearizable,
)
from repro.verify.instrument import HistoryClient
from repro.verify.transactions import (
    AtomicityError,
    RecordedTransaction,
    TxnTrace,
    audit_atomicity,
)

__all__ = [
    "AtomicityError",
    "CheckerLimitExceeded",
    "CounterModel",
    "History",
    "HistoryClient",
    "LinearizabilityError",
    "OpRecord",
    "RecordedTransaction",
    "RegisterModel",
    "TxnTrace",
    "audit_atomicity",
    "check_linearizable",
]
