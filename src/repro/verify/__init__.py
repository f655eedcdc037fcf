"""Linearizability verification.

The paper's central claim is that CURP keeps updates *linearizable*
while completing them in 1 RTT (§3.4).  This package checks that claim
mechanically:

- :class:`~repro.verify.history.History` — invoke/response logs from
  concurrent simulated clients (crashes included); each ``OpRecord``
  carries the kvstore ``Operation`` itself.
- :func:`~repro.verify.checker.check_linearizable` — a Wing & Gong
  search whose one sequential specification is the store's own
  ``KVStore.execute``, run once per connected component of the records'
  keys (P-compositionality; a multi-key write stays one atomic step).

Integration and property tests crash masters mid-workload, recover
them, and assert every surviving history is linearizable.
"""

from repro.verify.history import History, OpRecord
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
    "History",
    "HistoryClient",
    "LinearizabilityError",
    "OpRecord",
    "RecordedTransaction",
    "TxnTrace",
    "audit_atomicity",
    "check_linearizable",
]
