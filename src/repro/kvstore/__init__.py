"""RAMCloud-like key-value storage substrate.

The paper's primary testbed is RAMCloud: a log-structured in-memory
key-value store with primary-backup replication.  This package provides
the storage pieces CURP plugs into:

- :mod:`~repro.kvstore.operations` — the NoSQL operation vocabulary
  (write / read / increment / conditional write / delete / multi-write),
  each knowing which keys it reads and mutates, which is what makes the
  key-hash commutativity checks of §4 possible.
- :mod:`~repro.kvstore.store` — the log-structured store: every update
  appends a log entry; an object's last log position vs the last synced
  position answers "is this value synced?" exactly as §4.3 describes.
- :mod:`~repro.kvstore.backup` — backup servers that accept ordered log
  replication from a master, fence deposed masters (zombies, §4.7), and
  serve their log to a recovery master.
"""

from repro.kvstore.hashing import key_hash
from repro.kvstore.operations import (
    KEEP,
    ConditionalMultiWrite,
    ConditionalWrite,
    Delete,
    Increment,
    MultiWrite,
    Operation,
    Read,
    TxnCompensate,
    TxnPrepare,
    Write,
    commutative,
)
from repro.kvstore.log import Log, LogEntry
from repro.kvstore.store import KVStore
from repro.kvstore.wal import (
    BackupStats,
    SegmentInfo,
    SegmentedWal,
)
from repro.kvstore.backup import BackupServer

__all__ = [
    "BackupServer",
    "BackupStats",
    "SegmentInfo",
    "SegmentedWal",
    "ConditionalMultiWrite",
    "ConditionalWrite",
    "KEEP",
    "Delete",
    "Increment",
    "KVStore",
    "Log",
    "LogEntry",
    "MultiWrite",
    "Operation",
    "Read",
    "TxnCompensate",
    "TxnPrepare",
    "Write",
    "commutative",
    "key_hash",
]
