"""The in-memory object store.

Executes operations against versioned objects and appends their effects
to the :class:`~repro.kvstore.log.Log`.  Each object remembers the log
position and wall-clock (simulated) time of its last mutation:

- position vs the master's last-synced position answers *"is this value
  replicated yet?"* — the log-structure method of §4.3;
- the update timestamp drives the hot-key preemptive-sync heuristic of
  §4.4.
"""

from __future__ import annotations

import dataclasses
import typing

from repro.kvstore.log import Log, LogEntry, TOMBSTONE
from repro.kvstore.operations import (
    ConditionalMultiWrite,
    ConditionalWrite,
    Delete,
    Increment,
    KEEP,
    MultiWrite,
    Operation,
    Read,
    TxnCompensate,
    TxnPrepare,
    Write,
)


@dataclasses.dataclass(slots=True)
class StoredObject:
    value: typing.Any
    version: int
    #: log position of the last mutation of this key
    position: int
    #: simulated time of the last mutation (hot-key heuristic, §4.4)
    updated_at: float


class KVStore:
    """Versioned object store + ordered log for one master."""

    def __init__(self) -> None:
        self.log = Log()
        self._objects: dict[str, StoredObject] = {}
        #: version counters survive deletes so ConditionalWrite can't be
        #: fooled by delete/re-create cycles
        self._versions: dict[str, int] = {}
        #: post-recovery versions start above this floor (anti-ABA: a
        #: lost unsynced write's version must never be reissued for a
        #: different value — RAMCloud's "safeVersion" idea)
        self._version_floor = 0
        #: highest version ever issued (drives the recovery floor)
        self.max_version_seen = 0
        #: txn_id → undo records of prepared-but-unresolved cross-shard
        #: transaction slices (§B.2).  Advisory bookkeeping only: the
        #: *client* carries the undo data in the prepare result, so a
        #: master that crashes and forgets this map loses nothing —
        #: compensation and resolution both tolerate a missing entry.
        self.pending_txns: dict[typing.Any, tuple] = {}
        #: key → (txn_id, prepared_version) while a prepare's write is
        #: the key's *current* value.  CAS-family operations from other
        #: transactions refuse to validate against such a version — a
        #: commit built on it would bake an aborted transaction's value
        #: into committed state when the compensation later skips the
        #: key as SUPERSEDED (the saga dirty-read anomaly).
        self._pending_keys: dict[str, tuple[typing.Any, int]] = {}

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def execute(self, op: Operation, rpc_id: typing.Any = None,
                now: float = 0.0) -> tuple[typing.Any, LogEntry | None]:
        """Execute; returns (result, log entry or None for reads)."""
        if isinstance(op, Read):
            return self.read(op.key), None
        if isinstance(op, Write):
            effects = ((op.key, op.value, self._bump(op.key)),)
            result = self._versions[op.key]
        elif isinstance(op, Increment):
            current = self.read(op.key)
            if current is None:
                current = 0
            if not isinstance(current, int):
                raise TypeError(f"INCREMENT on non-integer value at {op.key!r}")
            new_value = current + op.delta
            effects = ((op.key, new_value, self._bump(op.key)),)
            result = new_value
        elif isinstance(op, ConditionalWrite):
            current_version = self.version(op.key)
            if self._pending_conflicts(((op.key, None, None),)):
                effects = ()
                result = ("MISMATCH", current_version)
            elif current_version != op.expected_version:
                # Rejected CAS: no effects, but still logged so the RIFL
                # completion record is durable.
                effects = ()
                result = ("MISMATCH", current_version)
            else:
                effects = ((op.key, op.value, self._bump(op.key)),)
                result = ("OK", self._versions[op.key])
        elif isinstance(op, Delete):
            if op.key in self._objects:
                effects = ((op.key, TOMBSTONE, self._bump(op.key)),)
            else:
                effects = ()
            result = True
        elif isinstance(op, MultiWrite):
            effects = tuple((key, value, self._bump(key))
                            for key, value in op.items)
            result = tuple(self._versions[key] for key, _ in op.items)
        elif isinstance(op, TxnPrepare):
            mismatches = tuple(
                (key, self.version(key))
                for key, _value, expected in op.items
                if self.version(key) != expected)
            mismatches += self._pending_conflicts(op.items, op.txn_id)
            if mismatches:
                effects = ()
                result = ("MISMATCH", mismatches)
            else:
                undo = []
                effect_list = []
                for key, value, _expected in op.items:
                    if value is KEEP:
                        continue
                    old_value = self.read(key)
                    old_version = self.version(key)
                    new_version = self._bump(key)
                    effect_list.append((key, value, new_version))
                    undo.append((key, old_value, old_version, new_version))
                effects = tuple(effect_list)
                undo = tuple(undo)
                self.pending_txns[op.txn_id] = undo
                for key, _old, _old_version, new_version in undo:
                    self._pending_keys[key] = (op.txn_id, new_version)
                result = ("OK", undo)
        elif isinstance(op, TxnCompensate):
            effect_list = []
            disposition = []
            for key, old_value, old_version, prepared in op.items:
                marker = self._pending_keys.get(key)
                if marker is not None and marker[0] == op.txn_id:
                    del self._pending_keys[key]
                if self.version(key) != prepared:
                    # A later committed write superseded the prepared
                    # value: leave it (compensation never clobbers).
                    disposition.append((key, "SUPERSEDED"))
                    continue
                restored = TOMBSTONE if old_version == 0 else old_value
                effect_list.append((key, restored, self._bump(key)))
                disposition.append((key, "UNDONE"))
            effects = tuple(effect_list)
            self.pending_txns.pop(op.txn_id, None)
            result = ("OK", tuple(disposition))
        elif isinstance(op, ConditionalMultiWrite):
            mismatches = tuple(
                (key, self.version(key))
                for key, _value, expected in op.items
                if self.version(key) != expected)
            mismatches += self._pending_conflicts(op.items)
            if mismatches:
                effects = ()
                result = ("MISMATCH", mismatches)
            else:
                effects = tuple((key, value, self._bump(key))
                                for key, value, _expected in op.items
                                if value is not KEEP)
                result = ("OK", tuple(self._versions[key]
                                      for key, _v, _e in op.items))
        else:
            raise TypeError(f"unknown operation type: {type(op).__name__}")
        entry = self.log.append(effects, rpc_id, result, timestamp=now)
        self._apply_effects(entry)
        return result, entry

    def _bump(self, key: str) -> int:
        new_version = max(self._versions.get(key, 0),
                          self._version_floor) + 1
        self._versions[key] = new_version
        self.max_version_seen = max(self.max_version_seen, new_version)
        return new_version

    def _pending_conflicts(self, items, txn_id: typing.Any = None) \
            -> tuple[tuple[str, int], ...]:
        """Keys in ``items`` whose current version was written by a
        prepared-but-unresolved *other* transaction.  A stale marker
        (the prepared value already superseded by a committed write) is
        not a conflict — validating against the newer version is safe,
        and this is what un-wedges a key whose ``txn_resolve`` was
        lost."""
        if not self._pending_keys:
            return ()
        conflicts = []
        for key, _value, _expected in items:
            marker = self._pending_keys.get(key)
            if marker is None:
                continue
            owner, prepared_version = marker
            if owner != txn_id and self.version(key) == prepared_version:
                conflicts.append((key, prepared_version))
        return tuple(conflicts)

    def resolve_txn(self, txn_id: typing.Any) -> bool:
        """Drop the pending bookkeeping for a committed cross-shard
        transaction (the client's fire-and-forget ``txn_resolve``).
        Tolerates an unknown id — a recovered master never rebuilds the
        map, and resolution is purely advisory."""
        undo = self.pending_txns.pop(txn_id, None)
        if undo is None:
            return False
        for key, _old, _old_version, _new_version in undo:
            marker = self._pending_keys.get(key)
            if marker is not None and marker[0] == txn_id:
                del self._pending_keys[key]
        return True

    def raise_version_floor(self, floor: int) -> None:
        """All future versions exceed ``floor``.

        Called by crash recovery: speculative writes lost in the crash
        consumed version numbers above what the backups recorded; a
        recovered master must not reissue those numbers for different
        values, or a conditional write prepared against the old value
        could commit against the new one (ABA)."""
        self._version_floor = max(self._version_floor, floor)

    def _apply_effects(self, entry: LogEntry) -> None:
        for key, value, version in entry.effects:
            if value is TOMBSTONE:
                self._objects.pop(key, None)
            else:
                self._objects[key] = StoredObject(
                    value=value, version=version, position=entry.index,
                    updated_at=entry.timestamp)
            self._versions[key] = max(self._versions.get(key, 0), version)
            self.max_version_seen = max(self.max_version_seen, version)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def read(self, key: str) -> typing.Any:
        obj = self._objects.get(key)
        return None if obj is None else obj.value

    def version(self, key: str) -> int:
        obj = self._objects.get(key)
        # Missing and deleted keys read as version 0; the version counter
        # itself survives deletes (see _bump) so re-created objects get a
        # strictly larger version than any the key has ever had.
        return 0 if obj is None else obj.version

    def last_position_of(self, key: str) -> int:
        """Log position of the key's last mutation (0 = never/synced-out)."""
        obj = self._objects.get(key)
        return 0 if obj is None else obj.position

    def last_update_time_of(self, key: str) -> float | None:
        obj = self._objects.get(key)
        return None if obj is None else obj.updated_at

    def is_unsynced(self, key: str, synced_position: int) -> bool:
        """§4.3 check: was this key mutated after the last backup sync?

        Deleted keys are conservatively considered synced (their
        tombstone entry is found via the log when syncing).
        """
        return self.last_position_of(key) > synced_position

    def key_count(self) -> int:
        return len(self._objects)

    def keys(self) -> typing.Iterable[str]:
        return self._objects.keys()

    def install(self, key: str, value: typing.Any, version: int,
                now: float = 0.0) -> LogEntry:
        """Install an object with an explicit version (data migration).

        The receiving master of a migration (§3.6) must preserve object
        versions from the source master so ConditionalWrite semantics
        survive the move; a plain Write would restart versions at 1.
        """
        self._versions[key] = max(self._versions.get(key, 0), version)
        entry = self.log.append(((key, value, version),), None, None,
                                timestamp=now)
        self._apply_effects(entry)
        return entry

    # ------------------------------------------------------------------
    # recovery
    # ------------------------------------------------------------------
    def rebuild_from_entries(self, entries: typing.Iterable[LogEntry]) -> int:
        """Restore state by replaying a backup's ordered log.

        Returns the highest log position restored.  The internal log is
        reconstructed too, so a recovered master continues appending at
        the right position.
        """
        if len(self.log) != 0 or self._objects:
            raise RuntimeError("rebuild_from_entries on a non-empty store")
        last = 0
        for entry in sorted(entries, key=lambda e: e.index):
            if entry.index != last + 1:
                raise ValueError(
                    f"log gap during rebuild: got {entry.index} after {last}")
            rebuilt = self.log.append(entry.effects, entry.rpc_id,
                                      entry.result, entry.timestamp)
            self._apply_effects(rebuilt)
            last = entry.index
        return last
