"""The in-memory object store.

Executes operations against versioned objects and appends their effects
to the :class:`~repro.kvstore.log.Log`.  Each key maps to the log entry
of its last mutation (RAMCloud's hash table points into its log), whose
index and timestamp are that mutation's position and simulated time:

- position vs the master's last-synced position answers *"is this value
  replicated yet?"* — the log-structure method of §4.3;
- the update timestamp drives the hot-key preemptive-sync heuristic of
  §4.4.
"""

from __future__ import annotations

import typing

from repro.kvstore.hashing import key_hash
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


class KVStore:
    """Versioned object store + ordered log for one master."""

    def __init__(self) -> None:
        self.log = Log()
        #: key → the entry that last wrote it (its effect on the key is
        #: the value and version); no slot for a missing or deleted key
        self._objects: dict[str, LogEntry] = {}
        #: ``lookup(key)``: the key's live entry or None — one probe for
        #: a caller that needs several of its fields.  The dict's own
        #: ``get``: the master's read path calls it once per read, and
        #: it costs no Python frame.
        self.lookup = self._objects.get
        #: key → the entry of its last delete: an unsynced delete holds
        #: reads and conflicts (§4.3), and a key's version counter is
        #: the version in its newest entry, live or delete, so
        #: ConditionalWrite can't be fooled by delete/re-create cycles.
        #: ``tombstone`` is the dict's own ``get``.
        self._deleted: dict[str, LogEntry] = {}
        self.tombstone = self._deleted.get
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
            result = self._bump(op.key)
            effects = ((op.key, op.value, result),)
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
                result = ("OK", effects[0][2])
        elif isinstance(op, Delete):
            if op.key in self._objects:
                effects = ((op.key, TOMBSTONE, self._bump(op.key)),)
            else:
                effects = ()
            result = True
        elif isinstance(op, MultiWrite):
            effects = tuple((key, value, self._bump(key))
                            for key, value in op.items)
            result = tuple(version for _key, _value, version in effects)
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
                # A KEEP item reports the version it validated (a
                # never-written key has no counter to read).
                written = {key: version for key, _v, version in effects}
                result = ("OK", tuple(written.get(key, expected)
                                      for key, _v, expected in op.items))
        else:
            raise TypeError(f"unknown operation type: {type(op).__name__}")
        entry = self.log.append(effects, rpc_id, result, timestamp=now)
        self._apply_effects(entry)
        return result, entry

    def _bump(self, key: str) -> int:
        counter = 0
        entry = self._objects.get(key) or self._deleted.get(key)
        if entry is not None:
            effects = entry.effects
            counter = (effects[0] if len(effects) == 1
                       else entry.effect_on(key))[2]
        new_version = max(counter, self._version_floor) + 1
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
        for key, value, _version in entry.effects:
            if value is TOMBSTONE:
                self._objects.pop(key, None)
                self._deleted[key] = entry
            else:
                self._objects[key] = entry

    def _adopt(self, entry: LogEntry) -> None:
        """Apply an entry whose versions this store did not issue
        (``install``, ``rebuild_from_entries``)."""
        for _key, _value, version in entry.effects:
            self.max_version_seen = max(self.max_version_seen, version)
        self._apply_effects(entry)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def read(self, key: str) -> typing.Any:
        entry = self._objects.get(key)
        if entry is None:
            return None
        effects = entry.effects
        return (effects[0] if len(effects) == 1 else entry.effect_on(key))[1]

    def version(self, key: str) -> int:
        entry = self._objects.get(key)
        # Missing and deleted keys read as version 0; the version counter
        # itself survives deletes (see _bump) so re-created objects get a
        # strictly larger version than any the key has ever had.
        if entry is None:
            return 0
        effects = entry.effects
        return (effects[0] if len(effects) == 1 else entry.effect_on(key))[2]

    def last_position_of(self, key: str) -> int:
        """Log position of the key's last mutation, a delete included
        (0 = never written)."""
        entry = self._objects.get(key) or self._deleted.get(key)
        return 0 if entry is None else entry.index

    def last_update_time_of(self, key: str) -> float | None:
        entry = self._objects.get(key)
        return None if entry is None else entry.timestamp

    def is_unsynced(self, key: str, synced_position: int) -> bool:
        """§4.3 check: was this key mutated (or deleted) after the last
        backup sync?"""
        return self.last_position_of(key) > synced_position

    def install(self, effects: tuple[tuple[str, typing.Any, int], ...],
                rpc_id: typing.Any, result: typing.Any,
                now: float = 0.0) -> LogEntry | None:
        """Append one entry another master logged (a tablet hand-over:
        migration or partitioned recovery, ``absorb_partition``).

        The effects keep their versions, so ConditionalWrite semantics
        survive the move, and the entry keeps its ``rpc_id`` and result,
        so the completion record moves with the data (§3.3).  An effect
        whose version is not above the key's counter is already here (a
        retried hand-over) and is dropped; returns None when that leaves
        neither an effect nor an ``rpc_id`` to log.
        """
        fresh = []
        for key, value, version in effects:
            prior = self._objects.get(key) or self._deleted.get(key)
            if version > (0 if prior is None else prior.effect_on(key)[2]):
                fresh.append((key, value, version))
        if not fresh and rpc_id is None:
            return None
        entry = self.log.append(tuple(fresh), rpc_id, result, timestamp=now)
        self._adopt(entry)
        return entry

    def newest_entries(self, lo: int, hi: int) -> list[LogEntry]:
        """Hand over every key whose hash is in [lo, hi): forget its
        object and tombstone, and return its newest entry, a write or a
        delete — one per key, so an entry that wrote several of them
        appears once per key."""
        newest: dict[str, LogEntry] = {}
        # a key both live and deleted was re-created: the live entry wins
        for table in (self._deleted, self._objects):
            for key in [key for key in table if lo <= key_hash(key) < hi]:
                newest[key] = table.pop(key)
        return list(newest.values())

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
            self._adopt(self.log.append(entry.effects, entry.rpc_id,
                                        entry.result, entry.timestamp))
            last = entry.index
        return last
