"""The object table against the algorithm it replaced.

``KVStore`` keeps each write once: a key maps to the log entry that last
wrote or deleted it, and that entry's version is the key's counter.
``_ReferenceStore`` is the earlier algorithm: a ``StoredObject`` copy of
every write and a ``_versions`` counter per key (its ``install`` follows
the one hand-over: an effect at or below the key's counter is dropped).
Both run the same steps and must agree on every result and every public
read after each one.
"""

from __future__ import annotations

import dataclasses
import typing

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kvstore import KVStore
from repro.kvstore.log import TOMBSTONE, LogEntry
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
)


@dataclasses.dataclass(slots=True)
class StoredObject:
    value: typing.Any
    version: int
    #: log position of the last mutation of this key
    position: int
    #: simulated time of the last mutation (hot-key heuristic, §4.4)
    updated_at: float


#: a never-written key: no value, version 0, synced by definition
ABSENT = StoredObject(value=None, version=0, position=0, updated_at=0.0)


class _ReferenceStore(KVStore):
    """``KVStore`` before the object table pointed into the log.  The
    transaction bookkeeping (``_pending_conflicts``, ``resolve_txn``)
    and ``raise_version_floor`` did not change and are inherited."""

    def __init__(self) -> None:
        super().__init__()
        self._objects: dict[str, StoredObject] = {}
        self._versions: dict[str, int] = {}
        self._deleted: dict[str, StoredObject] = {}
        self.lookup = self._objects.get
        self.tombstone = self._deleted.get

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
        new_version = max(self._versions.get(key, 0),
                          self._version_floor) + 1
        self._versions[key] = new_version
        self.max_version_seen = max(self.max_version_seen, new_version)
        return new_version


    def _apply_effects(self, entry: LogEntry) -> None:
        for key, value, version in entry.effects:
            if value is TOMBSTONE:
                self._objects.pop(key, None)
                self._deleted[key] = StoredObject(
                    value=None, version=0, position=entry.index,
                    updated_at=entry.timestamp)
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
        """Log position of the key's last mutation, a delete included
        (0 = never written)."""
        obj = self._objects.get(key) or self._deleted.get(key, ABSENT)
        return obj.position

    def last_update_time_of(self, key: str) -> float | None:
        obj = self._objects.get(key)
        return None if obj is None else obj.updated_at

    def install(self, effects: tuple[tuple[str, typing.Any, int], ...],
                rpc_id: typing.Any, result: typing.Any,
                now: float = 0.0) -> LogEntry | None:
        """Append another master's entry: only the effects above their
        key's counter, and nothing when neither an effect nor an
        ``rpc_id`` is left."""
        fresh = tuple(effect for effect in effects
                      if effect[2] > self._versions.get(effect[0], 0))
        if not fresh and rpc_id is None:
            return None
        entry = self.log.append(fresh, rpc_id, result, timestamp=now)
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


# ---------------------------------------------------------------------------
# the same steps on both stores
# ---------------------------------------------------------------------------

KEYS = ("a", "b", "c")
#: "s" is not an integer, so an Increment of a key holding it raises
VALUES = (0, 1, 2, "s")
STEPS = ("write", "increment", "delete", "multi_write", "conditional_write",
         "conditional_multi_write", "prepare", "compensate", "read",
         "install", "raise_version_floor", "rebuild")


def _observe(store: KVStore) -> tuple:
    """Every public read of every key, and the highest version issued."""
    return ({key: (store.read(key), store.version(key),
                   store.last_position_of(key),
                   store.last_update_time_of(key)) for key in KEYS},
            store.max_version_seen)


def _run(store: KVStore, op: Operation, now: float):
    try:
        return store.execute(op, now=now)[0]
    except TypeError as error:
        return ("raised", str(error))


def _draw_op(data, step: str, store: KVStore, prepared: list,
             now: int) -> Operation:
    """One operation; expected versions are drawn near the key's
    current version so conditional writes both apply and mismatch."""
    key = data.draw(st.sampled_from(KEYS))
    keys = data.draw(st.lists(st.sampled_from(KEYS), min_size=1,
                              max_size=3, unique=True))
    value = data.draw(st.sampled_from(VALUES))

    def expected(k):
        return data.draw(st.sampled_from(
            (store.version(k), store.version(k) + 1, 0)))

    if step == "write":
        return Write(key, value)
    if step == "increment":
        return Increment(key, data.draw(st.integers(-1, 2)))
    if step == "delete":
        return Delete(key)
    if step == "read":
        return Read(key)
    if step == "multi_write":
        return MultiWrite(tuple((k, value) for k in keys))
    if step == "conditional_write":
        return ConditionalWrite(key, value, expected(key))
    items = tuple((k, data.draw(st.sampled_from(VALUES + (KEEP,))),
                   expected(k)) for k in keys)
    if step == "conditional_multi_write":
        return ConditionalMultiWrite(items)
    if step == "prepare":
        return TxnPrepare(items, txn_id=("txn", now))
    txn_id, undo = data.draw(st.sampled_from(prepared))
    return TxnCompensate(txn_id=txn_id, items=undo)


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_store_matches_the_stored_object_algorithm(data):
    """Writes, increments, deletes and re-creates, multi-key and
    conditional writes, transaction prepares and compensations,
    hand-overs that install entries above, at and below the keys'
    counters (deletes and completion-only entries among them), version
    floors and rebuilds from the log: after every
    step the result, each key's value, version, last position and last
    update time, and the highest version issued are the reference's."""
    store, reference = KVStore(), _ReferenceStore()
    prepared: list = []
    for now in range(1, data.draw(st.integers(1, 30)) + 1):
        step = data.draw(st.sampled_from(
            STEPS if prepared else tuple(s for s in STEPS
                                         if s != "compensate")))
        if step == "install":
            keys = data.draw(st.lists(st.sampled_from(KEYS), max_size=3,
                                      unique=True))
            effects = tuple(
                (key, data.draw(st.sampled_from(VALUES + (TOMBSTONE,))),
                 data.draw(st.integers(0, reference._versions.get(key, 0)
                                       + 2)))
                for key in keys)
            rpc_id = data.draw(st.sampled_from((None, ("client", now))))
            assert store.install(effects, rpc_id, "result", now=now) \
                == reference.install(effects, rpc_id, "result", now=now)
        elif step == "raise_version_floor":
            floor = data.draw(st.integers(0, reference.max_version_seen + 2))
            store.raise_version_floor(floor)
            reference.raise_version_floor(floor)
        elif step == "rebuild":
            # A recovered master replays its backups' copy of the log;
            # transaction bookkeeping is not rebuilt, and a client may
            # still compensate a prepare the old master ran.
            entries = store.log.all_entries()
            assert entries == reference.log.all_entries()
            store, reference = KVStore(), _ReferenceStore()
            assert store.rebuild_from_entries(entries) \
                == reference.rebuild_from_entries(entries)
        else:
            op = _draw_op(data, step, reference, prepared, now)
            result = _run(store, op, now)
            assert result == _run(reference, op, now), op
            if step == "prepare" and result[0] == "OK" and result[1]:
                prepared.append((op.txn_id, result[1]))
        assert _observe(store) == _observe(reference), step


def test_install_appends_only_what_is_not_here_yet():
    """A hand-over appends each effect above its key's counter at its
    own version.  One at or below the counter is already here (a retried
    hand-over) and is dropped, and an entry left with neither an effect
    nor an RpcId is not appended at all."""
    store = KVStore()
    for value in range(5):
        store.execute(Write("k", value))
    assert store.install((("k", "stale", 2),), None, None) is None
    assert (store.read("k"), store.version("k"), store.log.end) == (4, 5, 5)
    entry = store.install((("k", "again", 5), ("j", TOMBSTONE, 3)),
                          ("client", 1), "result", now=7.0)
    assert (entry.index, entry.effects, entry.rpc_id, entry.result) \
        == (6, (("j", TOMBSTONE, 3),), ("client", 1), "result")
    assert store.version("j") == 0
    assert store.execute(Write("j", "re-created"))[0] == 4
    assert store.install((), ("client", 2), ("MISMATCH", 0)).effects == ()
