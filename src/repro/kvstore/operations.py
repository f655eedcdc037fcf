"""The NoSQL operation vocabulary.

Each operation declares which primary keys it *reads* and which it
*mutates*.  CURP's entire commutativity machinery (witness slot checks,
master unsynced-window checks) keys off these sets — the paper's
insight (§4) is that for NoSQL stores, commutativity is decidable from
operation parameters alone: operations touching disjoint key sets
commute.

Operations here are deliberately *state-independent* in their key sets:
a SQL-style ``UPDATE ... WHERE`` whose touched keys depend on data is
exactly what witnesses cannot support (§3.2.2), and has no
representation in this vocabulary.
"""

from __future__ import annotations

import dataclasses
import typing

from repro.kvstore.hashing import key_hash


class Operation:
    """Base class; subclasses are frozen dataclasses."""

    #: True for operations that modify state (need RIFL + durability)
    is_update: typing.ClassVar[bool] = True

    def read_keys(self) -> tuple[str, ...]:
        """Keys whose values this operation observes."""
        return ()

    def mutated_keys(self) -> tuple[str, ...]:
        """Keys whose values this operation changes."""
        return ()

    # The three derived tuples below are memoized in the instance
    # ``__dict__`` (which the frozen ``__setattr__`` does not guard):
    # one instance travels client -> master -> witnesses, so every hop
    # uses the client's hashes (the record RPC *carries* keyHashes,
    # §4.2).  Dataclass ``==`` / ``hash`` / ``repr`` / ``replace`` look
    # at fields only: they cannot see the memo, and a copy starts clean.
    def touched_keys(self) -> tuple[str, ...]:
        """Union of read and mutated keys, deduplicated, order stable."""
        keys = self.__dict__.get("_touched_keys")
        if keys is None:
            keys = self.__dict__["_touched_keys"] = tuple(
                dict.fromkeys(self.read_keys() + self.mutated_keys()))
        return keys

    def touched_hashes(self) -> tuple[int, ...]:
        """64-bit hashes of ``touched_keys()``, in the same order (what
        routing and ownership checks compare)."""
        hashes = self.__dict__.get("_touched_hashes")
        if hashes is None:
            hashes = self.__dict__["_touched_hashes"] = tuple(
                [key_hash(k) for k in self.touched_keys()])
        return hashes

    def key_hashes(self) -> tuple[int, ...]:
        """64-bit hashes of the mutated keys (what witnesses store)."""
        hashes = self.__dict__.get("_key_hashes")
        if hashes is None:
            # Mutated keys are touched keys: pick their hashes out of
            # touched_hashes() so that each key is hashed once per op.
            touched = self.touched_keys()
            mutated = self.mutated_keys()
            hashes = self.touched_hashes()
            if mutated != touched:
                by_key = dict(zip(touched, hashes))
                hashes = tuple([by_key[k] for k in mutated])
            self.__dict__["_key_hashes"] = hashes
        return hashes


@dataclasses.dataclass(frozen=True)
class Write(Operation):
    """Unconditional overwrite: ``x <- value``."""

    key: str
    value: typing.Any

    def mutated_keys(self) -> tuple[str, ...]:
        return (self.key,)


@dataclasses.dataclass(frozen=True)
class Read(Operation):
    """Linearizable read of one key."""

    key: str
    is_update: typing.ClassVar[bool] = False

    def read_keys(self) -> tuple[str, ...]:
        return (self.key,)


@dataclasses.dataclass(frozen=True)
class Increment(Operation):
    """Atomic add; returns the new value.  Reads and writes its key
    (two increments of the same key do not commute for CURP purposes —
    same key → conflict — matching the paper's per-key rule)."""

    key: str
    delta: int = 1

    def read_keys(self) -> tuple[str, ...]:
        return (self.key,)

    def mutated_keys(self) -> tuple[str, ...]:
        return (self.key,)


@dataclasses.dataclass(frozen=True)
class ConditionalWrite(Operation):
    """Write iff the object's version matches (RAMCloud-style CAS)."""

    key: str
    value: typing.Any
    expected_version: int

    def read_keys(self) -> tuple[str, ...]:
        return (self.key,)

    def mutated_keys(self) -> tuple[str, ...]:
        return (self.key,)


@dataclasses.dataclass(frozen=True)
class Delete(Operation):
    """Remove a key."""

    key: str

    def mutated_keys(self) -> tuple[str, ...]:
        return (self.key,)


@dataclasses.dataclass(frozen=True)
class MultiWrite(Operation):
    """Atomically write several objects (paper §4.2's multi-object
    update: the witness must find a free commutative slot for *every*
    key or reject the whole request)."""

    items: tuple[tuple[str, typing.Any], ...]

    def __post_init__(self) -> None:
        keys = [k for k, _ in self.items]
        if len(set(keys)) != len(keys):
            raise ValueError(f"duplicate keys in MultiWrite: {keys}")
        if not keys:
            raise ValueError("empty MultiWrite")

    def mutated_keys(self) -> tuple[str, ...]:
        return tuple(k for k, _ in self.items)


#: sentinel value in a ConditionalMultiWrite item meaning "validate the
#: version only, do not change the value" (read-set validation)
KEEP = "__KEEP__"


@dataclasses.dataclass(frozen=True)
class ConditionalMultiWrite(Operation):
    """Atomic multi-object compare-and-swap: every item's version must
    match or nothing is applied.

    This is the commit operation of the optimistic transactions that
    §A.3 describes ("the updates check to ensure that the previously
    read values have not changed, and the updates abort if any value
    has changed").  ``KEEP`` items validate a read-set entry without
    writing it.
    """

    #: (key, new_value | KEEP, expected_version) triples
    items: tuple[tuple[str, typing.Any, int], ...]

    def __post_init__(self) -> None:
        keys = [k for k, _v, _ver in self.items]
        if len(set(keys)) != len(keys):
            raise ValueError(f"duplicate keys in ConditionalMultiWrite: {keys}")
        if not keys:
            raise ValueError("empty ConditionalMultiWrite")

    def read_keys(self) -> tuple[str, ...]:
        return tuple(k for k, _v, _ver in self.items)

    def mutated_keys(self) -> tuple[str, ...]:
        return tuple(k for k, v, _ver in self.items if v is not KEEP)

    def key_hashes(self) -> tuple[int, ...]:
        # Witnesses must guard the whole validated set: a conflicting
        # write to any read-set key would invalidate the commit, so the
        # record occupies a slot per touched key, not just per write.
        return self.touched_hashes()


@dataclasses.dataclass(frozen=True)
class TxnPrepare(ConditionalMultiWrite):
    """One shard's slice of a cross-shard transaction (§B.2).

    Semantically a :class:`ConditionalMultiWrite` tagged with the
    transaction id, with one extra contract: on success the result
    carries *undo records* — ``(key, old_value, old_version,
    new_version)`` per written key — so the **client** holds everything
    needed to compensate a partially-prepared transaction even if every
    participant master crashes and loses its bookkeeping.  Witnesses
    treat it exactly like any other multi-object update (a slot per
    touched key), which is what makes the cross-shard fast path a
    per-shard commutativity check.
    """

    txn_id: typing.Any = None

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.txn_id is None:
            raise ValueError("TxnPrepare requires a txn_id")


@dataclasses.dataclass(frozen=True)
class TxnCompensate(Operation):
    """Saga compensation: undo one shard's prepared-but-aborted slice.

    ``items`` are the undo records a successful :class:`TxnPrepare`
    returned.  Each key is restored to ``old_value`` *only if* its
    current version still equals ``prepared_version`` — a key whose
    version moved past the prepare was overwritten by a later committed
    operation and is left alone (compensation must never clobber newer
    writes).  Restoring bumps the version (versions are monotonic);
    a key that did not exist before the prepare (``old_version == 0``)
    is deleted.  Idempotent: a retried compensation finds the versions
    already moved and skips every item.
    """

    txn_id: typing.Any
    #: (key, old_value, old_version, prepared_version) undo records
    items: tuple[tuple[str, typing.Any, int, int], ...]

    def __post_init__(self) -> None:
        keys = [k for k, _v, _ov, _pv in self.items]
        if len(set(keys)) != len(keys):
            raise ValueError(f"duplicate keys in TxnCompensate: {keys}")
        if not keys:
            raise ValueError("empty TxnCompensate")

    def read_keys(self) -> tuple[str, ...]:
        return tuple(k for k, _v, _ov, _pv in self.items)

    def mutated_keys(self) -> tuple[str, ...]:
        return tuple(k for k, _v, _ov, _pv in self.items)


def is_transactional(op: Operation) -> bool:
    """True for the cross-shard saga operations (prepare/compensate)."""
    return isinstance(op, (TxnPrepare, TxnCompensate))


def commutative(a: Operation, b: Operation) -> bool:
    """Do two operations commute? Disjoint touched-key sets (paper §4).

    Read-read sharing is also commutative, so the precise rule is:
    no key mutated by one may be touched by the other.
    """
    a_mut, b_mut = set(a.mutated_keys()), set(b.mutated_keys())
    a_touch, b_touch = set(a.touched_keys()), set(b.touched_keys())
    return not (a_mut & b_touch) and not (b_mut & a_touch)
