"""Audit of the commutativity predicate against execution order.

``commutative`` is the rule CURP's 1-RTT path rests on (§3.2.2, §4):
whenever it says two operations commute, running them in either order
from the same state must leave the same state and give each operation
the same result.  Following Bansal et al.'s "precise and useful"
commutativity conditions, that soundness is checked here for every
pair of operation classes (the nine kvstore classes and the eighteen
redis commands), and the predicate's false conflicts are measured
rather than guessed:

    PYTHONPATH=src python tests/kvstore/test_commutativity_audit.py

prints, per class pair, the share of predicate-conflicting pairs that
commute in both orders anyway (docs/ARCHITECTURE.md quotes it).

One generator per class builds an operation from a start state, and
the same generators serve hypothesis (``_DrawPick``) and the sampler
(``_RandomPick``).
"""

from __future__ import annotations

import copy
import importlib
import itertools
import pkgutil
import random
import sys

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import repro
from repro.kvstore import KVStore
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
from repro.redislike.commands import REGISTRY, Command, CommandError, execute
from repro.redislike.datastructures import RedisStore, WrongTypeError

KEYS = ("a", "b", "c")
#: "s" is not an integer, so an Increment of a key holding it raises
VALUES = (0, 1, 2, "s")


class _DrawPick:
    """Choices drawn by hypothesis (shrinkable)."""

    def __init__(self, data):
        self.data = data

    def choice(self, options):
        return self.data.draw(st.sampled_from(options))

    def integer(self, low, high):
        return self.data.draw(st.integers(low, high))


class _RandomPick:
    """Choices drawn from a seeded ``random.Random`` (for sampling)."""

    def __init__(self, rng: random.Random):
        self.rng = rng

    def choice(self, options):
        return self.rng.choice(options)

    def integer(self, low, high):
        return self.rng.randint(low, high)


# ----------------------------------------------------------------------
# kvstore: start states and one generator per operation class
# ----------------------------------------------------------------------
class Start:
    """A start state: the operations that built it (replayable on a
    fresh store) and the undo records of its successful prepares."""

    def __init__(self):
        self.history: list[Operation] = []
        self.store = KVStore()
        #: (txn_id, undo records) per prepare that returned OK
        self.prepared: list[tuple[tuple, tuple]] = []
        self._txn_ids = itertools.count(1)

    def new_txn_id(self) -> tuple:
        return ("txn", next(self._txn_ids))

    def apply(self, op: Operation) -> None:
        self.history.append(op)
        result = _outcome(self.store, op)
        if isinstance(op, TxnPrepare) and result[0] == "OK" and result[1]:
            self.prepared.append((op.txn_id, result[1]))

    def replay(self) -> KVStore:
        store = KVStore()
        for op in self.history:
            _outcome(store, op)
        return store


def _keys(pick) -> tuple[str, ...]:
    chosen = tuple(k for k in KEYS if pick.integer(0, 1))
    return chosen or (pick.choice(KEYS),)


def _expected(pick, start: Start, key: str) -> int:
    return pick.choice((start.store.version(key), pick.integer(0, 3)))


def _cas_items(pick, start: Start) -> tuple:
    return tuple((k, KEEP if pick.integer(0, 2) == 0 else pick.choice(VALUES),
                  _expected(pick, start, k))
                 for k in _keys(pick))


def _conditional_write(pick, start: Start) -> ConditionalWrite:
    key = pick.choice(KEYS)
    return ConditionalWrite(key, pick.choice(VALUES),
                            _expected(pick, start, key))


def _prepare(pick, start: Start) -> TxnPrepare:
    # A fresh txn id per prepare: a transaction sends one prepare per
    # shard and a retry is a new transaction (``new_transaction`` per
    # attempt), so two prepares of one txn never meet on one store.
    return TxnPrepare(_cas_items(pick, start), txn_id=start.new_txn_id())


def _compensation(pick, start: Start) -> TxnCompensate:
    # A compensation's items are the undo records its own prepare
    # returned (core/transactions.py): it is derived from a prepare in
    # the start state's history, never drawn freely.  A free draw could
    # pair a compensation with another prepare of its txn id on
    # disjoint keys, where execution order decides whether
    # ``pending_txns[txn_id]`` survives — a pair the client never builds.
    if not start.prepared:
        start.apply(TxnPrepare(
            tuple((k, pick.choice(VALUES), start.store.version(k))
                  for k in _keys(pick)), txn_id=start.new_txn_id()))
        assume(start.prepared)
    txn_id, undo = pick.choice(start.prepared)
    return TxnCompensate(txn_id=txn_id, items=undo)


GENERATORS = {
    Write: lambda pick, start: Write(pick.choice(KEYS), pick.choice(VALUES)),
    Read: lambda pick, start: Read(pick.choice(KEYS)),
    Increment: lambda pick, start: Increment(pick.choice(KEYS),
                                             pick.integer(-1, 2)),
    ConditionalWrite: _conditional_write,
    Delete: lambda pick, start: Delete(pick.choice(KEYS)),
    MultiWrite: lambda pick, start: MultiWrite(
        tuple((k, pick.choice(VALUES)) for k in _keys(pick))),
    ConditionalMultiWrite: lambda pick, start: ConditionalMultiWrite(
        _cas_items(pick, start)),
    TxnPrepare: _prepare,
    TxnCompensate: _compensation,
}

#: what a start state's history is made of
_SETUP = (Write, Delete, Increment, TxnPrepare, TxnCompensate)


def build_start(pick) -> Start:
    start = Start()
    for _ in range(pick.integer(0, 6)):
        cls = pick.choice(_SETUP)
        if cls is TxnCompensate and not start.prepared:
            continue
        start.apply(GENERATORS[cls](pick, start))
    return start


def _snapshot(store: KVStore) -> tuple:
    """Values, versions, version counters (a counter survives a delete:
    the highest version the log gave the key), pending-prepare markers
    and pending txns (log positions are an order by construction, so
    they are left out)."""
    counters: dict[str, int] = {}
    for entry in store.log.all_entries():
        for key, _value, version in entry.effects:
            counters[key] = max(counters.get(key, 0), version)
    return ({k: (store.read(k), store.version(k)) for k in KEYS},
            counters, dict(store._pending_keys), dict(store.pending_txns))


def _outcome(store: KVStore, op: Operation):
    before = _snapshot(store)
    try:
        result, _entry = store.execute(op)
    except Exception as error:  # noqa: BLE001 - an outcome like any other
        assert _snapshot(store) == before, (
            f"{op!r} raised {error!r} after changing the store")
        return ("raised", type(error).__name__)
    return result


def kv_orders_agree(start: Start, a: Operation, b: Operation) -> bool:
    ab, ba = start.replay(), start.replay()
    a_first, b_second = _outcome(ab, a), _outcome(ab, b)
    b_first, a_second = _outcome(ba, b), _outcome(ba, a)
    return (a_first == a_second and b_first == b_second
            and _snapshot(ab) == _snapshot(ba))


# ----------------------------------------------------------------------
# redislike: start states and one argument generator per command
# ----------------------------------------------------------------------
REDIS_KEYS = ("a", "b")


def _field(pick) -> str:
    return pick.choice(("f", "g"))


def _items(pick) -> tuple:
    return tuple(pick.choice(("x", "y")) for _ in range(pick.integer(1, 2)))


#: arguments after the key, per command
COMMAND_ARGS = {
    "SET": lambda pick: (pick.choice(("1", "x")),),
    "GET": lambda pick: (),
    "DEL": lambda pick: (),
    "EXISTS": lambda pick: (),
    "TYPE": lambda pick: (),
    "INCR": lambda pick: (),
    "INCRBY": lambda pick: (str(pick.integer(-1, 2)),),
    "HMSET": lambda pick: ({_field(pick): pick.choice(("1", "2"))},),
    "HSET": lambda pick: (_field(pick), pick.choice(("1", "2"))),
    "HGET": lambda pick: (_field(pick),),
    "HGETALL": lambda pick: (),
    "LPUSH": _items,
    "RPUSH": _items,
    "LRANGE": lambda pick: (str(pick.integer(0, 1)),
                            str(pick.choice((-1, 0, 1)))),
    "LLEN": lambda pick: (),
    "SADD": _items,
    "SMEMBERS": lambda pick: (),
    "SISMEMBER": lambda pick: (pick.choice(("x", "y")),),
}
_WRITE_COMMANDS = tuple(name for name, spec in REGISTRY.items()
                        if spec.is_write)


def command(pick, name: str) -> Command:
    return Command(name, (pick.choice(REDIS_KEYS),) + COMMAND_ARGS[name](pick))


def build_redis_start(pick) -> list[Command]:
    return [command(pick, pick.choice(_WRITE_COMMANDS))
            for _ in range(pick.integer(0, 5))]


def _redis_outcome(store: RedisStore, cmd: Command):
    before = copy.deepcopy(store._data)
    try:
        return execute(store, cmd)
    except (CommandError, WrongTypeError) as error:
        assert store._data == before, (
            f"{cmd!r} raised {error!r} after changing the store")
        return ("raised", type(error).__name__)


def _redis_replay(history: list[Command]) -> RedisStore:
    store = RedisStore()
    for cmd in history:
        _redis_outcome(store, cmd)
    return store


def redis_orders_agree(history: list[Command], a: Command,
                       b: Command) -> bool:
    ab, ba = _redis_replay(history), _redis_replay(history)
    a_first, b_second = _redis_outcome(ab, a), _redis_outcome(ab, b)
    b_first, a_second = _redis_outcome(ba, b), _redis_outcome(ba, a)
    return (a_first == a_second and b_first == b_second
            and ab._data == ba._data)


# ----------------------------------------------------------------------
# the audit
# ----------------------------------------------------------------------
AUDIT = settings(max_examples=30, deadline=None,
                 suppress_health_check=[HealthCheck.too_slow])
KV_PAIRS = list(itertools.product(GENERATORS, repeat=2))
REDIS_PAIRS = list(itertools.product(REGISTRY, repeat=2))


# Each example pairs its first operation with one operation of every
# class, so that every class pair is checked in every example.
@pytest.mark.parametrize("cls_a", GENERATORS, ids=lambda cls: cls.__name__)
@AUDIT
@given(data=st.data())
def test_commuting_operations_commute_in_both_orders(cls_a, data):
    pick = _DrawPick(data)
    start = build_start(pick)
    a = GENERATORS[cls_a](pick, start)
    for cls_b in GENERATORS:
        b = GENERATORS[cls_b](pick, start)
        if commutative(a, b):
            assert kv_orders_agree(start, a, b), (start.history, a, b)


@pytest.mark.parametrize("name_a", REGISTRY)
@settings(AUDIT, max_examples=10)
@given(data=st.data())
def test_commuting_commands_commute_in_both_orders(name_a, data):
    pick = _DrawPick(data)
    history = build_redis_start(pick)
    a = command(pick, name_a)
    for name_b in REGISTRY:
        b = command(pick, name_b)
        if commutative(a, b):
            assert redis_orders_agree(history, a, b), (history, a, b)


@AUDIT
@given(data=st.data())
def test_witness_rule_never_accepts_a_conflicting_pair(data):
    """Disjoint ``touched_hashes()`` (what a witness accepts side by
    side) implies ``commutative``: the witness is never looser."""
    pick = _DrawPick(data)
    if pick.integer(0, 1):
        start = build_start(pick)
        a, b = (GENERATORS[pick.choice(tuple(GENERATORS))](pick, start)
                for _ in range(2))
    else:
        a, b = (command(pick, pick.choice(tuple(REGISTRY)))
                for _ in range(2))
    if not set(a.touched_hashes()) & set(b.touched_hashes()):
        assert commutative(a, b)


def _all_operation_classes() -> set:
    for module in pkgutil.walk_packages(repro.__path__, "repro."):
        importlib.import_module(module.name)
    found, frontier = set(), [Operation]
    while frontier:
        for cls in frontier.pop().__subclasses__():
            found.add(cls)
            frontier.append(cls)
    return found


def test_every_operation_class_has_an_audit_generator():
    """A new operation class joins the audit or fails here."""
    assert _all_operation_classes() == set(GENERATORS) | {Command}
    assert set(COMMAND_ARGS) == set(REGISTRY)


# ----------------------------------------------------------------------
# precision: how often "conflict" is a false alarm
# ----------------------------------------------------------------------
def false_conflict_shares(samples: int = 400, seed: int = 1):
    """Per class pair: (predicate-conflicting samples, share of them
    that commute in both orders anyway)."""
    pick = _RandomPick(random.Random(seed))
    shares = {}
    for cls_a, cls_b in KV_PAIRS:
        conflicting = agreeing = 0
        for _ in range(samples):
            start = build_start(pick)
            if cls_a is TxnCompensate or cls_b is TxnCompensate:
                while not start.prepared:
                    start = build_start(pick)
            a = GENERATORS[cls_a](pick, start)
            b = GENERATORS[cls_b](pick, start)
            if not commutative(a, b):
                conflicting += 1
                agreeing += kv_orders_agree(start, a, b)
        shares[cls_a.__name__, cls_b.__name__] = (
            conflicting, agreeing / conflicting if conflicting else None)
    for name_a, name_b in REDIS_PAIRS:
        conflicting = agreeing = 0
        for _ in range(samples):
            history = build_redis_start(pick)
            a, b = command(pick, name_a), command(pick, name_b)
            if not commutative(a, b):
                conflicting += 1
                agreeing += redis_orders_agree(history, a, b)
        shares[name_a, name_b] = (
            conflicting, agreeing / conflicting if conflicting else None)
    return shares


def test_false_conflict_shares_are_measurable():
    shares = false_conflict_shares(samples=3)
    assert len(shares) == len(KV_PAIRS) + len(REDIS_PAIRS)
    assert all(share is None or 0.0 <= share <= 1.0
               for _count, share in shares.values())


def _print_tables(shares) -> None:
    """The kvstore matrix, then one row per redis command (pooled over
    the command it is paired with)."""
    def share(keys):
        counts = [shares[key] for key in keys if shares[key][1] is not None]
        conflicting = sum(count for count, _share in counts)
        if not conflicting:
            return "—"
        return f"{sum(c * x for c, x in counts) / conflicting:.0%}"
    names = [cls.__name__ for cls in GENERATORS]
    print("| a \\ b | " + " | ".join(names) + " |")
    print("| --- " * (len(names) + 1) + "|")
    for row in names:
        print(f"| `{row}` | "
              + " | ".join(share([(row, col)]) for col in names) + " |")
    print()
    print("| command | " + " | ".join(REGISTRY) + " |")
    print("| --- " * (len(REGISTRY) + 1) + "|")
    print("| false conflicts | " + " | ".join(
        share([(row, col) for col in REGISTRY]) for row in REGISTRY) + " |")


if __name__ == "__main__":
    _print_tables(false_conflict_shares(
        samples=int(sys.argv[1]) if len(sys.argv) > 1 else 400))
