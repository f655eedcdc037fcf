"""Unit and property tests for the operation vocabulary."""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kvstore import (
    Delete,
    Increment,
    MultiWrite,
    Read,
    Write,
    commutative,
    key_hash,
)
from repro.kvstore import operations
from repro.kvstore.operations import (
    KEEP,
    ConditionalMultiWrite,
    ConditionalWrite,
    Operation,
    TxnCompensate,
    TxnPrepare,
)


def test_write_touches_only_its_key():
    op = Write("a", 1)
    assert op.mutated_keys() == ("a",)
    assert op.read_keys() == ()
    assert op.touched_keys() == ("a",)
    assert op.is_update


def test_read_is_not_an_update():
    op = Read("a")
    assert not op.is_update
    assert op.read_keys() == ("a",)
    assert op.mutated_keys() == ()


def test_increment_reads_and_writes():
    op = Increment("counter", 5)
    assert op.touched_keys() == ("counter",)
    assert op.mutated_keys() == ("counter",)
    assert op.read_keys() == ("counter",)


def test_multiwrite_rejects_duplicates_and_empty():
    with pytest.raises(ValueError):
        MultiWrite((("a", 1), ("a", 2)))
    with pytest.raises(ValueError):
        MultiWrite(())


def test_multiwrite_key_hashes_match_keys():
    op = MultiWrite((("a", 1), ("b", 2)))
    assert op.touched_hashes() == (key_hash("a"), key_hash("b"))


def test_commutativity_disjoint_writes():
    assert commutative(Write("a", 1), Write("b", 2))
    assert not commutative(Write("a", 1), Write("a", 2))


def test_commutativity_read_write_conflicts():
    assert not commutative(Read("a"), Write("a", 1))
    assert not commutative(Write("a", 1), Read("a"))
    assert commutative(Read("a"), Read("a"))  # read-read shares fine
    assert commutative(Read("a"), Write("b", 1))


def test_commutativity_multiwrite_overlap():
    multi = MultiWrite((("a", 1), ("b", 2)))
    assert not commutative(multi, Write("b", 9))
    assert commutative(multi, Write("c", 9))


def test_key_hash_stable_and_64bit():
    h = key_hash("hello")
    assert h == key_hash("hello")
    assert h != key_hash("hello2")
    assert 0 <= h < 2 ** 64
    assert key_hash(b"hello") == h


@given(st.text(max_size=30), st.text(max_size=30))
@settings(max_examples=200)
def test_commutative_iff_disjoint(key_a, key_b):
    expected = key_a != key_b
    assert commutative(Write(key_a, 0), Write(key_b, 0)) == expected


@given(st.lists(st.sampled_from(["a", "b", "c", "d"]), min_size=1,
                max_size=4, unique=True),
       st.lists(st.sampled_from(["a", "b", "c", "d"]), min_size=1,
                max_size=4, unique=True))
@settings(max_examples=100)
def test_multiwrite_commutativity_is_set_disjointness(keys_a, keys_b):
    op_a = MultiWrite(tuple((k, 0) for k in keys_a))
    op_b = MultiWrite(tuple((k, 0) for k in keys_b))
    assert commutative(op_a, op_b) == (not set(keys_a) & set(keys_b))


def test_commutative_is_symmetric():
    cases = [Write("a", 1), Read("a"), Increment("a"), Write("b", 1),
             Read("b"), Delete("a"), MultiWrite((("a", 1), ("c", 1)))]
    for x in cases:
        for y in cases:
            assert commutative(x, y) == commutative(y, x)


# ----------------------------------------------------------------------
# the key-tuple memo is invisible
# ----------------------------------------------------------------------
# touched_keys() / touched_hashes() are memoized in the
# instance __dict__ (one key hash per operation, carried from the client
# to the master and the witnesses).  Nothing else about an operation may
# be able to tell.

#: one way of building each operation class, reads and writes mixed
#: where the class allows it
EXAMPLES = {
    Write: lambda: Write("a", 1),
    Read: lambda: Read("a"),
    Increment: lambda: Increment("a", 2),
    ConditionalWrite: lambda: ConditionalWrite("a", 1, expected_version=3),
    Delete: lambda: Delete("a"),
    MultiWrite: lambda: MultiWrite((("a", 1), ("b", 2))),
    ConditionalMultiWrite: lambda: ConditionalMultiWrite(
        (("r", KEEP, 1), ("a", 1, 2), ("b", 2, 0))),
    TxnPrepare: lambda: TxnPrepare((("r", KEEP, 1), ("a", 1, 2)),
                                   txn_id=("c1", 7)),
    TxnCompensate: lambda: TxnCompensate(("c1", 7), (("a", 0, 1, 2),
                                                     ("b", None, 0, 1))),
}


def _operation_classes(base=Operation) -> set:
    found = set()
    for cls in base.__subclasses__():
        if cls.__module__ == operations.__name__:
            found.add(cls)
        found |= _operation_classes(cls)
    return found


def test_every_operation_class_has_an_example():
    assert _operation_classes() == set(EXAMPLES)


@pytest.mark.parametrize("cls", EXAMPLES, ids=lambda cls: cls.__name__)
def test_memoized_key_tuples_equal_a_fresh_instances(cls):
    op = EXAMPLES[cls]()
    touched = tuple(dict.fromkeys(op.read_keys() + op.mutated_keys()))
    for _ in range(2):          # computed, then served from the memo
        assert op.touched_keys() == touched
        assert op.touched_hashes() == tuple(key_hash(k) for k in touched)
    assert op.touched_keys() is op.touched_keys()
    assert op.touched_hashes() is op.touched_hashes()
    fresh = EXAMPLES[cls]()
    # in the other order, so that neither derivation leans on the other
    assert fresh.touched_hashes() == op.touched_hashes()
    assert fresh.touched_keys() == op.touched_keys()


@pytest.mark.parametrize("cls", EXAMPLES, ids=lambda cls: cls.__name__)
def test_warmed_memo_is_invisible_to_the_dataclass(cls):
    op, cold = EXAMPLES[cls](), EXAMPLES[cls]()
    described = repr(op)
    op.touched_keys(), op.touched_hashes()
    assert op == cold and cold == op
    assert hash(op) == hash(cold)
    assert repr(op) == described == repr(cold)
    assert dataclasses.asdict(op) == dataclasses.asdict(cold)


def test_replace_starts_from_a_clean_memo():
    op = Write("a", 1)
    op.touched_hashes()
    moved = dataclasses.replace(op, key="b")
    assert moved == Write("b", 1)
    assert moved.touched_keys() == ("b",)
    assert moved.touched_hashes() == (key_hash("b"),)
    assert op.touched_hashes() == (key_hash("a"),)      # and no write-back
    multi = MultiWrite((("a", 1), ("b", 2)))
    multi.touched_hashes()
    shrunk = dataclasses.replace(multi, items=(("c", 3),))
    assert shrunk.touched_hashes() == (key_hash("c"),)
