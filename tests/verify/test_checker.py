"""Unit tests for the linearizability checker on known histories."""

from __future__ import annotations

import pytest

from repro.kvstore import Delete, Increment, MultiWrite, Read, Write
from repro.verify import (
    History,
    LinearizabilityError,
    check_linearizable,
)
from repro.verify.history import OpRecord


def make_history(tuples) -> History:
    """tuples: (client, operation, result, start, end)."""
    history = History()
    for client, op, result, start, end in tuples:
        history.records.append(OpRecord(
            client=client, op=op, result=result,
            invoked_at=start, completed_at=end))
    return history


def test_empty_history_is_linearizable():
    check_linearizable(History())


def test_sequential_write_then_read():
    history = make_history([
        (1, Write("x", 1), None, 0.0, 1.0),
        (1, Read("x"), 1, 2.0, 3.0),
    ])
    check_linearizable(history)


def test_read_of_never_written_value_fails():
    history = make_history([
        (1, Write("x", 1), None, 0.0, 1.0),
        (1, Read("x"), 99, 2.0, 3.0),
    ])
    with pytest.raises(LinearizabilityError):
        check_linearizable(history)


def test_stale_read_after_write_completes_fails():
    """Classic linearizability violation: a read starting after a write
    completed must see it."""
    history = make_history([
        (1, Write("x", 1), None, 0.0, 1.0),
        (1, Write("x", 2), None, 2.0, 3.0),
        (2, Read("x"), 1, 4.0, 5.0),  # stale!
    ])
    with pytest.raises(LinearizabilityError):
        check_linearizable(history)


def test_concurrent_read_may_see_either_value():
    history = make_history([
        (1, Write("x", 1), None, 0.0, 1.0),
        (1, Write("x", 2), None, 2.0, 6.0),
        (2, Read("x"), 1, 3.0, 4.0),   # overlaps write(2): ok
    ])
    check_linearizable(history)
    history2 = make_history([
        (1, Write("x", 1), None, 0.0, 1.0),
        (1, Write("x", 2), None, 2.0, 6.0),
        (2, Read("x"), 2, 3.0, 4.0),   # also ok
    ])
    check_linearizable(history2)


def test_read_must_not_go_backwards():
    """Two sequential reads around a concurrent write: once the new
    value is observed, an older value may not reappear."""
    history = make_history([
        (1, Write("x", 1), None, 0.0, 1.0),
        (1, Write("x", 2), None, 2.0, 10.0),
        (2, Read("x"), 2, 3.0, 4.0),
        (2, Read("x"), 1, 5.0, 6.0),  # regression!
    ])
    with pytest.raises(LinearizabilityError):
        check_linearizable(history)


def test_per_key_independence():
    """Violations on one key do not hide behind traffic on another."""
    history = make_history([
        (1, Write("a", 1), None, 0.0, 1.0),
        (2, Write("b", 5), None, 0.0, 1.0),
        (1, Read("a"), 1, 2.0, 3.0),
        (2, Read("b"), 6, 2.0, 3.0),  # bad read on b
    ])
    with pytest.raises(LinearizabilityError) as err:
        check_linearizable(history)
    assert err.value.key == "b"


def test_pending_write_may_have_happened():
    """A crashed client's write is allowed to be visible..."""
    history = make_history([
        (1, Write("x", 1), None, 0.0, None),   # pending forever
        (2, Read("x"), 1, 5.0, 6.0),
    ])
    check_linearizable(history)


def test_pending_write_may_also_never_happen():
    history = make_history([
        (1, Write("x", 1), None, 0.0, None),
        (2, Read("x"), None, 5.0, 6.0),  # sees nothing: fine
    ])
    check_linearizable(history)


def test_pending_write_cannot_unhappen():
    """...but once observed, it must stay observed."""
    history = make_history([
        (1, Write("x", 1), None, 0.0, None),
        (2, Read("x"), 1, 5.0, 6.0),
        (2, Read("x"), None, 7.0, 8.0),  # write vanished!
    ])
    with pytest.raises(LinearizabilityError):
        check_linearizable(history)


def test_pending_read_is_ignored():
    history = make_history([
        (1, Write("x", 1), None, 0.0, 1.0),
        (2, Read("x"), None, 0.5, None),  # crashed reader
        (1, Read("x"), 1, 2.0, 3.0),
    ])
    check_linearizable(history)


def test_counter_model_double_increment_detected():
    """An increment applied twice (same result observed later too high)
    is exactly what RIFL prevents; the checker must catch it."""
    history = make_history([
        (1, Increment("c", 1), 1, 0.0, 1.0),
        (1, Read("c"), 2, 2.0, 3.0),  # but only one INCR ran!
    ])
    with pytest.raises(LinearizabilityError):
        check_linearizable(history)


def test_counter_model_increments_serialize():
    history = make_history([
        (1, Increment("c", 1), 1, 0.0, 5.0),
        (2, Increment("c", 1), 2, 0.0, 5.0),  # concurrent; results 1,2
        (1, Read("c"), 2, 6.0, 7.0),
    ])
    check_linearizable(history)


def test_counter_model_results_must_be_consistent():
    history = make_history([
        (1, Increment("c", 1), 1, 0.0, 5.0),
        (2, Increment("c", 1), 1, 0.0, 5.0),  # both claim result 1
    ])
    with pytest.raises(LinearizabilityError):
        check_linearizable(history)


def test_real_time_order_respected_across_clients():
    """Write completes, then a different client writes, then a read of
    the first value fails (real-time order)."""
    history = make_history([
        (1, Write("x", "a"), None, 0.0, 1.0),
        (2, Write("x", "b"), None, 2.0, 3.0),
        (3, Read("x"), "a", 4.0, 5.0),
    ])
    with pytest.raises(LinearizabilityError):
        check_linearizable(history)


def test_many_concurrent_writers_some_order_exists():
    records = []
    for i in range(8):
        records.append((i, Write("x", i), None, 0.0, 10.0))
    records.append((9, Read("x"), 3, 11.0, 12.0))
    check_linearizable(make_history(records))


def test_pending_multi_write_is_all_or_nothing():
    """A multi-key write is one atomic step: once a read saw half of
    it, the other half must be visible too.  Split into per-key writes
    the same history would linearize."""
    history = make_history([
        (1, MultiWrite((("a", 1), ("b", 1))), None, 0.0, None),
        (2, Read("a"), 1, 5.0, 6.0),
        (2, Read("b"), None, 7.0, 8.0),  # torn: b's half vanished
    ])
    with pytest.raises(LinearizabilityError) as err:
        check_linearizable(history)
    assert "'a'" in str(err.value) and "'b'" in str(err.value)
    per_key = make_history([
        (1, Write("a", 1), None, 0.0, None),
        (1, Write("b", 1), None, 0.0, None),
        (2, Read("a"), 1, 5.0, 6.0),
        (2, Read("b"), None, 7.0, 8.0),
    ])
    check_linearizable(per_key)


def test_read_after_delete_must_not_see_old_value():
    history = make_history([
        (1, Write("x", 1), None, 0.0, 1.0),
        (1, Delete("x"), True, 2.0, 3.0),
        (2, Read("x"), 1, 4.0, 5.0),  # deleted value resurfaced
    ])
    with pytest.raises(LinearizabilityError):
        check_linearizable(history)
    history.records[-1].result = None
    check_linearizable(history)


def test_single_key_traffic_is_checked_inside_its_component():
    """Key ``a``'s own writes and reads join the component that a
    multi-key write spans, and are searched there."""
    history = make_history([
        (1, MultiWrite((("a", 1), ("b", 1))), None, 0.0, 1.0),
        (1, Write("a", 2), None, 2.0, 3.0),
        (2, Read("a"), 1, 4.0, 5.0),  # stale
    ])
    with pytest.raises(LinearizabilityError) as err:
        check_linearizable(history)
    message = str(err.value)
    assert "keys ['a', 'b']" in message and "MultiWrite" in message
    assert message.count("client=") == 3
    history.records[-1].result = 2
    check_linearizable(history)
