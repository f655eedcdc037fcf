"""Wing & Gong linearizability search over key-connected components.

The sequential specification is the store itself: a step installs the
search state (one value per key) into a scratch ``KVStore``, executes
the recorded operation and reads the keys back.  Records whose keys
never meet, directly or through a chain of multi-key operations, are
independent, so each connected component of keys is searched alone
(P-compositionality) and a multi-key write stays one atomic step.

An operation may be linearized next iff its invocation happened before
the earliest completion among the not-yet-linearized *completed*
operations.  The search walks all such orders, pruning states it has
already seen (the WGL memoization).  Results are compared for ``Read``
and ``Increment`` only, the two operations whose result is a value.
Versions are outside the specification — recovery raises the version
floor, so an issued version is not a function of the operation order —
and a conditional operation enters a history by its observed outcome.

Pending operations (client crashed / never saw the response):

- pending **updates** may be linearized anywhere after invocation or
  dropped — both are explored, because a crashed client's write may or
  may not have taken effect (§3.4: "if the client crashes before
  externalizing the result, the RPC may or may not finish");
- pending **reads** are always dropped (they externalized nothing and
  constrain nothing);
- results of pending operations are unconstrained.
"""

from __future__ import annotations

import itertools

from repro.kvstore.operations import Increment, Read
from repro.kvstore.store import KVStore
from repro.verify.history import History, OpRecord


class LinearizabilityError(AssertionError):
    """No valid linearization; the message lists the component."""

    def __init__(self, records: list[OpRecord]):
        records = sorted(records, key=lambda r: r.invoked_at)
        keys = sorted({key for r in records for key in r.keys})
        lines = [f"history for keys {keys} is not linearizable."]
        for r in records:
            end = "pending" if r.is_pending else f"{r.completed_at:.1f}"
            lines.append(f"  client={r.client} {r.op!r} -> {r.result!r} "
                         f"[{r.invoked_at:.1f}, {end}]")
        super().__init__("\n".join(lines))
        #: a key of the failing component (a key of ``History.by_key()``)
        self.key = records[0].key


class CheckerLimitExceeded(RuntimeError):
    """The search state budget was exhausted (result inconclusive)."""


_INFINITY = float("inf")

#: the operations whose result is a value the specification predicts
_VALUE_RESULTS = (Read, Increment)


def check_linearizable(history: History, max_states: int = 2_000_000) -> None:
    """Raise :class:`LinearizabilityError` if the subhistory of any
    connected component of keys is not linearizable."""
    for records in _components(history.records):
        _check_component(records, max_states)


def _components(records: list[OpRecord]):
    """The records grouped by connected component of their keys."""
    parent: dict[str, str] = {}  # union-find; a root has no entry

    def find(key: str) -> str:
        while key in parent:
            key = parent[key]
        return key

    for record in records:
        keys = record.keys
        root = find(keys[0])
        for key in keys[1:]:
            other = find(key)
            if other != root:
                parent[other] = root
    # One component's list alive at a time: a history can hold
    # thousands of single-key components.
    ordered = sorted(records, key=lambda r: find(r.key))
    for _root, group in itertools.groupby(ordered, lambda r: find(r.key)):
        yield list(group)


def _step(keys: list[str], state: tuple, record: OpRecord):
    """Run the record's op from ``state``: (result consistent?, state)."""
    store = KVStore()
    store.install(tuple((key, value, 1) for key, value in zip(keys, state)
                        if value is not None), None, None)
    result, _entry = store.execute(record.op)
    ok = (record.is_pending or not isinstance(record.op, _VALUE_RESULTS)
          or result == record.result)
    return ok, tuple([store.read(key) for key in keys])


def _check_component(records: list[OpRecord], max_states: int) -> None:
    # Pending reads constrain nothing: drop them outright.
    ops = [r for r in records if r.op.is_update or not r.is_pending]
    if not ops:
        return
    ops.sort(key=lambda r: r.invoked_at)
    keys = sorted({key for r in ops for key in r.keys})
    completion = [(_INFINITY if op.is_pending else op.completed_at)
                  for op in ops]
    all_must = sum(1 << i for i, op in enumerate(ops) if not op.is_pending)

    initial = (0, (None,) * len(keys))
    stack = [initial]
    seen = {initial}
    states_visited = 0

    while stack:
        mask, state = stack.pop()
        if mask & all_must == all_must:
            return  # every completed op linearized; pending rest dropped
        states_visited += 1
        if states_visited > max_states:
            raise CheckerLimitExceeded(
                f"exceeded {max_states} states checking keys {keys}")
        # Earliest completion among unlinearized completed ops bounds
        # which operations may be linearized next.
        bound = _INFINITY
        for i, op in enumerate(ops):
            if not (mask >> i) & 1 and completion[i] < bound:
                bound = completion[i]
        for i, op in enumerate(ops):
            if (mask >> i) & 1:
                continue
            if op.invoked_at > bound:
                break  # ops sorted by invocation: rest also too late
            ok, new_state = _step(keys, state, op)
            if not ok:
                continue
            entry = (mask | (1 << i), new_state)
            if entry not in seen:
                seen.add(entry)
                stack.append(entry)
    raise LinearizabilityError(records)
