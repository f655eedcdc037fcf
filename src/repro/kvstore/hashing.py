"""Stable 64-bit key hashing.

Witnesses compare 64-bit hashes of primary keys instead of full keys
(paper §4.2, "for performance").  Python's builtin ``hash`` is salted
per process, so we implement FNV-1a 64-bit followed by a splitmix64
finalizer: stable across runs, cheap, and uniformly distributed in
*all* bit positions — the low bits index witness cache sets, the high
bits route tablets, and both must avalanche even for short, similar
keys ("user1", "user2", ...).
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from functools import lru_cache

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK = 0xFFFFFFFFFFFFFFFF


def _splitmix64(value: int) -> int:
    """Finalizer with full avalanche (Vigna's splitmix64 mix step)."""
    value = (value ^ (value >> 30)) * 0xBF58476D1CE4E5B9 & _MASK
    value = (value ^ (value >> 27)) * 0x94D049BB133111EB & _MASK
    return value ^ (value >> 31)


@lru_cache(maxsize=4096)
def key_hash(key: str | bytes) -> int:
    """Stable, well-mixed 64-bit hash of a primary key.

    Memoized: the hash is pure.  An update hashes its key once, on the
    operation, and backups never hash, so the repeat callers left are
    reads of hot keys under skewed workloads, where the cache turns the
    per-byte FNV loop into one dict probe.  4,096 entries hold a
    zipfian workload's hot set; a larger memo only retains cold keys
    (docs/PERFORMANCE.md, "Retained state per committed op").  The
    cache is bounded and process-global — keys are immutable strings,
    so sharing across simulated clusters is safe.
    """
    data = key.encode("utf-8") if isinstance(key, str) else key
    value = _FNV_OFFSET
    for byte in data:
        value ^= byte
        value = (value * _FNV_PRIME) & _MASK
    return _splitmix64(value)


def in_ranges(hashes: Iterable[int],
              ranges: Sequence[tuple[int, int]]) -> bool:
    """True iff every hash falls in one of the ``[lo, hi)`` ranges (a
    master's or its witness's owned tablets)."""
    for key_hash_value in hashes:
        for lo, hi in ranges:
            if lo <= key_hash_value < hi:
                break
        else:
            return False
    return True
