"""Client-side RPC helpers."""

from __future__ import annotations

import random


def backoff_delay(attempt: int, base: float, cap: float,
                  rng: random.Random) -> float:
    """Bounded exponential backoff with equal jitter.

    ``attempt`` is 0-indexed: the span doubles per attempt from
    ``base`` up to ``cap``, and the returned delay is uniform in
    [span/2, span) — half deterministic spacing, half jitter, so a
    burst of clients that failed at the same instant desynchronizes
    instead of retrying in lockstep (the retry-storm amplifier).
    Draws exactly one number from ``rng`` (callers on the retry path
    only, so traces without failures never see the draw).
    """
    if base <= 0:
        return 0.0
    span = min(cap, base * (2 ** min(attempt, 62)))
    return span / 2 + rng.random() * (span / 2)
