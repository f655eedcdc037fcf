"""Network messages."""

from __future__ import annotations

import typing


class Message:
    """A datagram in flight between two hosts.

    ``payload`` is opaque to the network (the RPC layer puts request /
    response frames in it).  ``size_bytes`` only feeds the traffic
    accounting used by the §5.2 network-amplification analysis — the
    simulator does not model bandwidth-limited links, matching the
    paper's small-object (100 B) workloads where latency, not bandwidth,
    dominates.

    Built by ``Host.send`` only while the network has a tap or an
    active fault (``Network._admit``); delivery hands the handler the
    payload, never the envelope.  Treat instances as immutable.
    """

    __slots__ = ("src", "dst", "payload", "size_bytes", "sent_at")

    def __init__(self, src: str, dst: str, payload: typing.Any,
                 size_bytes: int = 100, sent_at: float = 0.0):
        self.src = src
        self.dst = dst
        self.payload = payload
        self.size_bytes = size_bytes
        self.sent_at = sent_at

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Message(src={self.src!r}, dst={self.dst!r}, "
                f"payload={self.payload!r}, size_bytes={self.size_bytes}, "
                f"sent_at={self.sent_at})")

