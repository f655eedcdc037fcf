"""Network fabric substrate.

Models the pieces of a datacenter network that the paper's evaluation
depends on:

- :class:`~repro.net.host.Host` — a machine with a NIC that serializes
  outgoing messages (per-message TX cost), crash/restart semantics, and
  a registry of the processes running on it.
- :class:`~repro.net.network.Network` — delivers messages between hosts
  with a configurable one-way latency model, drop probability and
  partitions; counts messages/bytes for the traffic-amplification
  analysis of §5.2.
- :class:`~repro.net.latency.LatencyModel` — per-pair one-way latency
  distributions (e.g. intra-datacenter vs wide-area links for the
  geo-replication example).
"""

from repro.net.host import Host
from repro.net.latency import LatencyModel
from repro.net.message import Message
from repro.net.network import Network

__all__ = ["Host", "LatencyModel", "Message", "Network"]
