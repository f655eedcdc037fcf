"""Redis-like in-memory structure store + CURP durability (§5.4).

The paper's second testbed: Redis is fast but its only durability
mechanism — fsync an append-only file (AOF) before replying — costs
10-100×.  CURP hides the fsync: clients record commands on witnesses
while the server replies immediately and fsyncs in the background.  The
"backup" in this instantiation is the local AOF, demonstrating the
paper's point that CURP works with *any* backup mechanism.

Pieces:

- :mod:`~repro.redislike.datastructures` — strings, hashes, lists,
  sets, counters with Redis type-checking semantics.
- :mod:`~repro.redislike.commands` — the command table (SET, GET,
  HMSET, HGET, INCR, LPUSH, RPUSH, LRANGE, SADD, SMEMBERS, DEL ...)
  with per-command write/read key classification (what witnesses hash).
- :mod:`~repro.redislike.aof` — the append-only file, fsynced on its
  host's disk with NVMe-calibrated latency (50–100 µs, Table 1).
- :mod:`~repro.redislike.server` — the single-threaded event-loop
  server with three durability modes: NONDURABLE (stock Redis),
  DURABLE (fsync-always, with the event-loop fsync batching of §C.2),
  and CURP (speculative replies + witnesses).
- :mod:`~repro.redislike.client` — clients for all three modes,
  including the parallel witness-record fast path.
"""

from repro.redislike.commands import Command, CommandError, REGISTRY
from repro.redislike.datastructures import RedisStore, WrongTypeError
from repro.redislike.aof import AppendOnlyFile
from repro.redislike.server import DurabilityMode, RedisServer
from repro.redislike.client import RedisClient

__all__ = [
    "AppendOnlyFile",
    "Command",
    "CommandError",
    "DurabilityMode",
    "REGISTRY",
    "RedisClient",
    "RedisServer",
    "RedisStore",
    "WrongTypeError",
]
