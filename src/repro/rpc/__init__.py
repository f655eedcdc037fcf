"""RPC layer on top of the network substrate.

Request/response matching, handler dispatch, timeouts and retries.
Two features the CURP protocol specifically needs:

- **Early reply**: a handler can call ``ctx.reply(value)`` and keep
  executing.  This is how a speculative master responds to the client
  *before* the backup sync completes (§3.2.3).
- **Application error codes** (:class:`~repro.rpc.errors.AppError`):
  typed errors such as ``WRONG_WITNESS_VERSION`` or ``WRONG_SHARD`` that
  cross the wire and are re-raised at the caller, driving the client
  retry logic of §3.6.
"""

from repro.rpc.errors import AppError, RpcError, RpcTimeout
from repro.rpc.transport import RpcContext, RpcTransport
from repro.rpc.helpers import backoff_delay

__all__ = [
    "AppError",
    "RpcContext",
    "RpcError",
    "RpcTimeout",
    "RpcTransport",
    "backoff_delay",
]
