"""Request/response transport bound to one host.

One :class:`RpcTransport` per host.  Handlers are registered per method
name and may be:

- plain functions ``handler(args, ctx) -> value`` — the return value is
  the reply, or
- generator functions that yield simulator events (e.g. a master
  handler that executes, replies early via ``ctx.reply``, then yields on
  the backup sync).  The generator runs as a host process, so it dies
  if the host crashes mid-handler — exactly the failure CURP recovery
  has to cope with.

Frame coalescing (``CurpConfig.frame_coalescing``): every request and
response leaves through ``Host.send``, so ``call``/``call_cb``
fan-outs and batched replies route through the per-destination frame
buffer automatically — same-instant calls to one destination (a
pipelined client's updates, a master's replies to one client) ride
one NIC frame,
flushed at the simulator's end-of-instant boundary.  The transport is
oblivious: frames are unpacked back into per-RPC messages, in send
order, before ``_on_message`` sees them.

Deadlines are transport state, not kernel events.  In the normal case
no RPC times out, so a timer record per call would sit on the
simulator's heap for the whole timeout horizon and then fire as a
no-op.  Instead each transport keeps its calls' deadlines in FIFO
queues — one per distinct timeout value, because ``now`` is monotone
and so deadlines for one value are issued in order — drops the heads
whose calls completed as responses arrive, and keeps at most one armed
kernel record, for the earliest deadline still live.  When that record
fires it times out every due call still pending and re-arms for the
next live head.  A call expires at exactly ``issue_now + timeout``,
and a response delivered at that very instant loses to the deadline.
"""

from __future__ import annotations

import typing
from collections import deque
from types import GeneratorType

from repro.net.host import Host
from repro.rpc.errors import AppError, RemoteError, RpcTimeout
from repro.sim.events import Event

_NEVER = float("inf")


class RpcRequest:
    """Request frame (slotted: one per simulated RPC — hot path)."""

    __slots__ = ("seq", "reply_to", "method", "args")

    def __init__(self, seq: int, reply_to: str, method: str,
                 args: typing.Any):
        self.seq = seq
        self.reply_to = reply_to
        self.method = method
        self.args = args

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"RpcRequest(seq={self.seq}, reply_to={self.reply_to!r}, "
                f"method={self.method!r}, args={self.args!r})")


class RpcResponse:
    """Response frame (slotted: one per simulated RPC — hot path)."""

    __slots__ = ("seq", "ok", "value", "error_code", "error_info")

    def __init__(self, seq: int, ok: bool, value: typing.Any = None,
                 error_code: str | None = None,
                 error_info: typing.Any = None):
        self.seq = seq
        self.ok = ok
        self.value = value
        self.error_code = error_code
        self.error_info = error_info

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"RpcResponse(seq={self.seq}, ok={self.ok}, "
                f"value={self.value!r}, error_code={self.error_code!r}, "
                f"error_info={self.error_info!r})")


class RpcContext:
    """Handed to handlers: request metadata + the early-reply hook.

    Slotted: one per handled request — hot path.
    """

    __slots__ = ("_transport", "_request", "_response_size", "replied",
                 "src")

    def __init__(self, transport: "RpcTransport", request: RpcRequest,
                 response_size: int):
        self._transport = transport
        self._request = request
        self._response_size = response_size
        self.replied = False
        #: source host name of the request
        self.src = request.reply_to

    def reply(self, value: typing.Any = None) -> None:
        """Send the response now; the handler may keep running."""
        if self.replied:
            raise RuntimeError("reply() called twice")
        self.replied = True
        request = self._request
        self._transport.host.send(request.reply_to,
                                  RpcResponse(request.seq, True, value),
                                  self._response_size)

    def reply_error(self, code: str, info: typing.Any = None) -> None:
        if self.replied:
            raise RuntimeError("reply() called twice")
        self.replied = True
        request = self._request
        self._transport.host.send(
            request.reply_to,
            RpcResponse(request.seq, False, None, code, info),
            self._response_size)

    def reply_exception(self, error: BaseException) -> None:
        """Serialize a handler failure to the caller, unless a reply
        already went out: an :class:`AppError` keeps its code and info,
        anything else becomes ``REMOTE_ERROR``."""
        if self.replied:
            return
        if isinstance(error, AppError):
            self.reply_error(error.code, error.info)
        else:
            self.reply_error("REMOTE_ERROR",
                             f"{type(error).__name__}: {error}")


class RpcTransport:
    """RPC endpoint for a single host."""

    #: wire size (bytes) charged per request/response when unspecified;
    #: roughly a 100 B object write plus headers, per the paper's workloads
    DEFAULT_SIZE = 130

    #: sentinel a handler may return to take ownership of replying later
    #: (e.g. an event-loop server that batches replies across requests)
    DEFERRED = object()

    def __init__(self, host: Host):
        self.host = host
        self.sim = host.sim
        self._handlers: dict[str, typing.Callable] = {}
        #: in-flight calls by sequence number.  A value is either an
        #: :class:`Event` (``call``) or an ``(on_done, extra_args)``
        #: tuple (``call_cb``).  Entries are removed on exactly one of:
        #: response arrival, timeout expiry, or host crash — the
        #: timeout/response race is safe because whichever fires first
        #: pops the entry and the loser's ``pop`` finds nothing
        #: (tests/rpc/test_transport.py pins the map draining to empty).
        self._pending: dict[int, typing.Any] = {}
        self._next_seq = 0
        #: timeout value → FIFO of ``(deadline, seq, dst, method)`` for
        #: calls issued with it, oldest (= earliest deadline) first
        self._deadlines: dict[float, deque[tuple]] = {}
        #: instant of the armed kernel record (``_NEVER`` = none).
        #: Invariant: no later than any live deadline.
        self._armed_at = _NEVER
        #: instance-bound copies of the class constants: one dict probe
        #: instead of two on every call/handle (hot path)
        self._default_size = RpcTransport.DEFAULT_SIZE
        self._deferred = RpcTransport.DEFERRED
        host.set_message_handler(self._on_message)
        host.on_crash(self._on_crash)

    # ------------------------------------------------------------------
    # client side
    # ------------------------------------------------------------------
    def call(self, dst: str, method: str, args: typing.Any = None,
             timeout: float | None = None,
             request_size: int | None = None) -> Event:
        """Send a request; returns an event for the response value.

        The event fails with :class:`RpcTimeout` if no response arrives
        within ``timeout`` µs, with :class:`AppError` if the handler
        raised one, or with :class:`RemoteError` on unexpected handler
        exceptions.

        This is the generator-friendly wrapper (``yield`` the returned
        event); hot-path fan-outs use :meth:`call_cb`, which skips the
        per-call event and its queue dispatch entirely.
        """
        self._next_seq += 1
        seq = self._next_seq
        result = Event(self.sim)
        self._pending[seq] = result
        request = RpcRequest(seq, self.host.name, method, args)
        self.host.send(dst, request, request_size or self._default_size)
        if timeout is not None:
            self._watch_deadline(timeout, seq, dst, method)
        return result

    def call_cb(self, dst: str, method: str, args: typing.Any,
                on_done: typing.Callable[..., None],
                *cb_args: typing.Any,
                timeout: float | None = None,
                request_size: int | None = None) -> None:
        """Send a request; invoke ``on_done(*cb_args, value, error)``.

        The allocation-free completion path: no :class:`Event`, no
        generator process, no extra queue entry — ``on_done`` runs
        directly inside the response-delivery (or timeout) dispatch.
        Exactly one of ``value``/``error`` is meaningful: ``error`` is
        ``None`` on success, else the :class:`RpcTimeout` /
        :class:`AppError` / :class:`RemoteError` the ``call`` event
        would have failed with.  ``cb_args`` ride in the pending-map
        record, so callers can thread an index (e.g.
        ``QuorumEvent.child_result``) without building a closure.

        Note the ordering difference from :meth:`call`: completions run
        at response *delivery* rather than one queue entry later, so
        within one virtual instant a ``call_cb`` continuation runs
        before same-instant entries queued behind the delivery.  Code
        that must reproduce the legacy dispatch sequence (the golden
        trace) keeps using :meth:`call`.
        """
        self._next_seq += 1
        seq = self._next_seq
        # No extra args (the common single-call case): store the bare
        # callable and skip two tuple allocations per call.
        self._pending[seq] = (on_done, cb_args) if cb_args else on_done
        host = self.host
        host.send(dst, RpcRequest(seq, host.name, method, args),
                  request_size or self._default_size)
        if timeout is not None:
            # _watch_deadline, inlined: one per hot-path RPC.
            deadline = self.sim.now + timeout
            queue = self._deadlines.get(timeout)
            if queue is None:
                queue = self._deadlines[timeout] = deque()
            queue.append((deadline, seq, dst, method))
            if not deadline >= self._armed_at:
                self._arm(deadline)

    def _watch_deadline(self, timeout: float, seq: int, dst: str,
                        method: str) -> None:
        deadline = self.sim.now + timeout
        queue = self._deadlines.get(timeout)
        if queue is None:
            queue = self._deadlines[timeout] = deque()
        queue.append((deadline, seq, dst, method))
        # ``not >=`` so that a NaN timeout reaches schedule_at and
        # raises there, like a negative one, instead of never expiring.
        if not deadline >= self._armed_at:
            self._arm(deadline)

    def _arm(self, deadline: float) -> None:
        # A record armed earlier for a later instant stays on the heap
        # (kernel records cannot be withdrawn); _on_deadline tells it
        # apart by its instant.  That only happens when a shorter
        # timeout is issued behind a longer one, never per call.
        self._armed_at = deadline
        self.sim.schedule_at(deadline, self._on_deadline, deadline)

    def _on_deadline(self, armed_at: float) -> None:
        if armed_at == self._armed_at:
            self._expire_due()
        # else: superseded by an earlier record, or disarmed by a crash

    def _expire_due(self) -> None:
        """Time out every pending call whose deadline has come, then
        re-arm for the earliest deadline still live."""
        # Disarm first: a continuation that issues a call from inside
        # its timeout (a retry) arms for itself.
        self._armed_at = _NEVER
        now = self.sim.now
        pending = self._pending
        due = []
        for timeout, queue in self._deadlines.items():
            while queue and queue[0][0] <= now:
                _deadline, seq, dst, method = queue.popleft()
                if seq in pending:
                    due.append((seq, dst, method, timeout))
        if len(due) > 1:
            # Calls due at one instant expire in issue order, whichever
            # queue they came from.
            due.sort()
        for seq, dst, method, timeout in due:
            waiter = pending.pop(seq, None)
            if waiter is None:
                continue  # an earlier continuation crashed this host
            kind = type(waiter)
            if kind is Event:
                if not waiter.triggered:
                    waiter.fail(RpcTimeout(dst, method, timeout))
            elif kind is tuple:
                on_done, cb_args = waiter
                on_done(*cb_args, None, RpcTimeout(dst, method, timeout))
            else:
                waiter(None, RpcTimeout(dst, method, timeout))
        # Keep only queues with a live head: a caller that computes its
        # timeouts (adaptive probe deadlines) must not leave one empty
        # queue behind per value it ever used.
        live = {}
        earliest = _NEVER
        for timeout, queue in self._deadlines.items():
            while queue and queue[0][1] not in pending:
                queue.popleft()
            if queue:
                live[timeout] = queue
                if queue[0][0] < earliest:
                    earliest = queue[0][0]
        self._deadlines = live
        if earliest < self._armed_at:
            self._arm(earliest)

    def _on_crash(self) -> None:
        # In-flight calls die with the host; waiting processes were
        # interrupted by Host.crash already, and call_cb continuations
        # belong to servers/clients on this host whose state is being
        # dropped — so just forget the lot, deadlines included; the
        # armed record finds itself disarmed and does nothing.  (A late
        # response for a pre-crash seq finds nothing to pop; seqs are
        # never reused because _next_seq survives the crash.)
        self._pending.clear()
        self._deadlines.clear()
        self._armed_at = _NEVER

    @property
    def pending_calls(self) -> int:
        """In-flight call count (leak regression tests read this)."""
        return len(self._pending)

    @property
    def watched_deadlines(self) -> int:
        """Deadline-queue entries, completed calls not yet trimmed
        included (leak regression tests read this)."""
        return sum(len(queue) for queue in self._deadlines.values())

    # ------------------------------------------------------------------
    # server side
    # ------------------------------------------------------------------
    def register(self, method: str, handler: typing.Callable) -> None:
        """Register ``handler(args, ctx)`` for a method name."""
        if method in self._handlers:
            raise ValueError(f"handler already registered for {method}")
        self._handlers[method] = handler

    def unregister(self, method: str) -> None:
        self._handlers.pop(method, None)

    # ------------------------------------------------------------------
    # message pump
    # ------------------------------------------------------------------
    def _on_message(self, message: typing.Any) -> None:
        # Both halves of the pump inline: one Python frame per delivered
        # message.  Exact type checks: the frame classes are final.
        payload = message.payload
        payload_type = type(payload)
        if payload_type is RpcResponse:
            if self._armed_at <= self.sim.now:
                # A deadline falls on this very instant and its record
                # has not dispatched yet.  The deadline wins such a tie
                # (it was queued at issue time, before the response was
                # even sent), so run it first; the armed record then
                # finds nothing due.
                self._expire_due()
            pending = self._pending
            result = pending.pop(payload.seq, None)
            if result is None:
                return  # timed out or duplicate
            for queue in self._deadlines.values():
                while queue and queue[0][1] not in pending:
                    queue.popleft()
            kind = type(result)
            if kind is Event:
                if result.triggered:
                    return
                if payload.ok:
                    result.succeed(payload.value)
                else:
                    result.fail(self._response_error(payload))
            elif kind is tuple:
                # call_cb with extra args: the continuation runs here.
                on_done, cb_args = result
                if payload.ok:
                    on_done(*cb_args, payload.value, None)
                else:
                    on_done(*cb_args, None, self._response_error(payload))
            elif payload.ok:
                result(payload.value, None)
            else:
                result(None, self._response_error(payload))
        elif payload_type is RpcRequest:
            handler = self._handlers.get(payload.method)
            ctx = RpcContext(self, payload, self._default_size)
            if handler is None:
                ctx.reply_error("NO_SUCH_METHOD", payload.method)
                return
            try:
                outcome = handler(payload.args, ctx)
            except Exception as error:  # noqa: BLE001 - serialize to caller
                ctx.reply_exception(error)
                return
            if outcome is self._deferred:
                return
            if type(outcome) is GeneratorType:
                self._run_handler_process(outcome, ctx, payload)
            elif not ctx.replied:
                ctx.reply(outcome)
        # anything else: not RPC traffic; ignore

    def _run_handler_process(self, generator: typing.Generator,
                             ctx: RpcContext, request: RpcRequest) -> None:
        process = self.host.spawn(generator, name=f"rpc:{request.method}")

        def finish(event: Event) -> None:
            if ctx.replied:
                return
            if event.ok:
                ctx.reply(event._value)
            else:
                # Host crash interrupts leave no reply — the caller
                # times out, as with a real crashed server.
                from repro.sim.processes import Interrupt
                if not isinstance(event.exception, Interrupt):
                    ctx.reply_exception(event.exception)
        process.add_callback(finish)

    def _response_error(self, response: RpcResponse) -> Exception:
        if response.error_code == "REMOTE_ERROR":
            return RemoteError(self.host.name, "?", str(response.error_info))
        return AppError(response.error_code or "UNKNOWN",
                        response.error_info)
