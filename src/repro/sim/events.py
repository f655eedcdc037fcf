"""Events: the unit of synchronization in the simulator.

An :class:`Event` starts *pending*, becomes *triggered* exactly once
(either succeeded with a value or failed with an exception), and then
invokes its callbacks.  Processes wait on events by ``yield``-ing them;
the simulator resumes the process when the event triggers.

Combinators:

- :class:`AllOf` triggers when every child has triggered (used by the
  workload drivers and cold control-plane code joining ``call`` events).
- :class:`AnyOf` triggers when the first child triggers (used for
  timeouts racing a response).
- :class:`QuorumEvent` is the allocation-free hot-path join: armed with
  ``need``/``total`` counts, children report through bound-method
  callbacks, and results land in a pre-sized list — no per-trigger dict
  and no child-watcher closures.  The CURP 1 + f fan-out makes one of
  these per update, so its footprint matters (docs/PERFORMANCE.md).

Completion paths: a process *yields* an event (the simulator resumes
the generator), or a plain callback waits via :meth:`Event.add_callback`
/ :meth:`Event.when_done` — the direct-callback path skips generator
resumption entirely and is what ``RpcTransport.call_cb`` and
:class:`QuorumEvent` build on.
"""

from __future__ import annotations

import typing

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.simulator import Simulator


class EventFailed(Exception):
    """Raised inside a process when the event it waited on failed."""


class Event:
    """A one-shot occurrence at a point in virtual time."""

    __slots__ = ("sim", "callbacks", "_value", "_exception", "_triggered")

    def __init__(self, sim: "Simulator"):
        self.sim = sim
        self.callbacks: list[typing.Callable[[Event], None]] | None = []
        self._value: typing.Any = None
        self._exception: BaseException | None = None
        self._triggered = False

    # ------------------------------------------------------------------
    # state inspection
    # ------------------------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once the event has succeeded or failed."""
        return self._triggered

    @property
    def ok(self) -> bool:
        """True if the event triggered successfully."""
        return self._triggered and self._exception is None

    @property
    def value(self) -> typing.Any:
        """The success value (or raises the failure exception)."""
        if not self._triggered:
            raise RuntimeError("event has not triggered yet")
        if self._exception is not None:
            raise self._exception
        return self._value

    @property
    def exception(self) -> BaseException | None:
        return self._exception

    # ------------------------------------------------------------------
    # triggering
    # ------------------------------------------------------------------
    def succeed(self, value: typing.Any = None) -> "Event":
        """Trigger the event successfully; callbacks run at `now`."""
        if self._triggered:
            raise RuntimeError("event already triggered")
        self._triggered = True
        self._value = value
        self.sim._enqueue_triggered(self)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with a failure; waiters see the exception."""
        if self._triggered:
            raise RuntimeError("event already triggered")
        if not isinstance(exception, BaseException):
            raise TypeError("fail() requires an exception instance")
        self._triggered = True
        self._exception = exception
        self.sim._enqueue_triggered(self)
        return self

    def add_callback(self, callback: typing.Callable[["Event"], None]) -> None:
        """Run ``callback(event)`` when the event triggers.

        If the event already ran its callbacks, the callback fires on the
        next simulator step (still at the current virtual time).
        """
        if self.callbacks is None:
            # Already dispatched: schedule an immediate delivery.
            self.sim.schedule_callback(0.0, callback, self)
        else:
            self.callbacks.append(callback)

    def when_done(self, callback: typing.Callable[..., None],
                  *args: typing.Any) -> None:
        """Run ``callback(event, *args)`` when the event triggers.

        The direct-callback completion path: like :meth:`add_callback`
        but carrying arguments in the callback record, so continuation-
        style waiters (the protocol fast paths) need no closure per
        wait.  Dispatch ordering is identical to ``add_callback``.
        """
        if self.callbacks is None:
            self.sim.schedule_callback(0.0, callback, self, *args)
        else:
            self.callbacks.append((callback, args))

    def _dispatch(self) -> None:
        """Invoked by the simulator to run callbacks (exactly once)."""
        callbacks, self.callbacks = self.callbacks, None
        assert callbacks is not None
        for callback in callbacks:
            if type(callback) is tuple:
                callback[0](self, *callback[1])
            else:
                callback(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "pending"
        if self._triggered:
            state = "ok" if self._exception is None else "failed"
        return f"<{type(self).__name__} {state} at t={self.sim.now}>"


class Timeout(Event):
    """An event that triggers ``delay`` time units after creation."""

    __slots__ = ("delay",)

    def __init__(self, sim: "Simulator", delay: float, value: typing.Any = None):
        super().__init__(sim)
        self.delay = delay
        # validates: a negative or NaN delay raises ValueError
        sim._schedule_timeout(self, delay, value)


class _Condition(Event):
    """Base for AllOf/AnyOf: watches child events."""

    __slots__ = ("events", "_pending")

    def __init__(self, sim: "Simulator", events: typing.Sequence[Event]):
        super().__init__(sim)
        self.events = list(events)
        self._pending = len(self.events)
        if not self.events:
            self.succeed({})
            return
        for event in self.events:
            if event.triggered:
                # Deliver through the queue for deterministic ordering.
                self.sim.schedule_callback(0.0, self._child_done, event)
            else:
                event.add_callback(self._child_done)

    def _child_done(self, event: Event) -> None:
        raise NotImplementedError

    def _values(self) -> dict[Event, typing.Any]:
        return {e: e._value for e in self.events if e.triggered and e.ok}


class AllOf(_Condition):
    """Triggers when all children triggered.

    Succeeds with ``{event: value}`` for all children.  Fails as soon as
    any child fails (remaining children keep running).
    """

    __slots__ = ()

    def _child_done(self, event: Event) -> None:
        if self.triggered:
            return
        if not event.ok:
            self.fail(event._exception)  # type: ignore[arg-type]
            return
        self._pending -= 1
        if self._pending == 0:
            self.succeed(self._values())


class AnyOf(_Condition):
    """Triggers when the first child triggers (success or failure)."""

    __slots__ = ()

    def _child_done(self, event: Event) -> None:
        if self.triggered:
            return
        if not event.ok:
            self.fail(event._exception)  # type: ignore[arg-type]
            return
        self.succeed(self._values())


class QuorumEvent(Event):
    """Allocation-free join of ``total`` children, done after ``need``.

    The hot-path replacement for :class:`AllOf` on the CURP operation
    path (one join per update: master reply + f witness records).
    Differences that make it cheap:

    - results land in a **pre-sized list** (``results[i]`` is child
      ``i``'s value, or its exception instance on failure) — no
      ``{event: value}`` dict per trigger;
    - children report through the **bound-method callback**
      :meth:`child_result`, handed to ``RpcTransport.call_cb`` — no
      child :class:`Event` and no per-child watcher closure;
    - succeeds with the results list once ``need`` children reported
      (default: all of them); later reports are ignored.

    ``fail_fast=True`` reproduces :class:`AllOf`'s failure contract:
    the first child *exception* fails the join immediately (remaining
    children keep running and are ignored).  With the default
    ``fail_fast=False`` exceptions are stored in ``results`` and the
    join always completes — protocol code inspects per-child outcomes,
    which is exactly what the CURP client needs (a witness timeout is
    data, not an error).
    """

    __slots__ = ("results", "need", "_reported", "_fail_fast")

    def __init__(self, sim: "Simulator", total: int,
                 need: int | None = None, fail_fast: bool = False):
        super().__init__(sim)
        if total < 0:
            raise ValueError(f"total must be >= 0: {total}")
        self.need = total if need is None else need
        if not 0 <= self.need <= total:
            raise ValueError(f"need {self.need} outside [0, {total}]")
        self.results: list[typing.Any] = [None] * total
        self._reported = 0
        self._fail_fast = fail_fast
        if self.need == 0:
            self.succeed(self.results)

    def child_result(self, index: int, value: typing.Any,
                     error: BaseException | None = None) -> None:
        """Bound-method reporter: child ``index`` finished.

        Pass this (plus the index) straight to ``call_cb`` — the RPC
        layer invokes it with ``(value, error)`` on completion.
        """
        if self._triggered:
            return  # already done (need < total) or failed fast
        if error is not None:
            if self._fail_fast:
                self.fail(error)
                return
            self.results[index] = error
        else:
            self.results[index] = value
        self._reported += 1
        if self._reported >= self.need:
            self.succeed(self.results)
