"""Generator-based cooperative processes.

A process is a Python generator that yields :class:`~repro.sim.events.Event`
objects.  When the yielded event triggers, the simulator resumes the
generator with the event's value (``event.value`` is sent in), or throws
the event's failure exception into it.  A process is itself an event: it
triggers when the generator returns (value = return value) or raises.

Processes can be interrupted (e.g. when the host they run on crashes):
:meth:`Process.interrupt` raises :class:`Interrupt` inside the generator
at its current yield point.
"""

from __future__ import annotations

import typing

from repro.sim.events import Event

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.sim.simulator import Simulator

ProcessGenerator = typing.Generator[Event, typing.Any, typing.Any]


class Interrupt(Exception):
    """Raised inside a process that has been interrupted."""

    def __init__(self, cause: typing.Any = None):
        super().__init__(cause)
        self.cause = cause


class Process(Event):
    """An executing generator, resumable on events it yields."""

    __slots__ = ("generator", "target", "name")

    def __init__(self, sim: "Simulator", generator: ProcessGenerator,
                 name: str | None = None):
        super().__init__(sim)
        if not hasattr(generator, "send"):
            raise TypeError(f"process target must be a generator, got {generator!r}")
        self.generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        #: the event this process is currently waiting on (None before
        #: first resume and after completion)
        self.target: Event | None = None
        # Kick off on the next simulator step at the current time.
        sim.schedule_callback(0.0, self._resume, None, None)

    def interrupt(self, cause: typing.Any = None) -> None:
        """Throw :class:`Interrupt` into the generator.

        Interrupting a completed process is a no-op, so crash paths can
        interrupt indiscriminately.
        """
        if self.triggered:
            return
        # Detach from the event we were waiting on: when that event
        # triggers later, _resume must ignore it.
        self.target = None
        self.sim.schedule_callback(0.0, self._resume, None, Interrupt(cause))

    # ------------------------------------------------------------------
    def _on_target(self, event: Event) -> None:
        if self.target is not event:
            return  # interrupted while waiting; stale wakeup
        self.target = None
        # A failed event's ``_value`` is None, a successful one's
        # ``_exception`` is None: hand both over as they are.
        self._resume(event._value, event._exception)

    def _resume(self, value: typing.Any, exc: BaseException | None) -> None:
        if self._triggered:
            return
        try:
            if exc is not None:
                target = self.generator.throw(exc)
            else:
                target = self.generator.send(value)
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        except BaseException as error:
            if not self.sim.capture_process_errors:
                raise
            self.fail(error)
            return
        if not isinstance(target, Event):
            # Throw back into the generator so the offending yield shows
            # in the traceback.
            self.sim.schedule_callback(
                0.0, self._resume, None,
                TypeError(f"process yielded non-event: {target!r}"))
            return
        self.target = target
        target.add_callback(self._on_target)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "alive" if not self.triggered else ("ok" if self.ok else "failed")
        return f"<Process {self.name} {state}>"
