"""The simulator: virtual clock + event queue.

Time is a float; the repository convention is **microseconds**, matching
the paper's latency scale.  Scheduling order is a deterministic global
FIFO tiebreaker: two entries at the same instant dispatch in the order
they were scheduled, tracked by a monotonically increasing sequence
number.  Combined with a single seeded RNG this makes whole-cluster
experiments reproducible.

Hot-path design (see docs/PERFORMANCE.md):

- Entries scheduled **at the current instant** (zero-delay callbacks,
  triggered-event dispatch — the bulk of traffic once an RPC arrives)
  go on a FIFO *now queue* (a deque) instead of the binary heap, so the
  common case is O(1) append/popleft rather than O(log n) heap churn.
- Future entries live on a heap of ``(time, seq, kind, a, b)`` records;
  no closure is allocated per scheduled item.  ``kind`` selects one of
  three dispatch shapes inlined in the run loop.
- The now queue and the heap are merged by sequence number when both
  hold entries at the current time, so dispatch order is *identical* to
  a single global ``(time, seq)`` heap (the pre-refactor scheduler);
  the golden-trace test pins this equivalence.
- ``run()`` drains entries inline instead of calling ``step()`` per
  event; ``step()`` remains for callers that single-step, and
  dispatches in exactly the same order.
"""

from __future__ import annotations

import heapq
import random
import typing
from collections import deque

from repro.sim.events import AllOf, Event, Timeout
from repro.sim.processes import Process, ProcessGenerator

#: queue-record kinds: payload slots (a, b) per kind are
#: CALLBACK → (fn, args tuple), TIMEOUT → (event, value),
#: DISPATCH → (event, None), DELIVER → (host, payload)
_CALLBACK = 0
_TIMEOUT = 1
_DISPATCH = 2
_DELIVER = 3

_INFINITY = float("inf")


class Simulator:
    """Event queue, virtual clock and the root of all randomness."""

    def __init__(self, seed: int = 0):
        self.now: float = 0.0
        self.rng = random.Random(seed)
        self.seed = seed
        #: when True (default) a crashing process fails its Process event
        #: instead of propagating out of run(); tests may disable it.
        self.capture_process_errors = True
        #: future entries: (time, seq, kind, a, b)
        self._heap: list[tuple] = []
        #: entries at the current instant: (seq, kind, a, b)
        self._now_queue: deque[tuple] = deque()
        self._sequence = 0
        self._processed = 0

    # ------------------------------------------------------------------
    # factories
    # ------------------------------------------------------------------
    def event(self) -> Event:
        """A manually-triggered event (a future)."""
        return Event(self)

    def timeout(self, delay: float, value: typing.Any = None) -> Timeout:
        """An event that triggers ``delay`` µs from now."""
        return Timeout(self, delay, value)

    def process(self, generator: ProcessGenerator, name: str | None = None) -> Process:
        """Start a cooperative process from a generator."""
        return Process(self, generator, name=name)

    def all_of(self, events: typing.Sequence[Event]) -> AllOf:
        return AllOf(self, events)

    # ------------------------------------------------------------------
    # scheduling internals
    # ------------------------------------------------------------------
    def schedule_callback(self, delay: float,
                          fn: typing.Callable[..., None],
                          *args: typing.Any) -> None:
        """Low-level: run ``fn(*args)`` after ``delay`` µs.

        Passing arguments here instead of closing over them keeps the
        hot path allocation-free (no lambda per scheduled call).
        """
        # ``not >=`` rather than ``<``: NaN fails every comparison, and a
        # NaN key on the heap silently corrupts its order.
        if not delay >= 0:
            raise ValueError(f"negative or NaN delay: {delay}")
        self._sequence += 1
        if delay == 0.0:
            self._now_queue.append((self._sequence, _CALLBACK, fn, args))
        else:
            heapq.heappush(self._heap,
                           (self.now + delay, self._sequence, _CALLBACK,
                            fn, args))

    def schedule_at(self, time: float, fn: typing.Callable[..., None],
                    *args: typing.Any) -> None:
        """Low-level: run ``fn(*args)`` at absolute virtual ``time``.

        For callers that computed an instant earlier and must hit that
        exact float (an RPC deadline is ``issue_now + timeout``;
        re-deriving it as ``now + (deadline - now)`` is not bit-exact).
        ``time`` in the past, or NaN, raises ``ValueError``.
        """
        if not time >= self.now:
            raise ValueError(
                f"time={time} is in the past or NaN (now={self.now})")
        self._sequence += 1
        if time == self.now:
            self._now_queue.append((self._sequence, _CALLBACK, fn, args))
        else:
            heapq.heappush(self._heap,
                           (time, self._sequence, _CALLBACK, fn, args))

    def _schedule_timeout(self, event: Timeout, delay: float,
                          value: typing.Any) -> None:
        if not delay >= 0:
            raise ValueError(f"negative or NaN timeout delay: {delay}")
        self._sequence += 1
        if delay == 0.0:
            self._now_queue.append((self._sequence, _TIMEOUT, event, value))
        else:
            heapq.heappush(self._heap,
                           (self.now + delay, self._sequence, _TIMEOUT,
                            event, value))

    def _enqueue_triggered(self, event: Event) -> None:
        """Queue callback dispatch for an event triggered at `now`."""
        self._sequence += 1
        self._now_queue.append((self._sequence, _DISPATCH, event, None))

    def _schedule_deliver(self, delay: float, host: typing.Any,
                          payload: typing.Any) -> None:
        """Message-delivery record: ``payload`` reaches ``host`` after
        ``delay``; ``host._deliver(payload)`` runs ``host._rx_lead``
        later (an independent RX path's cost, so that one record covers
        arrival and RX completion; else 0.0, and ``x + 0.0`` is ``x``).
        A dedicated kind so the network's per-message schedule allocates
        one record tuple and nothing else."""
        self._sequence += 1
        lead = host._rx_lead
        if delay == 0.0 and lead == 0.0:
            self._now_queue.append((self._sequence, _DELIVER, host, payload))
        else:
            # (now + delay) is the arrival instant exactly as it always
            # was computed; the lead is added to that, not to the delay.
            heapq.heappush(self._heap,
                           (self.now + delay + lead, self._sequence,
                            _DELIVER, host, payload))

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def _dispatch(self, kind: int, a: typing.Any, b: typing.Any) -> None:
        self._processed += 1
        if kind == _CALLBACK:
            a(*b)
        elif kind == _DELIVER:
            a._deliver(b)
        elif kind == _TIMEOUT:
            a._triggered = True
            a._value = b
            a._dispatch()
        else:
            a._dispatch()

    def step(self) -> bool:
        """Dispatch one queue entry; False when the queue is empty.

        The now queue (entries scheduled at the current instant) and the
        heap are merged by sequence number so dispatch order matches a
        single global ``(time, seq)`` queue exactly.
        """
        now_queue = self._now_queue
        heap = self._heap
        if now_queue:
            if heap and heap[0][0] <= self.now \
                    and heap[0][1] < now_queue[0][0]:
                _at, _seq, kind, a, b = heapq.heappop(heap)
            else:
                _seq, kind, a, b = now_queue.popleft()
            self._dispatch(kind, a, b)
            return True
        if heap:
            at, _seq, kind, a, b = heapq.heappop(heap)
            if at < self.now:  # pragma: no cover - defensive
                raise RuntimeError("time went backwards")
            self.now = at
            self._dispatch(kind, a, b)
            return True
        return False

    def run(self, until: float | Event | None = None,
            max_steps: int | None = None) -> typing.Any:
        """Run the simulation.

        ``until`` may be:

        - None: run until the queue drains.
        - a float: run until the clock reaches that time (clock is set to
          ``until`` on return even if the queue drained earlier).
        - an :class:`Event`: run until the event triggers, and return its
          value (or raise its failure).  Raises ``RuntimeError`` if the
          queue drains first — that means deadlock.
        """
        # The three modes share one inlined drain loop; per-event work is
        # a merged pop plus a three-way kind switch, with no per-event
        # method call.  Locals are bound up front — this loop is the
        # hottest code in the repository.
        now_queue = self._now_queue
        popleft = now_queue.popleft
        heap = self._heap
        heappop = heapq.heappop
        bound = _INFINITY if max_steps is None else max_steps
        steps = 0

        if isinstance(until, Event):
            deadline = _INFINITY
            stop_event: Event | None = until
        elif until is None:
            deadline = _INFINITY
            stop_event = None
        else:
            deadline = float(until)
            stop_event = None
            if deadline < self.now:
                raise ValueError(
                    f"until={deadline} is in the past (now={self.now})")

        # ``steps`` is flushed into the processed counter in the finally
        # block (additive, so nested run()/step() calls stay correct).
        try:
            while True:
                if stop_event is not None and stop_event._triggered:
                    return stop_event.value
                if now_queue:
                    # Merge: a heap entry at the current time with a
                    # smaller sequence number was scheduled earlier and
                    # must win.
                    if heap and heap[0][0] <= self.now \
                            and heap[0][1] < now_queue[0][0]:
                        entry = heappop(heap)
                        kind, a, b = entry[2], entry[3], entry[4]
                    else:
                        _seq, kind, a, b = popleft()
                elif heap and heap[0][0] <= deadline:
                    # Heap entries still at the current instant land
                    # here too (deadline >= now): same order, same clock.
                    at, _seq, kind, a, b = heappop(heap)
                    if at < self.now:  # pragma: no cover - defensive
                        raise RuntimeError("time went backwards")
                    self.now = at
                else:
                    break
                # Count before dispatching (as step() does) so an entry
                # whose callback raises is still counted as processed.
                steps += 1
                if kind == _CALLBACK:
                    a(*b)
                elif kind == _DELIVER:
                    a._deliver(b)
                elif kind == _TIMEOUT:
                    a._triggered = True
                    a._value = b
                    a._dispatch()
                else:
                    a._dispatch()
                if steps >= bound:
                    raise RuntimeError(f"exceeded max_steps={max_steps}")
        finally:
            self._processed += steps

        if stop_event is not None:
            raise RuntimeError(
                f"simulation deadlocked waiting for {stop_event!r}")
        if deadline is not _INFINITY:
            self.now = deadline
        return None

    @property
    def queue_length(self) -> int:
        return len(self._now_queue) + len(self._heap)

    @property
    def processed_events(self) -> int:
        return self._processed

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Simulator t={self.now} queue={self.queue_length}>"
