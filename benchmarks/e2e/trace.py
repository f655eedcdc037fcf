"""Span tracer for the per-layer ledger.

Installed by the *traced* child only, before the cluster is built.  It
replaces each layer's public entry points with timing wrappers and wraps
every callable handed across a layer boundary (RPC handlers, message
handlers, continuations, spawned generators), so host time spent inside
the simulator is attributed to the layer whose code is running.

A span is (layer, name, start, end, parent, rpc_id).  Spans nest on a
stack; a layer's self time is its spans' durations minus the time their
child spans cover.  Spans are aggregated per (layer, name) in memory;
raw spans are kept for the first ``RAW_OPS`` distinct RIFL ids only.

The wrappers only read the clock and count: they schedule nothing and
draw nothing, so a traced run dispatches exactly the events of an
untraced one (``run.py --check`` asserts it).  Every entry point is
looked up by name; one that no longer exists is listed in
``Tracer.missing`` and skipped, so refactors of ``src/`` cannot break
the untraced end-to-end numbers and at worst thin out the ledger.
"""

from __future__ import annotations

import importlib
import json
import sys
from time import perf_counter_ns
from types import FunctionType, GeneratorType, MethodType

#: the ledger's layers: this repo's packages, ``core`` split by file
LAYERS = ("sim", "net", "rpc", "core.client", "core.master", "core.witness",
          "kvstore", "rifl", "cluster", "workload")

#: raw spans are retained until this many distinct RIFL ids were seen …
RAW_OPS = 200
#: … or this many spans, whichever comes first (reads carry no RIFL id)
RAW_SPAN_CAP = 60_000

_CORE_FILES = {"client": "core.client", "transactions": "core.client",
               "witness": "core.witness", "witness_cache": "core.witness"}


def layer_of(module: str | None) -> str:
    """Layer owning a callable defined in ``module``.

    ``repro.<package>`` maps to ``<package>``; ``repro.core`` is split
    by file (client-side, witness-side, everything else is the master).
    Code outside ``repro`` is the benchmark's own driver, which only
    generates load and records latency: it counts as ``workload``.
    """
    parts = (module or "").split(".")
    if parts[0] != "repro" or len(parts) < 2:
        return "workload"
    if parts[1] == "core":
        return _CORE_FILES.get(parts[2] if len(parts) > 2 else "",
                               "core.master")
    return parts[1]


#: (module, class or None, attribute, kind).  Kinds: ``call`` times the
#: call; ``gen`` times each resume of the generator the call returns;
#: ``hand:<i>`` times the call and first wraps the callable passed as
#: positional argument ``i`` (``self`` is 0), so that it is timed when
#: the receiver later runs it; ``pass:<i>`` only wraps that argument
#: (for receivers too trivial to be worth a span of their own).
ENTRY_POINTS = (
    ("repro.sim.simulator", "Simulator", "run", "call"),
    ("repro.sim.simulator", "Simulator", "step", "call"),
    ("repro.sim.simulator", "Simulator", "schedule_callback", "hand:2"),
    ("repro.sim.simulator", "Simulator", "timeout", "call"),
    ("repro.sim.simulator", "Simulator", "process", "hand:1"),
    ("repro.sim.events", "Event", "add_callback", "pass:1"),
    ("repro.sim.events", "Event", "when_done", "pass:1"),
    ("repro.sim.resources", "Resource", "request", "call"),
    ("repro.sim.resources", "Resource", "try_acquire", "call"),
    ("repro.sim.resources", "Resource", "release", "call"),
    ("repro.sim.resources", "Resource", "use", "gen"),
    ("repro.net.host", "Host", "send", "call"),
    ("repro.net.host", "Host", "spawn", "hand:1"),
    ("repro.net.host", "Host", "set_message_handler", "hand:1"),
    # not public, but it is the callable the kernel's delivery record
    # hands a message to: without it rx handling reads as sim time
    ("repro.net.host", "Host", "_deliver", "call"),
    ("repro.rpc.transport", "RpcTransport", "call", "call"),
    ("repro.rpc.transport", "RpcTransport", "call_cb", "hand:4"),
    ("repro.rpc.transport", "RpcTransport", "register", "hand:2"),
    ("repro.rpc.transport", "RpcContext", "reply", "call"),
    ("repro.rpc.transport", "RpcContext", "reply_error", "call"),
    ("repro.rpc.errors", "RpcTimeout", "__init__", "call"),
    ("repro.core.client", "CurpClient", "update", "gen"),
    ("repro.core.client", "CurpClient", "read", "gen"),
    ("repro.core.witness_cache", "WitnessCache", "record", "call"),
    ("repro.core.witness_cache", "WitnessCache", "gc", "call"),
    ("repro.core.witness_cache", "WitnessCache", "gc_batch", "call"),
    ("repro.kvstore.store", "KVStore", "execute", "call"),
    ("repro.kvstore.store", "KVStore", "read", "call"),
    ("repro.kvstore.log", "Log", "append", "call"),
    ("repro.kvstore.hashing", None, "key_hash", "call"),
    ("repro.rifl.result_registry", "ResultRegistry", "check", "call"),
    ("repro.rifl.result_registry", "ResultRegistry", "record", "call"),
    ("repro.rifl.result_registry", "ResultRegistry", "process_ack", "call"),
    ("repro.rifl.client_tracker", "RiflClientTracker", "new_rpc", "call"),
    ("repro.rifl.client_tracker", "RiflClientTracker", "completed", "call"),
    ("repro.cluster.shard_map", "ShardMap", "master_for_hash", "call"),
    ("repro.cluster.shard_map", "ShardMap", "master_for_key", "call"),
    ("repro.cluster.coordinator", "Coordinator", "recover_master", "gen"),
    ("repro.workload.ycsb", "YcsbOpStream", "next_op", "call"),
    ("repro.workload.openloop", "ArrivalSchedule", "next_interval", "call"),
)


class _Entry:
    """Aggregate of one (layer, name).

    ``inner``/``outer`` are the tracer's own calibrated cost per span of
    this entry: ``inner`` ns land inside the span (its self time),
    ``outer`` ns land in whichever span encloses it.  ``charged_ns`` is
    the sum of the ``outer`` costs this entry's spans absorbed.
    """

    __slots__ = ("layer", "name", "inner", "outer", "calls", "self_ns",
                 "charged_ns")

    def __init__(self, layer: str, name: str, cost=(0.0, 0.0)):
        self.layer = layer
        self.name = name
        self.inner, self.outer = cost
        self.calls = self.self_ns = self.charged_ns = 0


class _GenProxy:
    """A generator whose every resume is one span of its layer.

    Works both as a ``Process`` target and as a ``yield from`` delegate
    (the iterator protocol plus ``send``/``throw``/``close``).
    """

    __slots__ = ("_gen", "_span", "_entry", "_on_return")

    def __init__(self, gen, span, entry, on_return=None):
        self._gen = gen
        self._span = span
        self._entry = entry
        self._on_return = on_return

    def __iter__(self):
        return self

    def __next__(self):
        return self.send(None)

    def send(self, value):
        if self._on_return is None:
            return self._span(self._entry, self._gen.send, (value,))
        try:
            return self._span(self._entry, self._gen.send, (value,))
        except StopIteration as stop:
            self._on_return(stop.value)
            raise

    def throw(self, *exc):
        return self._span(self._entry, self._gen.throw, exc)

    def close(self):
        return self._gen.close()

    def __getattr__(self, name):
        # __name__, gi_frame …: whatever else callers read off a generator
        return getattr(self._gen, name)


def _callback_wrapper(span, entry, fn):
    """``fn`` as one span of ``entry`` per call.  Built here rather than
    inline so that each wrapper holds just these three references."""
    def traced(*args, **kwargs):
        return span(entry, fn, args, kwargs)
    return traced


_CALLBACK_CODE = _callback_wrapper(None, None, None).__code__

#: wrapper kinds the cost model tells apart (see ``Tracer._calibrate``)
_KINDS = ("call", "hand", "callback", "resume", "pass", "start")


class Tracer:
    """Owns the span stack, the aggregates and the installed patches."""

    def __init__(self) -> None:
        self.entries: dict[tuple[str, str], _Entry] = {}
        self._by_code: dict = {}
        #: code objects of this tracer's own wrappers (never re-wrapped)
        self._wrapper_codes: set = {_CALLBACK_CODE}
        #: open spans: [child ns, tracer ns charged by children]
        self._stack: list[list] = []
        #: kind -> (inner, outer) ns of tracer cost per wrapper call
        self.costs = {kind: (0.0, 0.0) for kind in _KINDS}
        #: entry points that could not be found (never an exception)
        self.missing: list[str] = []
        self._patches: list[tuple] = []
        #: calls per entry point, plus the few counts that need an
        #: argument or a result (``_ARGUMENT_COUNTS``/``_RESULT_COUNTS``)
        self.tally: dict[str, int] = {}
        #: requests by RPC method, error replies by code
        self.rpc_methods: dict[str, int] = {}
        self.error_codes: dict[str, int] = {}
        #: return values of the ``gen`` entry points in ``_KEPT_RETURNS``
        self.returns: dict[str, list] = {}
        # raw spans: [layer, name, start_ns, end_ns, parent, rpc_id]
        self.raw: list[list] = []
        self._raw_on = True
        self._raw_ids: set = set()
        self._raw_stack: list[int] = []

    # ------------------------------------------------------------------
    # the span primitive
    # ------------------------------------------------------------------
    def _span(self, entry: _Entry, fn, args, kwargs=None):
        """Run ``fn(*args, **kwargs)`` as one span of ``entry``."""
        stack = self._stack
        frame = [0, 0.0]
        raw_index = self._raw_open(entry, args) if self._raw_on else -1
        stack.append(frame)
        start = perf_counter_ns()
        try:
            if kwargs:
                return fn(*args, **kwargs)
            return fn(*args)
        finally:
            end = perf_counter_ns()
            stack.pop()
            duration = end - start
            entry.calls += 1
            entry.self_ns += duration - frame[0]
            entry.charged_ns += frame[1]
            if stack:
                parent = stack[-1]
                parent[0] += duration
                parent[1] += entry.outer
            if raw_index >= 0:
                self._raw_close(raw_index, start, end)

    def _raw_open(self, entry: _Entry, args) -> int:
        rpc_id = None
        for arg in args:
            rpc_id = getattr(arg, "rpc_id", None)
            if rpc_id is None and type(arg).__name__ == "RpcId":
                rpc_id = arg
            if rpc_id is not None:
                break
        parent = self._raw_stack[-1] if self._raw_stack else -1
        if rpc_id is not None:
            rpc_id = str(rpc_id)
            self._raw_ids.add(rpc_id)
        elif parent >= 0:
            rpc_id = self.raw[parent][5]  # a child works on its parent's op
        index = len(self.raw)
        self.raw.append([entry.layer, entry.name, 0, 0, parent, rpc_id])
        self._raw_stack.append(index)
        return index

    def _raw_close(self, index: int, start: int, end: int) -> None:
        span = self.raw[index]
        span[2] = start
        span[3] = end
        if self._raw_stack and self._raw_stack[-1] == index:
            self._raw_stack.pop()
        # Spans open at this moment still close (they hold their index).
        if len(self._raw_ids) >= RAW_OPS or len(self.raw) >= RAW_SPAN_CAP:
            self._raw_on = False

    # ------------------------------------------------------------------
    # wrapping
    # ------------------------------------------------------------------
    def _entry(self, layer: str, name: str, kind: str) -> _Entry:
        entry = self.entries.get((layer, name))
        if entry is None:
            entry = self.entries[(layer, name)] = _Entry(layer, name,
                                                         self.costs[kind])
        return entry

    def _entry_for(self, code, target, module: str | None,
                   kind: str) -> _Entry:
        """Aggregate for a callable met at run time, memoised on its code
        object so that per-call bound methods share one."""
        entry = self._by_code.get(code)
        if entry is None:
            name = getattr(target, "__qualname__", None) or repr(target)
            entry = self._by_code[code] = self._entry(layer_of(module), name,
                                                      kind)
        return entry

    def handed(self, fn, receiver_layer: str):
        """Wrap a callable (or generator) handed to ``receiver_layer``.

        Callables of the receiving layer itself stay bare: their time is
        the receiver's self time anyway, and most of the kernel's own
        callbacks (``Process._resume``) are of that kind.
        """
        kind = type(fn)
        if kind is MethodType:
            target = fn.__func__
        elif kind is FunctionType:
            target = fn
        elif kind is GeneratorType:
            frame = fn.gi_frame           # None once the generator ended
            entry = self._entry_for(
                fn.gi_code, fn,
                frame.f_globals.get("__name__") if frame else None, "resume")
            return _GenProxy(fn, self._span, entry)
        elif fn is None or kind is _GenProxy or not callable(fn):
            return fn
        else:                             # functools.partial, instances …
            target = getattr(fn, "func", fn)
        code = getattr(target, "__code__", None)
        if code is None or code in self._wrapper_codes:
            return fn                     # built-in, or already one of ours
        entry = self._entry_for(code, target,
                                getattr(target, "__module__", None),
                                "callback")
        if entry.layer == receiver_layer:
            return fn
        return _callback_wrapper(self._span, entry, fn)

    def _wrap_entry_point(self, original, layer: str, kind: str, label: str):
        """The replacement for one entry point (see ``ENTRY_POINTS``)."""
        span = self._span
        stack = self._stack
        handed = self.handed
        tally = self.tally
        index = int(kind[5:]) if ":" in kind else -1
        count_argument = _ARGUMENT_COUNTS.get(label)
        if count_argument is not None:
            counts = getattr(self, count_argument[0])
            amount = count_argument[1]
        count_result = _RESULT_COUNTS.get(label)
        if count_result is not None:
            result_tally, result_matches = count_result
            tally[result_tally] = 0

        if kind == "gen":
            entry = self._entry(layer, label, "resume")
            start_cost = self.costs["start"][1]
            on_return = (self.returns.setdefault(label, []).append
                         if label in _KEPT_RETURNS else None)
            tally[label] = 0

            def traced(*args, **kwargs):
                tally[label] += 1
                if stack:
                    stack[-1][1] += start_cost
                return _GenProxy(original(*args, **kwargs), span, entry,
                                 on_return)
        elif kind.startswith("pass"):
            pass_cost = self.costs["pass"][1]

            def traced(*args, **kwargs):
                if stack:
                    stack[-1][1] += pass_cost
                if len(args) > index:
                    args = (args[:index] + (handed(args[index], layer),)
                            + args[index + 1:])
                return original(*args, **kwargs)
        else:
            entry = self._entry(layer, label,
                                "hand" if index >= 0 else "call")

            def traced(*args, **kwargs):
                if count_argument is not None:
                    amount(counts, args)
                if len(args) > index >= 0:
                    args = (args[:index] + (handed(args[index], layer),)
                            + args[index + 1:])
                result = span(entry, original, args, kwargs)
                if count_result is not None and result_matches(result):
                    tally[result_tally] += 1
                return result
        self._wrapper_codes.add(traced.__code__)
        traced.__name__ = getattr(original, "__name__", label)
        traced.__qualname__ = getattr(original, "__qualname__", label)
        traced.__module__ = getattr(original, "__module__", None)
        traced.__wrapped__ = original
        return traced

    def install(self, entry_points=ENTRY_POINTS) -> None:
        """Calibrate, then patch every entry point that exists and list
        the rest in ``missing``."""
        self._calibrate()
        for module_name, class_name, attribute, kind in entry_points:
            label = ".".join(p for p in (class_name, attribute) if p)
            try:
                owner = importlib.import_module(module_name)
                if class_name is not None:
                    owner = getattr(owner, class_name)
                    original = owner.__dict__[attribute]
                else:
                    original = getattr(owner, attribute)
            except (ImportError, AttributeError, KeyError):
                self.missing.append(f"{module_name}:{label}")
                continue
            if not callable(original):    # property, static/classmethod
                self.missing.append(f"{module_name}:{label}")
                continue
            wrapped = self._wrap_entry_point(original, layer_of(module_name),
                                             kind, label)
            self._patch(owner, attribute, original, wrapped)
            if class_name is None:
                # Module-level functions are imported by name: point
                # every repro module holding the original at the wrapper.
                for name, module in list(sys.modules.items()):
                    if name.startswith("repro.") and module is not owner \
                            and getattr(module, attribute, None) is original:
                        self._patch(module, attribute, original, wrapped)

    def _patch(self, owner, attribute, original, wrapped) -> None:
        setattr(owner, attribute, wrapped)
        self._patches.append((owner, attribute, original))

    def uninstall(self) -> None:
        for owner, attribute, original in reversed(self._patches):
            setattr(owner, attribute, original)
        self._patches.clear()

    # ------------------------------------------------------------------
    # the tracer's own cost
    # ------------------------------------------------------------------
    def _calibrate(self, rounds: int = 3_000, repeats: int = 3) -> None:
        """Measure what each kind of wrapper costs per call, by running
        it around a no-op in a tight loop, so the ledger can take the
        tracer's own time back out of the layers it is charged to.

        A tight loop flatters the wrappers (warm caches, small argument
        lists), so these are relative weights: ``run.py`` scales them to
        the overhead it observes between the traced pass and its
        untraced reference, which simulate identical work, and reports
        the factor as ``trace.cost_model_scale``.
        """
        span = self._span
        raw_on, self._raw_on = self._raw_on, False
        known = set(self.entries)

        def forever():
            while True:
                yield

        def timed(call, args) -> tuple[float, float]:
            """ns per round (inside spans the call opened, outside
            them), the cheapest of ``repeats`` tries."""
            def loop():
                for _ in range(rounds):
                    call(*args)
            best = None
            for _ in range(repeats):
                parent = _Entry("trace", "parent")
                for entry in self.entries.values():
                    entry.self_ns = 0
                span(parent, loop, ())
                inside = sum(e.self_ns for e in self.entries.values())
                if best is None or inside + parent.self_ns < sum(best):
                    best = (inside, parent.self_ns)
            return best[0] / rounds, best[1] / rounds

        method = _Calibration().method
        generator = forever()
        wrappers = {
            "call": (self._wrap_entry_point(_noop, "trace", "call",
                                            "calibrate.call"),
                     _noop, (0, 1)),
            "hand": (self._wrap_entry_point(_noop, "trace", "hand:1",
                                            "calibrate.hand"),
                     _noop, (0, method)),
            "pass": (self._wrap_entry_point(_noop, "trace", "pass:1",
                                            "calibrate.pass"),
                     _noop, (0, method)),
            "callback": (self.handed(method, "trace"), method, ()),
            "resume": (self.handed(forever(), "trace").send,
                       generator.send, (None,)),
            "start": (self._wrap_entry_point(forever, "trace", "gen",
                                             "calibrate.start"),
                      forever, ()),
        }
        try:
            for kind, (wrapped, bare, args) in wrappers.items():
                # (the loop's own few tens of ns per round are ignored)
                bare_cost = timed(bare, args)[1]
                inside, outside = timed(wrapped, args)
                if inside:          # the bare call now runs inside a span
                    self.costs[kind] = (max(0.0, inside - bare_cost),
                                        outside)
                else:               # no span of its own: all of it is
                    self.costs[kind] = (0.0,        # charged to the caller
                                        max(0.0, outside - bare_cost))
        finally:
            self._raw_on = raw_on
            for key in set(self.entries) - known:
                del self.entries[key]
            self._by_code.clear()
            for label in [k for k in self.tally if k.startswith("calibrate")]:
                del self.tally[label]
            self.returns.clear()

    # ------------------------------------------------------------------
    # reading the ledger
    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Forget everything measured so far (start of the window)."""
        for entry in self.entries.values():
            entry.calls = entry.self_ns = entry.charged_ns = 0
        for counts in (self.tally, self.rpc_methods, self.error_codes):
            for key in counts:
                counts[key] = 0
        for values in self.returns.values():
            values.clear()
        self.raw.clear()
        self._raw_ids.clear()
        self._raw_stack.clear()
        self._raw_on = True

    def snapshot(self) -> dict:
        """Per-layer and per-(layer, name) totals: ``self_ns`` as
        measured, and ``tracer_ns``, the part of it that the cost model
        says is the tracer's own work (the reader scales the model to
        the overhead actually observed and takes it out)."""
        layers: dict[str, dict] = {}
        spans = []
        for entry in self.entries.values():
            if not entry.calls:
                continue
            tracer_ns = min(float(entry.self_ns),
                            entry.calls * entry.inner + entry.charged_ns)
            layer = layers.setdefault(
                entry.layer, {"self_ns": 0, "tracer_ns": 0.0, "calls": 0})
            layer["self_ns"] += entry.self_ns
            layer["tracer_ns"] += tracer_ns
            layer["calls"] += entry.calls
            spans.append({"layer": entry.layer, "name": entry.name,
                          "calls": entry.calls, "self_ns": entry.self_ns,
                          "tracer_ns": tracer_ns})
        spans.sort(key=lambda s: -s["self_ns"])
        return {"layers": layers, "spans": spans,
                "span_count": sum(s["calls"] for s in spans),
                "tally": {**{s["name"]: s["calls"] for s in spans},
                          **self.tally},
                "rpc_methods": dict(self.rpc_methods),
                "error_codes": dict(self.error_codes),
                "returns": {k: list(v) for k, v in self.returns.items()},
                "missing": list(self.missing)}

    def chrome_trace(self) -> dict:
        """The retained raw spans as Chrome trace-event JSON: one track
        (tid) per layer, complete ("X") events carrying the RIFL id,
        plus one async span per operation keyed by that id."""
        layer_ids = {layer: i + 1 for i, layer in enumerate(LAYERS)}
        spans = [s for s in self.raw if s[3]]
        origin = min((s[2] for s in spans), default=0)
        events = []
        bounds: dict[str, list[int]] = {}
        for layer, name, start, end, parent, rpc_id in spans:
            tid = layer_ids.setdefault(layer, len(layer_ids) + 1)
            args = {"parent": parent}
            if rpc_id is not None:
                args["rpc_id"] = rpc_id
                seen = bounds.setdefault(rpc_id, [start, end])
                seen[0] = min(seen[0], start)
                seen[1] = max(seen[1], end)
            events.append({"ph": "X", "pid": 1, "tid": tid, "name": name,
                           "cat": layer, "ts": (start - origin) / 1000.0,
                           "dur": (end - start) / 1000.0, "args": args})
        for rpc_id, (start, end) in bounds.items():
            common = {"pid": 1, "tid": 0, "cat": "op", "id": rpc_id,
                      "name": f"op {rpc_id}"}
            events.append({**common, "ph": "b",
                           "ts": (start - origin) / 1000.0})
            events.append({**common, "ph": "e",
                           "ts": (end - origin) / 1000.0})
        names = [{"ph": "M", "pid": 1, "tid": tid, "name": "thread_name",
                  "args": {"name": layer}}
                 for layer, tid in layer_ids.items()]
        return {"traceEvents": names + events, "displayTimeUnit": "ns"}

    def write_chrome_trace(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.chrome_trace(), handle)


def _noop(*_args):
    return None


class _Calibration:
    """Something with a bound method to hand around while calibrating."""

    def method(self, *_args):
        return None


def _bump(index: int):
    def amount(counts: dict, args) -> None:
        if len(args) > index:
            counts[args[index]] = counts.get(args[index], 0) + 1
    return amount


def _delayed(counts: dict, args) -> None:
    if len(args) > 1 and args[1] > 0:
        counts["sim.delayed_callbacks"] = \
            counts.get("sim.delayed_callbacks", 0) + 1


def _gc_pairs(counts: dict, args) -> None:
    if len(args) > 1 and hasattr(args[1], "__len__"):
        counts["witness.gc_pairs"] = \
            counts.get("witness.gc_pairs", 0) + len(args[1])


#: label → (Tracer attribute holding the counts, how an argument counts)
_ARGUMENT_COUNTS = {
    "RpcTransport.call": ("rpc_methods", _bump(2)),
    "RpcTransport.call_cb": ("rpc_methods", _bump(2)),
    "RpcContext.reply_error": ("error_codes", _bump(1)),
    "Simulator.schedule_callback": ("tally", _delayed),
    "WitnessCache.gc_batch": ("tally", _gc_pairs),
}

#: ``gen`` entry points whose return value is a count source (recovery
#: statistics: restored / replayed / filtered entries)
_KEPT_RETURNS = {"Coordinator.recover_master"}

#: label → (tally name, predicate on the call's result)
_RESULT_COUNTS = {
    "ResultRegistry.check": ("rifl.duplicate_hits",
                             lambda result: result[0].name != "NEW"),
}
