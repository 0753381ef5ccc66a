"""Per-layer spans and counters, recorded from outside the program.

``Tracer.install`` replaces every public function of the rdp layer modules
(and ``Substitution.apply``) by a timing wrapper, in every rdp namespace
that bound the function: ``from .substitution import match`` also binds
``rdp.rewriting.match``, ``rdp.dependency_pairs.match`` and
``rdp.pvs0.match``, and each binding gets the same wrapper.  Nothing under
``src/`` changes; ``uninstall`` puts the original functions back.

Each thread keeps its own span stack, because PVS0 evaluations run on the
``rdp-eval`` thread while the calling thread waits in ``join``.  A span's
self time is its duration minus its children and minus the time that
threads started below it spent in spans of their own, so the self times of
all layers add up to the traced wall time.  Spans at the first few levels
of each stack are kept in memory and written out when the run ends.
"""

from __future__ import annotations

import functools
import inspect
import sys
import threading
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = ("terms", "substitution", "rewriting", "dependency_pairs", "pvs0", "formats", "cli")
HARNESS = "bench"
SPAN_DEPTH = 3
SPAN_CAP = 50_000


class _ThreadState:
    __slots__ = ("thread", "stack", "self_s", "calls", "hits", "errors")

    def __init__(self, thread: str):
        self.thread = thread
        # Frame: [layer, name, start, child_s, offthread_at_start, child_offthread]
        self.stack: list[list] = []
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.hits: Counter[str] = Counter()
        self.errors: Counter[str] = Counter()


class Tracer:
    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._states: list[_ThreadState] = []
        self._home = threading.get_ident()
        self._offthread = 0.0
        self._origin = perf_counter()
        self._installed: list[tuple[object, str, object]] = []
        self.op_id = -1
        self.spans: list[tuple] = []
        self.spans_dropped = 0

    # --- spans -------------------------------------------------------------

    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = _ThreadState(threading.current_thread().name)
            self._local.state = state
            with self._lock:
                self._states.append(state)
        return state

    def enter(self, layer: str, name: str) -> _ThreadState:
        state = self._state()
        state.stack.append([layer, name, perf_counter(), 0.0, self._offthread, 0.0])
        return state

    def leave(self, state: _ThreadState) -> None:
        end = perf_counter()
        stack = state.stack
        layer, name, start, child, off_start, child_off = stack.pop()
        duration = end - start
        off = self._offthread - off_start
        state.self_s[layer] += duration - child - (off - child_off)
        state.calls[name] += 1
        if stack:
            parent = stack[-1]
            parent[3] += duration
            parent[5] += off
            if len(stack) < SPAN_DEPTH and parent[0] != layer:
                self._record(state, name, parent[1], start, end)
        else:
            if threading.get_ident() != self._home:
                with self._lock:
                    self._offthread += duration
            self._record(state, name, None, start, end)

    def _record(self, state: _ThreadState, name: str, parent: str | None, start: float, end: float) -> None:
        if len(self.spans) >= SPAN_CAP:
            self.spans_dropped += 1
            return
        self.spans.append((self.op_id, state.thread, name, parent,
                           start - self._origin, end - self._origin))

    def parent_name(self, state: _ThreadState) -> str | None:
        """Name of the span that is open below the innermost one, if any."""
        return state.stack[-2][1] if len(state.stack) >= 2 else None

    # --- wrappers ------------------------------------------------------------

    def _wrap(self, layer: str, name: str, fn):
        enter, leave = self.enter, self.leave

        if name == "substitution.match":
            def wrapper(*args, **kwargs):
                state = enter(layer, name)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    leave(state)
                if result is not None:
                    state.hits[name] += 1
                return result
        elif name == "pvs0.chi_eval":
            def wrapper(*args, **kwargs):
                state = enter(layer, name)
                top = self.parent_name(state) != name
                try:
                    result = fn(*args, **kwargs)
                finally:
                    leave(state)
                if top:
                    state.calls["pvs0.top_eval"] += 1
                    if result is not None:
                        state.hits["pvs0.top_eval"] += 1
                return result
        elif inspect.isgeneratorfunction(fn):
            item_name = name + ".item"

            def wrapper(*args, **kwargs):
                state = enter(layer, name)
                try:
                    gen = fn(*args, **kwargs)
                finally:
                    leave(state)
                return _TracedIterator(gen, self, layer, item_name)
        else:
            def wrapper(*args, **kwargs):
                state = enter(layer, name)
                try:
                    return fn(*args, **kwargs)
                except BaseException as err:
                    parent = state.stack[-2][0] if len(state.stack) >= 2 else None
                    if parent != layer:
                        state.errors[f"{layer}.{type(err).__name__}"] += 1
                    raise
                finally:
                    leave(state)
        return functools.wraps(fn)(wrapper)

    def install(self) -> None:
        """Wrap the public functions of every layer in every rdp namespace."""
        import rdp
        from rdp.substitution import Substitution

        wrappers: dict[int, object] = {}
        for layer in LAYERS:
            module = sys.modules[f"rdp.{layer}"]
            for attr, value in vars(module).items():
                if (inspect.isfunction(value) and not attr.startswith("_")
                        and value.__module__ == module.__name__):
                    wrappers[id(value)] = (value, self._wrap(layer, f"{layer}.{attr}", value))
        namespaces = [rdp] + [m for n, m in sorted(sys.modules.items()) if n.startswith("rdp.")]
        for namespace in namespaces:
            for attr, value in list(vars(namespace).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._installed.append((namespace, attr, value))
                    setattr(namespace, attr, hit[1])
        apply = Substitution.apply
        self._installed.append((Substitution, "apply", apply))
        Substitution.apply = self._wrap("substitution", "substitution.apply", apply)

    def uninstall(self) -> None:
        for namespace, attr, original in reversed(self._installed):
            setattr(namespace, attr, original)
        self._installed.clear()

    # --- results -------------------------------------------------------------

    def totals(self) -> tuple[dict[str, float], Counter, Counter, Counter]:
        """Self seconds per layer, and call, hit and error counts, over all threads."""
        self_s: defaultdict[str, float] = defaultdict(float)
        calls: Counter[str] = Counter()
        hits: Counter[str] = Counter()
        errors: Counter[str] = Counter()
        with self._lock:
            states = list(self._states)
        for state in states:
            for layer, seconds in state.self_s.items():
                self_s[layer] += seconds
            calls.update(state.calls)
            hits.update(state.hits)
            errors.update(state.errors)
        return dict(self_s), calls, hits, errors

    def threads_seen(self) -> set[str]:
        with self._lock:
            return {state.thread for state in self._states if state.calls}


class _TracedIterator:
    """Times each ``next`` of a wrapped generator as a span of its layer."""

    __slots__ = ("_gen", "_tracer", "_layer", "_name")

    def __init__(self, gen, tracer: Tracer, layer: str, name: str):
        self._gen = gen
        self._tracer = tracer
        self._layer = layer
        self._name = name

    def __iter__(self):
        return self

    def __next__(self):
        state = self._tracer.enter(self._layer, self._name)
        try:
            item = next(self._gen)
        finally:
            self._tracer.leave(state)
        state.hits[self._name] += 1
        return item
