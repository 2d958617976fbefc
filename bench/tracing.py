"""In-memory call tracing of discwave's modules, installed from outside them.

`Tracer.install` replaces every public function defined in a traced module
with a timing wrapper, in that module and in every other traced module that
bound the same function by `from .x import name` (e.g. `evaluation.make_rng`).
`uninstall` puts the originals back. Each wrapped call is a frame: on exit its
duration is charged to the function, its self time (duration minus the time
of wrapped calls below it) to the function's layer, which is the module name,
and the time of solver-layer calls below it to `solver_in`. Calls of `hot`
functions are aggregated into these totals only; every other call also
appends a span (id, parent id, name, start, end, command) to `spans`. Hooks
registered per function add derived counters from the call's arguments and
result.
"""

from __future__ import annotations

import functools
import inspect
import time
from collections import defaultdict


class _Frame:
    __slots__ = ("key", "layer", "start", "child", "solver", "span")

    def __init__(self, key, layer, start, span):
        self.key = key
        self.layer = layer
        self.start = start
        self.child = 0.0  # time spent in wrapped calls directly below
        self.solver = 0.0  # time spent in the solver layer below
        self.span = span


class Tracer:
    def __init__(self, modules: dict, hot=()):
        """modules: {layer name: module}; hot: keys ("layer.function") to aggregate."""
        self.modules = modules
        self.hot = frozenset(hot)
        self.hooks = {}
        self.command = None
        self._stack = []
        self._saved = []
        self.reset()

    def reset(self) -> None:
        self.calls = defaultdict(int)
        self.inclusive = defaultdict(float)
        self.layer_self = defaultdict(float)
        self.command_self = defaultdict(lambda: defaultdict(float))
        self.solver_in = defaultdict(float)  # solver-layer time inside each function
        self.counters = defaultdict(int)
        self.spans = []

    def on_call(self, key: str, hook) -> None:
        """Call hook(tracer, bound_arguments, result, seconds, from_other_layer)
        after each call of `key`; register before `install`."""
        self.hooks[key] = hook

    def install(self) -> None:
        wrappers = {}
        for layer, module in self.modules.items():
            for name, fn in vars(module).items():
                if (
                    inspect.isfunction(fn)
                    and not name.startswith("_")
                    and fn.__module__ == module.__name__
                ):
                    wrappers[fn] = self._wrap(f"{layer}.{name}", layer, fn)
        for module in self.modules.values():
            for name, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._saved.append((module, name, value))
                    setattr(module, name, wrappers[value])

    def uninstall(self) -> None:
        while self._saved:
            module, name, value = self._saved.pop()
            setattr(module, name, value)

    def _wrap(self, key, layer, fn):
        tracer = self
        hook = self.hooks.get(key)
        signature = inspect.signature(fn) if hook else None
        record_span = key not in self.hot

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack
            span = None
            if record_span:
                span = len(tracer.spans)
                tracer.spans.append(None)
            frame = _Frame(key, layer, time.perf_counter(), span)
            stack.append(frame)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                parent = stack[-1] if stack else None
                tracer._close(frame, parent, end)
                if hook is not None:
                    outer = parent is None or parent.layer != layer
                    hook(tracer, signature.bind(*args, **kwargs).arguments, result,
                         end - frame.start, outer)

        return wrapper

    def _close(self, frame, parent, end) -> None:
        duration = end - frame.start
        own = duration - frame.child
        key = frame.key
        self.calls[key] += 1
        self.inclusive[key] += duration
        self.layer_self[frame.layer] += own
        self.command_self[self.command][frame.layer] += own
        self.solver_in[key] += frame.solver
        if frame.span is not None:
            parent_span = None
            for f in reversed(self._stack):
                if f.span is not None:
                    parent_span = f.span
                    break
            self.spans[frame.span] = (
                frame.span, parent_span, key, frame.start, end, self.command
            )
        if parent is not None:
            parent.child += duration
            if frame.layer == "solver" and parent.layer != "solver":
                parent.solver += duration
            else:
                parent.solver += frame.solver
