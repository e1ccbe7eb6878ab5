"""Spans and counters recorded from outside the library, around its public calls.

The tracer replaces each public function of the library modules with a
wrapper, under every name through which callers look it up: the defining
module, the package namespace and any module that imported it by name
(``digitset.greedy_step`` comes from ``core``).  A wrapper records a span
(name, start, end, parent) while the tracer is active.  The per-step
functions are only counted, so that a 10^5-step loop does not pay for
10^5 spans.  Spans stay in memory until :meth:`Tracer.dump`.
"""

from __future__ import annotations

import inspect
import json
import statistics
import time
from collections import defaultdict

# Called once per digit inside the expansion loops: counted, no span.
COUNT_ONLY = frozenset({"greedy_step", "lazy_step"})
# Called inside every greedy/lazy step; wrapping them would double the cost
# of the count-only wrappers above for no information.
NOT_WRAPPED = frozenset({"snap_floor", "snap_ceil"})


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


class Tracer:
    """In-memory span recorder.  Inactive wrappers call straight through."""

    def __init__(self, hooks=None):
        # hooks: span name -> f(args, result) giving one number per call,
        # e.g. the digit count of an expansion
        self.hooks = hooks or {}
        self.active = False
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.stack: list[int] = []
        self.calls: dict = defaultdict(int)  # count-only name, or (caller span, name)
        self.extra: dict = defaultdict(list)
        self._patched: list = []

    # -- spans ---------------------------------------------------------------

    def open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, self.stack[-1] if self.stack else -1])
        self.stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self.stack.pop()

    def self_times(self) -> list[float]:
        """Per span: duration minus the time its direct children cover."""
        own = [end - start for _, start, end, _ in self.spans]
        for i, (_, start, end, parent) in enumerate(self.spans):
            if parent >= 0:
                own[parent] -= end - start
        return own

    def durations(self, name: str) -> list[float]:
        return [end - start for n, start, end, _ in self.spans if n == name]

    def layer_self(self) -> dict[str, float]:
        out: dict[str, float] = defaultdict(float)
        for (name, *_), own in zip(self.spans, self.self_times()):
            out[layer_of(name)] += own
        return out

    def p50(self, name: str) -> float:
        d = self.durations(name)
        return statistics.median(d) if d else 0.0

    def dump(self, path) -> None:
        t0 = self.spans[0][1] if self.spans else 0.0
        rows = [[n, round((s - t0) * 1e6, 3), round((e - t0) * 1e6, 3), p] for n, s, e, p in self.spans]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"time_unit": "us", "columns": ["name", "start", "end", "parent"], "spans": rows}, fh)

    # -- wrapping ------------------------------------------------------------

    def _wrap(self, fn):
        name = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"
        calls = self.calls
        spans = self.spans
        stack = self.stack
        if fn.__name__ in COUNT_ONLY:

            def counted(*args, **kwargs):
                if self.active:
                    calls[name] += 1
                    if stack:
                        calls[(spans[stack[-1]][0], name)] += 1
                return fn(*args, **kwargs)

            return counted

        hook = self.hooks.get(name)

        def spanned(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if hook is not None:
                self.extra[name].append(hook(args, result))
            return result

        return spanned

    def install(self, modules) -> None:
        """Wrap every public function of the ``altbase.*`` modules in ``modules``."""
        wrappers = {}
        for mod in modules:
            for attr, obj in vars(mod).items():
                if (
                    inspect.isfunction(obj)
                    and not attr.startswith("_")
                    and obj.__name__ not in NOT_WRAPPED
                    and obj.__module__.startswith("altbase.")
                    and id(obj) not in wrappers
                ):
                    wrappers[id(obj)] = (obj, self._wrap(obj))
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patched.append((mod, attr, obj))
                    setattr(mod, attr, hit[1])

    def uninstall(self) -> None:
        for mod, attr, obj in reversed(self._patched):
            setattr(mod, attr, obj)
        self._patched.clear()
