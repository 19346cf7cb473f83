"""In-memory span tracing of ajtkit's public functions, from outside the package.

`Tracer.install` replaces every public module-level function of the traced
modules, in every ajtkit namespace that holds it, with a wrapper that records
one span per call: name, start, end, parent span and the verdict id the
harness set. Generator functions get one span per resumption, so the time
spent producing each item is charged where it is spent. Nothing under src/
changes; `remove` puts the original functions back.

A span's self time is its duration minus the durations of its direct
children; spans nest strictly in one thread, so the self times of one pass
sum to no more than the pass.
"""

from __future__ import annotations

import importlib
import inspect
import time
from collections import defaultdict

import numpy as np

LAYERS = ("kernels", "_kernels_py", "apsets", "fp_core", "properties",
          "group_ring", "fp_poly", "cli")

# reduce_exponent runs once per term pair inside mul_reduce; a span per call
# would cost more than the call it measures, so its time stays in the caller.
UNTRACED = frozenset({"fp_poly.reduce_exponent"})


def _layer(name: str) -> str:
    module = name.split(".", 1)[0]
    return "kernels" if module == "_kernels_py" else module


class Tracer:
    """Span recorder. `counts` collects per-pass work counters from hooks."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name: list[int] = []
        self.span_start: list[int] = []
        self.span_end: list[int] = []
        self.span_parent: list[int] = []
        self.span_verdict: list[int] = []
        self._stack: list[int] = []
        self.verdict = -1
        self.counts: defaultdict[str, float] = defaultdict(float)
        self._patched: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _wrap(self, fn, name, hook, suffix):
        sn, ss, se = self.span_name, self.span_start, self.span_end
        sp, sv, stack = self.span_parent, self.span_verdict, self._stack
        clock = time.perf_counter_ns
        counts = self.counts
        tracer = self
        base_id = self._intern(name)

        def open_span(nid):
            i = len(sn)
            sn.append(nid)
            sp.append(stack[-1] if stack else -1)
            sv.append(tracer.verdict)
            se.append(0)
            stack.append(i)
            ss.append(clock())
            return i

        def close_span(i):
            se[i] = clock()
            stack.pop()

        if inspect.isgeneratorfunction(fn):
            def wrapper(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    i = open_span(base_id)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        close_span(i)
                    if hook is not None:
                        hook(counts, args, kwargs, item)
                    yield item
        else:
            def wrapper(*args, **kwargs):
                nid = base_id
                if suffix is not None:
                    nid = tracer._intern(f"{name}.{suffix(args, kwargs)}")
                i = open_span(nid)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    close_span(i)
                if hook is not None:
                    hook(counts, args, kwargs, result)
                return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self, hooks=None, suffixes=None, only=None):
        """Wrap the public functions of every traced module.

        hooks maps a span name to f(counts, args, kwargs, result), run after
        each call (after each item for generators); suffixes maps a span name
        to f(args, kwargs) -> str that splits its spans by argument; only,
        when given, limits tracing to those span names.
        """
        hooks = hooks or {}
        suffixes = suffixes or {}
        package = importlib.import_module("ajtkit")
        namespaces = [package] + [
            importlib.import_module(f"ajtkit.{m}") for m in LAYERS
        ]
        wrappers = {}
        for short in LAYERS:
            module = importlib.import_module(f"ajtkit.{short}")
            for attr, fn in vars(module).items():
                name = f"{short}.{attr}"
                if (
                    attr.startswith("_")
                    or not inspect.isfunction(fn)
                    or fn.__module__ != module.__name__
                    or name in UNTRACED
                    or (only is not None and name not in only)
                ):
                    continue
                wrappers[id(fn)] = (fn, self._wrap(fn, name, hooks.get(name),
                                                   suffixes.get(name)))
        for ns in namespaces:
            for attr, value in list(vars(ns).items()):
                if id(value) in wrappers and wrappers[id(value)][0] is value:
                    self._patched.append((ns, attr, value))
                    setattr(ns, attr, wrappers[id(value)][1])

    def remove(self):
        for ns, attr, original in reversed(self._patched):
            setattr(ns, attr, original)
        self._patched.clear()

    def reset(self):
        """Drop the recorded spans and counters, keeping the wrappers."""
        for column in (self.span_name, self.span_start, self.span_end,
                       self.span_parent, self.span_verdict):
            column.clear()
        self.counts.clear()

    # -- analysis ----------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.array(self.span_name, dtype=np.int32),
            "start_ns": np.array(self.span_start, dtype=np.int64),
            "end_ns": np.array(self.span_end, dtype=np.int64),
            "parent": np.array(self.span_parent, dtype=np.int32),
            "verdict": np.array(self.span_verdict, dtype=np.int32),
        }

    def summary(self) -> dict:
        """Per-name calls, busy and self seconds, per-layer self seconds."""
        a = self.arrays()
        name, parent = a["name"], a["parent"]
        dur = a["end_ns"] - a["start_ns"]
        has_parent = parent >= 0
        child = np.zeros(len(dur), dtype=np.int64)
        np.add.at(child, parent[has_parent], dur[has_parent])
        self_ns = dur - child
        # busy time counts a span only when it is not directly nested in a
        # span of the same name
        outer = ~has_parent
        outer[has_parent] = name[parent[has_parent]] != name[has_parent]
        k = len(self.names)
        calls = np.bincount(name, minlength=k)
        busy = np.bincount(name, weights=np.where(outer, dur, 0), minlength=k)
        selft = np.bincount(name, weights=self_ns, minlength=k)
        per_name = {
            n: {"calls": int(calls[i]), "busy_s": busy[i] / 1e9,
                "self_s": selft[i] / 1e9}
            for i, n in enumerate(self.names)
        }
        layers: defaultdict[str, float] = defaultdict(float)
        for n, row in per_name.items():
            layers[_layer(n)] += row["self_s"]
        return {
            "spans": int(len(dur)),
            "self_total_s": float(self_ns.sum()) / 1e9,
            "per_name": per_name,
            "layers": {m: layers.get(_layer(m), 0.0) for m in LAYERS
                       if m != "_kernels_py"},
            "counts": dict(self.counts),
        }
