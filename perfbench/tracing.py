"""Per-layer spans for the traced run, recorded from outside the package.

``Tracer.install`` wraps every public function and method of each flagf
module (and explicitly written ``__init__`` methods), and rebinds every module
attribute that held an original, so names imported with ``from .liealg import
bracket`` are traced too.  ``Tracer.remove`` puts the originals back.

Spans are aggregated in memory as they close, keyed by (parent, name): call
count, total time and self time (the span's duration minus the time covered by
its child spans).  Nothing is written until the caller reads ``snapshot()``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time

LAYERS = ("liealg", "phispace", "canonical", "metricgeom", "classify", "cli", "report")

# Counters derived from a call's arguments: traced name -> (counter, fn(args)).
COUNTERS = {
    # One ClassReport reads base + 3 channel tensors of d^3 doubles for each
    # of the 3 conditions: computed from array sizes, not measured.
    "classify.ClassEvaluator.report": (
        "classify.report.computed_bytes",
        lambda self, params: 12 * 8 * self.f_matrix.shape[0] ** 3,
    ),
    "report.atomic_write_text": (
        "report.bytes_written",
        lambda path, text: len(text.encode("utf-8")),
    ),
}


class Tracer:
    def __init__(self):
        self._stack: list[list] = []  # open spans: [name, time covered by children]
        self._patches: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        self.spans: dict[tuple[str | None, str], list] = {}  # -> [calls, total_s, self_s]
        self.counters: dict[str, float] = {}

    def snapshot(self) -> tuple[dict, dict]:
        return {k: list(v) for k, v in self.spans.items()}, dict(self.counters)

    def _wrap(self, name: str, fn):
        stack, clock, tracer = self._stack, time.perf_counter, self
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if counter is not None:
                key, amount = counter
                tracer.counters[key] = tracer.counters.get(key, 0) + amount(*args, **kwargs)
            parent = stack[-1][0] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += dt
                agg = tracer.spans.get((parent, name))
                if agg is None:
                    agg = tracer.spans[(parent, name)] = [0, 0.0, 0.0]
                agg[0] += 1
                agg[1] += dt
                agg[2] += dt - frame[1]

        return traced

    def _set(self, target, attr: str, original, replacement) -> None:
        self._patches.append((target, attr, original))
        setattr(target, attr, replacement)

    def install(self) -> None:
        import flagf

        modules = {layer: importlib.import_module(f"flagf.{layer}") for layer in LAYERS}
        wrapped: dict = {}  # original function -> its traced wrapper
        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapped[obj] = self._wrap(f"{layer}.{attr}", obj)
                elif inspect.isclass(obj):
                    self._wrap_methods(f"{layer}.{attr}", obj, mod.__file__)
        for mod in (flagf, *modules.values()):
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    self._set(mod, attr, obj, wrapped[obj])

    def _wrap_methods(self, prefix: str, cls, source_file: str) -> None:
        for attr, obj in list(vars(cls).items()):
            if isinstance(obj, staticmethod) and not attr.startswith("_"):
                self._set(cls, attr, obj, staticmethod(self._wrap(f"{prefix}.{attr}", obj.__func__)))
            elif inspect.isfunction(obj) and not attr.startswith("_"):
                self._set(cls, attr, obj, self._wrap(f"{prefix}.{attr}", obj))
            elif attr == "__init__" and inspect.isfunction(obj) and obj.__code__.co_filename == source_file:
                # Hand-written constructors only; dataclass-generated ones are
                # value construction, not a layer boundary.
                self._set(cls, attr, obj, self._wrap(f"{prefix}.init", obj))

    def remove(self) -> None:
        while self._patches:
            target, attr, original = self._patches.pop()
            setattr(target, attr, original)


def merge(*snapshots: tuple[dict, dict]) -> tuple[dict, dict]:
    """Sum several (spans, counters) snapshots."""
    spans: dict = {}
    counters: dict = {}
    for sp, co in snapshots:
        for key, (calls, total, self_s) in sp.items():
            agg = spans.setdefault(key, [0, 0.0, 0.0])
            agg[0] += calls
            agg[1] += total
            agg[2] += self_s
        for key, value in co.items():
            counters[key] = counters.get(key, 0) + value
    return spans, counters


def by_name(spans: dict) -> dict[str, list]:
    """Collapse (parent, name) keys to name -> [calls, total_s, self_s]."""
    out: dict[str, list] = {}
    for (_, name), (calls, total, self_s) in spans.items():
        agg = out.setdefault(name, [0, 0.0, 0.0])
        agg[0] += calls
        agg[1] += total
        agg[2] += self_s
    return out
