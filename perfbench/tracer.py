"""Span tracing of the package's public functions, from outside the package.

Modules import each other's functions by name (``from .signals import
regressor_tensor``), so a call from ``lms.run_experiment`` goes through
``lms.regressor_tensor``, not ``signals.regressor_tensor``. The tracer
therefore replaces every module-level binding of a public function, in
every module of the package, with one shared wrapper, and puts the
originals back when it is closed.

Spans stay in memory as ``[name, parent, start, end, tag]`` rows; the
parent is the index of the enclosing span (-1 for a root). Self time is a
span's duration minus the durations of its direct children, which nest
inside it and do not overlap.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import pkgutil
import time
from collections import defaultdict
from pathlib import Path

PACKAGE = "simplexlms"
LAYERS = ("complexes", "signals", "lms", "diffusion", "inference", "sampling",
          "datasets", "artrain", "harness", "cli")


def public_functions(module) -> list[str]:
    """Functions the module defines and exports (``__all__`` if present)."""
    names = getattr(module, "__all__", None)
    if names is None:
        names = [n for n in vars(module) if not n.startswith("_")]
    return [n for n in names
            if inspect.isfunction(getattr(module, n, None))
            and getattr(module, n).__module__ == module.__name__]


class Tracer:
    """Installs span-recording wrappers; use as a context manager."""

    def __init__(self):
        self.spans: list[list] = []
        self.tag = None          # copied into every span; set per job by the caller
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, clock(), 0.0, self.tag]
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()

        return traced

    def __enter__(self):
        pkg = importlib.import_module(PACKAGE)
        modules = [pkg] + [importlib.import_module(f"{PACKAGE}.{m.name}")
                           for m in pkgutil.iter_modules(pkg.__path__)]
        wrappers = {}
        for module in modules:
            layer = module.__name__.rsplit(".", 1)[-1]
            if layer not in LAYERS:
                continue
            for fname in public_functions(module):
                fn = getattr(module, fname)
                wrappers[id(fn)] = (fn, self._wrap(f"{layer}.{fname}", fn))
        for module in modules:
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._restore.append((module, attr, value))
                    setattr(module, attr, hit[1])
        return self

    def __exit__(self, *exc):
        for module, attr, value in reversed(self._restore):
            setattr(module, attr, value)
        self._restore.clear()
        return False

    def aggregate(self) -> dict:
        """``(name, tag) -> {"calls", "total_s", "self_s"}`` over all spans."""
        child_time = [0.0] * len(self.spans)
        for name, parent, start, end, tag in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        stats: dict = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for i, (name, parent, start, end, tag) in enumerate(self.spans):
            entry = stats[(name, tag)]
            entry["calls"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += end - start - child_time[i]
        return dict(stats)

    def write(self, path: Path, header: dict) -> None:
        """One JSON header line, then one JSON array per span."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(header) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")

