"""Per-layer spans, recorded from outside the program.

``Tracer.install`` replaces the public functions of the traced modules
with timing wrappers. The package binds many of them by name (for
example ``from .fields import interpolate``), so each wrapper is put into
every ``stochtransport`` module namespace that holds the original object.
Spans are aggregated in memory as they close: per name the call count,
the total time of outermost calls (recursion is not double counted) and
the self time, which is the span minus the child spans it covers.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import math
import os
import sys
from time import perf_counter

import numpy as np

#: Modules whose public functions are wrapped, by their short layer name.
TRACED_MODULES = ("paths", "drifts", "fields", "transport", "spde", "weakform",
                  "experiments", "cli")


class _Stat:
    __slots__ = ("calls", "total", "self_time", "depth")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0
        self.depth = 0


class Tracer:
    def __init__(self):
        self.stats: dict[str, _Stat] = {}
        self.counts: dict[str, int] = {}
        self.root_time = 0.0
        self._stack: list[list[float]] = []

    def add(self, name: str, amount: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def wrap(self, name: str, fn, after=None):
        """Return ``fn`` timed as span ``name``; ``after(args, kwargs, result)``
        may record counts and returns the result handed to the caller."""
        stat = self.stats.setdefault(name, _Stat())
        stack = self._stack

        @functools.wraps(fn)
        def span(*args, **kwargs):
            children = [0.0]
            stack.append(children)
            stat.depth += 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                stat.depth -= 1
                stat.calls += 1
                stat.self_time += elapsed - children[0]
                if stat.depth == 0:
                    stat.total += elapsed
                if stack:
                    stack[-1][0] += elapsed
                else:
                    self.root_time += elapsed
            return result if after is None else after(args, kwargs, result)

        return span

    def install(self) -> None:
        """Wrap every public function of ``TRACED_MODULES`` and the traced methods."""
        package = [m for name, m in sys.modules.items()
                   if name == "stochtransport" or name.startswith("stochtransport.")]
        for short in TRACED_MODULES:
            module = sys.modules[f"stochtransport.{short}"]
            public = getattr(module, "__all__", ["main"])
            for attr in public:
                fn = getattr(module, attr)
                if not (inspect.isfunction(fn) and fn.__module__ == module.__name__):
                    continue
                name = f"{short}.{attr}"
                wrapped = self.wrap(name, fn, self._after_hook(name))
                for ns in package:
                    for key, value in list(vars(ns).items()):
                        if value is fn:
                            setattr(ns, key, wrapped)
        fields = sys.modules["stochtransport.fields"]
        experiments = sys.modules["stochtransport.experiments"]
        grid_cls, field_cls = fields.SpatialGrid, fields.ScalarField
        grid_cls.nodes = self.wrap("fields.SpatialGrid.nodes", grid_cls.nodes)
        field_cls.__post_init__ = self.wrap("fields.ScalarField.new", field_cls.__post_init__)
        cfg_cls = experiments.ExperimentConfig
        from_json = cfg_cls.__dict__["from_json"].__func__
        cfg_cls.from_json = classmethod(
            self.wrap("experiments.ExperimentConfig.from_json", from_json))

    # -- counts recorded at the span boundary ------------------------------

    def _after_hook(self, name: str):
        if name == "fields.interpolate":
            def after(args, kwargs, result):
                points = args[1] if len(args) > 1 else kwargs["points"]
                shape = np.shape(points)  # (d,) or (..., d)
                self.add("fields.interpolate.points", math.prod(shape[:-1]))
                return result
            return after
        if name in ("fields.write_field_csv", "fields.read_field_csv"):
            def after(args, kwargs, result):
                path = args[1] if name == "fields.write_field_csv" else args[0]
                self.add(f"{name}.bytes", os.path.getsize(path))
                return result
            return after
        if name == "transport.mollified_drift":
            def after(args, kwargs, result):
                fn = self.wrap("transport.mollified_fn", result.fn)
                return dataclasses.replace(result, fn=fn)
            return after
        return None
