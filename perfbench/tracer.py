"""Outside-in tracer for the thermaljcm layers.

Wraps every public function (the module's ``__all__``, read at install time)
of the seven layer modules at every name it is bound to inside the package,
so ``cli``'s ``from .coherence import project_values``, ``analysis`` calling
``extract_revival_period`` through its own globals and the re-exports in
``thermaljcm/__init__`` all go through the wrapper.  Classes are left alone:
replacing one would break ``isinstance`` checks, so their cost lands in the
calling function's self time.

Spans (name, start, end, parent) are kept in memory; self time is a span's
duration minus the part of it covered by its child spans.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
import sys
import time
from collections import defaultdict

PACKAGE = "thermaljcm"
LAYERS = ("model", "perturbation", "coherence", "oracle", "analysis", "validation", "cli")

#: the layer whose calls are counted as series evaluations on a time grid
SERIES_LAYER = "perturbation"


class Tracer:
    """Span recorder plus the work counts taken at the layer boundaries."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self._stack: list[int] = []
        self._patched: list[tuple] = []  # (module, attribute, original)
        self.t_points = 0
        self.series_calls = 0
        self._grids: set = set()

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        wrappers: dict[int, tuple] = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"{PACKAGE}.{layer}")
            for attr in getattr(mod, "__all__", ()):
                fn = getattr(mod, attr, None)
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    wrappers[id(fn)] = (fn, self._wrap(layer, attr, fn))
        for name, mod in list(sys.modules.items()):
            if name != PACKAGE and not name.startswith(PACKAGE + "."):
                continue
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patched.append((mod, attr, value))
                    setattr(mod, attr, hit[1])

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def _wrap(self, layer: str, attr: str, fn):
        name = f"{layer}.{attr}"
        sig = inspect.signature(fn)
        counts_grid = layer == SERIES_LAYER and "t" in sig.parameters

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            if counts_grid and (parent < 0 or not self.spans[parent][0].startswith(layer + ".")):
                self._count_series_call(sig.bind(*args, **kwargs).arguments)
            idx = len(self.spans)
            self.spans.append([name, time.perf_counter(), 0.0, parent])
            self._stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                self._stack.pop()
                self.spans[idx][2] = time.perf_counter()

        return traced

    def _count_series_call(self, arguments: dict) -> None:
        """Count one series call entering the layer from outside, and the
        distinct (params, truncation, time grid) it evaluates on."""
        import numpy as np  # imported here so the orchestrator can share LAYERS

        t = np.ascontiguousarray(arguments["t"], dtype=float)
        self.series_calls += 1
        self.t_points += t.size
        digest = hashlib.sha256(t.tobytes()).hexdigest()
        self._grids.add((repr(arguments.get("params")), repr(arguments.get("trunc")),
                         t.shape, digest))

    # -- reduction ----------------------------------------------------------

    def summary(self) -> dict:
        """Self time and call count per function and per layer."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_s: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for i, (name, start, end, _) in enumerate(self.spans):
            layer = name.split(".", 1)[0]
            own = (end - start) - child[i]
            for key in (name, layer):
                self_s[key] += own
                calls[key] += 1
        return {
            "self_s": dict(self_s),
            "calls": dict(calls),
        }

    def counts(self, bytes_out: int) -> dict:
        """The work counts of the traced calls; they must repeat exactly."""
        grids = len(self._grids)
        return {
            "perturbation.t_points": self.t_points,
            "perturbation.calls_per_grid": self.series_calls / grids if grids else 0.0,
            "oracle.propagate.calls": sum(1 for s in self.spans if s[0] == "oracle.propagate"),
            "cli.bytes_out": bytes_out,
        }

    def span_records(self) -> list[dict]:
        return [{"name": n, "start": s, "end": e, "parent": p} for n, s, e, p in self.spans]
