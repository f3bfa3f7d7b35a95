"""In-memory span tracer that wraps the lab's public functions from outside.

Each target is looked up by module and attribute name.  Its wrapper replaces
the function at every import site inside the package (for example laxpair's
own binding of the evaluator, or nsoliton's and rh's bindings of phase and
validate).  A target that no longer exists is reported as absent; the run
goes on without it.
"""

from __future__ import annotations

import functools
import sys
from time import perf_counter

import numpy as np


def _points(args, kwargs):
    x = args[2] if len(args) > 2 else kwargs.get("x")
    return int(np.size(x))


def _transform_points(args, kwargs):
    return int(np.size(args[0] if args else kwargs.get("values")))


def _rk4_steps(args, kwargs):
    # direct_scattering takes two RK4 steps of 2h per node pair and one of h
    # for an odd interval count
    intervals = (args[0] if args else kwargs["q1"]).grid.nx - 1
    return intervals // 2 + intervals % 2


PACKAGE = "hirotalab"

# (span name, module, candidate attribute names, work counter)
TARGETS = [
    ("cli.main", "cli", ["main"], None),
    ("cli.load_config", "cli", ["load_config"], None),
    ("core.validate", "core", ["validate"], None),
    ("core.phase", "core", ["phase"], None),
    ("nsoliton.batch", "nsoliton", ["fields_batch", "_fields_batch"], _points),
    ("nsoliton.sample", "nsoliton", ["sample"], None),
    ("laxpair.jet", "laxpair", ["jet_at"], None),
    ("laxpair.zc", "laxpair", ["zero_curvature_residual"], None),
    ("residual.ladder", "residual", ["soliton_residual_ladder"], None),
    ("residual.hirota", "residual", ["hirota_residual"], None),
    ("rh.factor", "rh", ["rh_plus"], None),
    ("rh.factor", "rh", ["rh_minus"], None),
    ("rh.factor", "rh", ["rh_plus_order1"], None),
    ("rh.scatter", "rh", ["direct_scattering"], _rk4_steps),
    ("propagator.fft", "propagator", ["fft"], _transform_points),
    ("propagator.step", "propagator", ["step"], None),
    ("propagator.evolve", "propagator", ["evolve"], None),
]


class Tracer:
    """Records spans (name, start, end, parent, round, work) while installed."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.round = None
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._active: dict[str, int] = {}
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn, work):
        spans, stack, active = self.spans, self._stack, self._active

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            count = 0
            if work is not None:
                try:
                    count = work(args, kwargs)
                except (AttributeError, IndexError, KeyError, TypeError):
                    count = 0
            nested = active.get(name, 0) > 0
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.round, count, nested]
            stack.append(len(spans))
            spans.append(span)
            active[name] = active.get(name, 0) + 1
            span[1] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                active[name] -= 1
                stack.pop()

        return wrapper

    def install(self) -> None:
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))]
        for name, module_name, candidates, work in TARGETS:
            module = sys.modules.get(f"{PACKAGE}.{module_name}")
            fn = next((getattr(module, c) for c in candidates
                       if module is not None and callable(getattr(module, c, None))), None)
            if fn is None:
                self.absent.append(f"{module_name}.{candidates[0]}")
                continue
            wrapper = self._wrap(name, fn, work)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        self._patched.append((module, attr, fn))
                        setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._patched):
            setattr(module, attr, fn)
        self._patched.clear()

    def _self_times(self) -> list[float]:
        """Each span's duration minus the durations of its direct children."""
        own = [end - start for _, start, end, *_ in self.spans]
        for (_, start, end, parent, *_) in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def write(self, path) -> None:
        with open(path, "w", newline="\n") as handle:
            handle.write("name,start,end,self,parent,round,work\n")
            for (name, start, end, parent, rid, work, _), own in zip(self.spans, self._self_times()):
                handle.write(f"{name},{start:.9f},{end:.9f},{own:.9f},{parent},{rid},{work}\n")

    def layer_totals(self) -> dict:
        """Per round and span name: calls, work, busy (outermost) and self seconds.

        Also the round's summed self time over every span, which equals the
        time the round spent inside any traced function.
        """
        own = self._self_times()
        out: dict = {}
        for i, (name, start, end, parent, rid, work, nested) in enumerate(self.spans):
            per = out.setdefault(rid, {"spans": {}, "self_total": 0.0})
            agg = per["spans"].setdefault(name, {"calls": 0, "work": 0, "busy_s": 0.0, "self_s": 0.0})
            dur = end - start
            agg["calls"] += 1
            agg["work"] += work
            if not nested:
                agg["busy_s"] += dur
            agg["self_s"] += own[i]
            per["self_total"] += own[i]
        return out
