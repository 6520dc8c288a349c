"""Span tracing around pkm's public functions, from outside the package.

A wrapper records one span (function, start, end, parent span) per call.
``from .x import f`` copies the binding into every importing module, so a
wrapper is installed on each ``pkm.*`` module whose attribute is the
original function object, and the originals are put back afterwards.

Spans recorded inside forked worker processes stay in those workers and
are lost: with a process pool only the parent's spans are visible.
"""
from __future__ import annotations

import inspect
import os
import sys
import time
from array import array

import numpy as np

# (module, function) pairs that get a span; the benchmark's per-layer metrics
TRACED = (
    ("parasitic", "solve_loop_closure"),
    ("parasitic", "integrate_parasitic_path"),
    ("parasitic", "parasitic_map"),
    ("kinematics", "inverse_kinematics"),
    ("jacobian", "build_jacobian"),
    ("stiffness", "assemble_stiffness"),
    ("stiffness", "deflection_under_load"),
    ("stiffness", "stiffness_map_rotational"),
    ("geometry", "pose_from_tilts"),
    ("grids", "write_map_csv"),
    ("svg", "emit_heatmap_svg"),
    ("sweep", "run_comparison"),
    ("sweep", "condition_map"),
    ("sweep", "workspace_slice"),
    ("cli", "main"),
)
# writers whose output size is recorded, by the name of their path argument
WRITERS = {"grids.write_map_csv": "path", "svg.emit_heatmap_svg": "path"}


class Tracer:
    """Spans kept in flat arrays; aggregate() turns them into per-function totals."""

    def __init__(self, names):
        self.names = list(names)
        self.fid = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.bytes = {name: 0 for name in WRITERS}
        self._stack: list[int] = []
        self._installed: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn):
        fid = self.names.index(name)
        clock = time.perf_counter
        fids, parents, stack = self.fid, self.parent, self._stack
        starts, ends = self.start, self.end
        path_arg = WRITERS.get(name)
        bind = inspect.signature(fn).bind if path_arg else None

        def traced(*args, **kwargs):
            idx = len(fids)
            fids.append(fid)
            parents.append(stack[-1] if stack else -1)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1
                if bind is not None:
                    self.bytes[name] += os.path.getsize(bind(*args, **kwargs).arguments[path_arg])

        traced.__wrapped__ = fn
        return traced

    def install(self, pkm) -> None:
        modules = [m for key, m in sys.modules.items() if key == "pkm" or key.startswith("pkm.")]
        for module_name, func_name in TRACED:
            original = getattr(getattr(pkm, module_name), func_name)
            wrapper = self.wrap(f"{module_name}.{func_name}", original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._installed.append((module, attr, original))
                        setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._installed):
            setattr(module, attr, original)
        self._installed.clear()

    def aggregate(self) -> dict:
        """Per function: calls, total (inclusive) seconds and self seconds."""
        fid = np.frombuffer(self.fid, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end, dtype=float) - np.frombuffer(self.start, dtype=float)
        child = np.zeros_like(dur)
        nested = parent >= 0
        np.add.at(child, parent[nested], dur[nested])
        own = dur - child
        out = {}
        for k, name in enumerate(self.names):
            sel = fid == k
            out[name] = {
                "calls": int(sel.sum()),
                "total_s": float(dur[sel].sum()),
                "self_s": float(own[sel].sum()),
            }
        return out


def wrapper_cost(calls: int = 50_000) -> float:
    """Seconds one traced call adds over a bare call, measured on a no-op."""

    def noop(*args, **kwargs):
        return None

    tracer = Tracer(["noop"])
    traced = tracer.wrap("noop", noop)
    best_bare = best_traced = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        for _ in range(calls):
            noop(1, 2)
        t1 = time.perf_counter()
        for _ in range(calls):
            traced(1, 2)
        t2 = time.perf_counter()
        best_bare = min(best_bare, t1 - t0)
        best_traced = min(best_traced, t2 - t1)
        del tracer.fid[:], tracer.parent[:], tracer.start[:], tracer.end[:]
    return max(best_traced - best_bare, 0.0) / calls
