"""Span tracer that wraps the public functions of each mildheat layer.

Nothing in the package is edited: ``Tracer.install`` rebinds every module
attribute that refers to a wrapped function (which also catches the
``from .x import f`` copies held by other modules) and ``uninstall`` puts the
originals back.  Each wrapped call records a span (name, start, end, parent,
operation id) in memory.  A datum's ``eval`` is far too hot for one span per
call, so ``traced_datum`` swaps it, through ``dataclasses.replace``, for a
counting version whose time is aggregated and charged to the enclosing span
as child time.  Self time is a span's duration minus its children's.
"""

from __future__ import annotations

import dataclasses
import math
import os
import time
from collections import defaultdict

import numpy as np

# one datum evaluation of this many points is the last refinement level of a
# scaled_evolve_many half-line segment that stopped at its node cap
CAP_EVAL_POINTS = (1 << 17) + 1
# first refinement level of a scaled_evolve_many segment (n0 = 256 panels)
FIRST_LEVEL_POINTS = 256 + 1

# Bytes read plus written per interior node for one explicit step, counted
# from the numpy expressions of the current stepping loop (each temporary
# costs one 8-byte write and one 8-byte read per operand): a model, not a
# measurement.
COMPUTED_BYTES_PER_NODE_STEP = {"solve_heat_fd": 136.0, "solve_cf": 240.0}

WRAPPED = {
    "kernels": ("adaptive_simpson", "kernel_G", "profile_F"),
    "initial_data": ("from_id",),
    "semigroup": (
        "scaled_evolve",
        "scaled_evolve_many",
        "evolve_on_grid",
        "sliding_average",
        "rescaled_residual",
    ),
    "profile_bounds": ("envelope_bound", "log_kernel_bound", "sup_profile_error"),
    "curvature_flow": (
        "solve_cf",
        "solve_heat_fd",
        "curvature_heat_gap",
        "flow_profile_error",
    ),
    "experiments": ("run", "parse_config"),
    "cli": ("main",),
}
LAYERS = tuple(WRAPPED)


def fd_node_steps(cfg) -> int:
    """Node-steps of one explicit march, from the documented CFL rule dt <= cfl dx^2."""
    xs = cfg.nodes()
    dt_max = cfg.cfl * (xs[1] - xs[0]) ** 2
    steps, t = 0, 0.0
    for target in cfg.record_times:
        steps += max(1, int(math.ceil((target - t) / dt_max - 1e-12)))
        t = target
    return steps * len(xs)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int, int]] = []
        self._open: list[list] = []  # [span index, child seconds]
        self._saved: list[tuple[object, str, object]] = []
        self.op_id = -1
        self.new_pass()

    # -- per-pass aggregates ------------------------------------------------

    def new_pass(self) -> None:
        self.counts: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self._segments: list[int] | None = None

    # -- spans --------------------------------------------------------------

    def _enter(self, name: str) -> None:
        parent = self._open[-1][0] if self._open else -1
        self.spans.append((name, time.perf_counter(), 0.0, parent, self.op_id))
        self._open.append([len(self.spans) - 1, 0.0])

    def _exit(self, name: str) -> None:
        end = time.perf_counter()
        index, child = self._open.pop()
        _, start, _, parent, op = self.spans[index]
        self.spans[index] = (name, start, end, parent, op)
        duration = end - start
        self.self_s[name] += duration - child
        if self._open:
            self._open[-1][1] += duration

    def wrap(self, layer: str, fname: str, fn):
        name = f"{layer}.{fname}"
        hook = getattr(self, "_hook_" + fname, None)
        after = getattr(self, "_after_" + fname, None)

        def traced(*args, **kwargs):
            self.counts[name + ".calls"] += 1
            if hook is not None:
                args, kwargs = hook(name, args, kwargs)
            self._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(name)
            if after is not None:
                result = after(name, result)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- install / uninstall ------------------------------------------------

    def install(self, package) -> None:
        import importlib

        modules = [package] + [
            importlib.import_module(f"{package.__name__}.{m}") for m in LAYERS
        ] + [importlib.import_module(f"{package.__name__}.oracles")]
        for layer, names in WRAPPED.items():
            home = importlib.import_module(f"{package.__name__}.{layer}")
            for fname in names:
                original = getattr(home, fname)
                traced = self.wrap(layer, fname, original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._saved.append((mod, attr, value))
                            setattr(mod, attr, traced)

    def uninstall(self) -> None:
        while self._saved:
            mod, attr, value = self._saved.pop()
            setattr(mod, attr, value)

    # -- datum evaluation ---------------------------------------------------

    def traced_datum(self, u0):
        if getattr(u0.eval, "_traced", False):
            return u0
        inner = u0.eval

        def ev(x):
            start = time.perf_counter()
            out = inner(x)
            spent = time.perf_counter() - start
            n = int(np.size(x))
            c = self.counts
            c["initial_data.eval.calls"] += 1
            c["initial_data.eval.points"] += n
            if np.ndim(x) == 0:
                c["initial_data.eval.scalar_calls"] += 1
            self.self_s["initial_data.eval"] += spent
            if self._open:
                self._open[-1][1] += spent
            if self._segments is not None:
                self._segments.append(n)
            return out

        ev._traced = True
        return dataclasses.replace(u0, eval=ev)

    # -- per-function hooks -------------------------------------------------

    def _hook_adaptive_simpson(self, name, args, kwargs):
        f = args[0] if args else kwargs.get("f")
        if getattr(f, "_counted", False):
            return args, kwargs
        counts = self.counts

        def counted(x):
            counts[name + ".f_evals"] += 1
            return f(x)

        counted._counted = True
        if args:
            return (counted,) + tuple(args[1:]), kwargs
        return args, {**kwargs, "f": counted}

    def _hook_profile_F(self, name, args, kwargs):
        self.counts[name + ".points"] += int(np.size(args[0]))
        return args, kwargs

    def _hook_evolve_on_grid(self, name, args, kwargs):
        self.counts[name + ".points"] += int(np.size(args[1]))
        return args, kwargs

    def _hook_scaled_evolve_many(self, name, args, kwargs):
        self.counts[name + ".points"] += int(np.size(args[1]))
        self._segments = []
        return args, kwargs

    def _after_scaled_evolve_many(self, name, result):
        sizes, self._segments = self._segments or [], None
        c = self.counts
        nodes = sum(sizes)
        c[name + ".nodes"] += nodes
        c[name + ".point_nodes"] += nodes * int(np.size(result))
        # a segment starts at the first refinement level; its last
        # evaluation is the node count it stopped at
        finals = [
            prev for prev, nxt in zip(sizes, sizes[1:] + [FIRST_LEVEL_POINTS])
            if nxt == FIRST_LEVEL_POINTS
        ]
        if finals:
            c[name + ".final_nodes_max"] = max(
                c[name + ".final_nodes_max"], max(finals) - 1
            )
        c[name + ".cap_hits"] += sum(1 for n in finals if n == CAP_EVAL_POINTS)
        return result

    def _hook_solve_cf(self, name, args, kwargs):
        self.counts[name + ".node_steps"] += fd_node_steps(args[1])
        return args, kwargs

    _hook_solve_heat_fd = _hook_solve_cf

    def _after_from_id(self, name, result):
        return self.traced_datum(result)

    def _after_run(self, name, result):
        self.counts["experiments.files_written"] += len(result.files)
        self.counts["experiments.bytes_written"] += sum(
            os.path.getsize(p) for p in result.files
        )
        return result
