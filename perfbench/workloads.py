"""The four benchmark workloads: fixed operation mixes, inputs drawn from a seed.

A workload is a list of operations run in order, one pass at a time.  Each
operation is one call into a public mildheat function (``call``) plus a
reference check on its result (``check``, None when it holds, else the
reason).  ``call`` receives the data dict, so a traced run can hand it the
counting versions of the same data; checks use the plain data and never
touch the traced counters.  The seed varies grid offsets, times inside each
decade and datum parameters inside their legal ranges, never the mix.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import os
import random
import shutil
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy import integrate

from mildheat import cli, curvature_flow, initial_data, kernels, profile_bounds, semigroup
from mildheat.curvature_flow import FDSolverConfig

TOL = kernels.DEFAULT_SPEC.abs_tol
SQRT_PI = math.sqrt(math.pi)


@dataclass
class Op:
    name: str
    layer: str
    call: Callable[[dict], object]
    check: Callable[[object], str | None]


@dataclass
class Workload:
    name: str
    data: dict
    ops: list[Op]
    min_passes: int
    prepare: Callable[[], None] = lambda: None
    begin_pass: Callable[[int], None] = lambda k: None
    end_pass: Callable[[int], None] = lambda k: None
    close: Callable[[], None] = lambda: None


def _decade(rng: random.Random, k: int) -> float:
    # [1, 1.5) x 10^k, not the whole decade: refinement doubles the node
    # count at thresholds in t (for the Gaussian, in t/s), and a wider band
    # would let the seed choose how many levels a run costs
    return 10.0 ** k * rng.uniform(1.0, 1.5)


def _finite(value) -> str | None:
    if not np.all(np.isfinite(np.asarray(value, dtype=float))):
        return "non-finite result"
    return None


def _within(err: float, tol: float, what: str) -> str | None:
    if not err <= tol:  # also catches NaN
        return f"{what}: {err:.3e} > {tol:.3e}"
    return None


def _first(*reasons):
    return next((r for r in reasons if r is not None), None)


# -- similarity-grid -------------------------------------------------------


def similarity_grid(seed: int, root: str) -> Workload:
    rng = random.Random(seed)
    xs = np.linspace(-4.0, 4.0, 401) + rng.uniform(-0.5, 0.5) * 0.02
    a, b = rng.uniform(-1.0, 0.0), rng.uniform(0.5, 1.5)
    alpha = rng.uniform(0.3, 0.7)
    s = rng.uniform(0.8, 1.25)
    c = rng.uniform(-1.0, 1.0)
    L = rng.uniform(3.5, 4.5)
    data = {
        "step": initial_data.make_step(a, b),
        "sub_log": initial_data.make_sub_log(alpha),
        "log_sine": initial_data.make_log_sine(),
        "gaussian": initial_data.make_gaussian(s),
        "constant": initial_data.make_constant(c),
    }
    F = kernels.profile_F
    ops = []

    def evolve_op(key, t, reference):
        def check(v):
            return _first(_finite(v), reference(v, t))

        ops.append(Op(
            f"scaled_evolve_many {data[key].id} t={t:.3e}", "semigroup",
            lambda d: semigroup.scaled_evolve_many(d[key], xs, t), check,
        ))

    def step_form(v, t):
        return _within(float(np.max(np.abs(v - (a * F(-xs) + b * F(xs))))),
                       2 * TOL, "step vs a F(-x) + b F(x)")

    def gaussian_form(v, t):
        exact = math.sqrt(s / (s + t)) * np.exp(-t * xs ** 2 / (4.0 * (s + t)))
        return _within(float(np.max(np.abs(v - exact))), 2 * TOL,
                       "gaussian vs closed form")

    def stationary(v, t):
        return _within(float(np.max(np.abs(v - c))), 2 * TOL, "constant drift")

    def max_principle(v, t):
        return _within(float(np.max(np.abs(v))), 1.0 + 2 * TOL, "sup |u|")

    evolve_op("step", _decade(rng, 0), step_form)
    for k in (-4, 0, 8):
        evolve_op("gaussian", _decade(rng, k), gaussian_form)
    evolve_op("log_sine", _decade(rng, -4), max_principle)
    evolve_op("constant", _decade(rng, 4), stationary)

    def profile_check(rep):
        return _first(_finite(rep.sup_error),
                      _within(rep.sup_error, 2.0 + 2 * TOL, "profile error above 2 sup|u0|"))

    for k in (2, 4, 8):
        t = _decade(rng, k)
        ops.append(Op(
            f"profile_error sub_log:{alpha:.4f} t={t:.3e}", "profile_bounds",
            lambda d, t=t: profile_bounds.profile_error(d["sub_log"], L, t), profile_check,
        ))
    t = _decade(rng, 4)
    ls = data["log_sine"]
    la, lb = float(ls.eval(-math.sqrt(t))), float(ls.eval(math.sqrt(t)))
    ops.append(Op(
        f"sup_profile_error log_sine t={t:.3e}", "profile_bounds",
        lambda d: profile_bounds.sup_profile_error(d["log_sine"], la, lb, L, t),
        lambda e: _first(_finite(e), _within(e, 2.0 + 2 * TOL, "profile error above 2 sup|u0|")),
    ))
    # constants are stationary: the defect is evaluation noise (values to
    # h^2 1e-8 divided by h^2) and nothing else; smooth data leave O(h^2)
    for key, limit in (("constant", 1e-6), ("gaussian", 1e-3)):
        tau = rng.uniform(-0.25, 0.25)
        ops.append(Op(
            f"rescaled_residual {data[key].id} tau={tau:.3f}", "semigroup",
            lambda d, key=key, tau=tau: semigroup.rescaled_residual(d[key], 4.0, tau, 1e-2),
            lambda r, limit=limit: _first(_finite(r), _within(r, limit, "rescaled residual")),
        ))
    return Workload("similarity-grid", data, ops, min_passes=3)


# -- bounds-scalar ---------------------------------------------------------


def kernel_G_reference(z: float) -> float:
    """kernel_G by QUADPACK, independent of adaptive Simpson: the |log y|
    singularity on (0, 1] is taken by the algebraic-logarithmic weight."""
    g = lambda y: math.exp(-0.25 * (z - y) ** 2)
    low, _ = integrate.quad(g, 0.0, 1.0, weight="alg-loga", wvar=(0.0, 0.0),
                            epsabs=1e-14, epsrel=1e-13, limit=200)
    high, _ = integrate.quad(lambda y: g(y) * math.log(y), 1.0, np.inf,
                             epsabs=1e-14, epsrel=1e-13, limit=200)
    return (high - low) / (2.0 * SQRT_PI)


def bounds_scalar(seed: int, root: str) -> Workload:
    rng = random.Random(seed)
    alpha = rng.uniform(0.3, 0.7)
    L = rng.uniform(3.5, 4.5)
    data = {"log_sine": initial_data.make_log_sine(), "sub_log": initial_data.make_sub_log(alpha)}
    ops = []
    refs: dict[int, float] = {}

    def lkb_check(pair):
        lhs, rhs = pair
        return _first(_finite(pair), _within(lhs - rhs, 2 * TOL, "lhs - rhs"))

    xs = (rng.uniform(-3.0, -1.0), rng.uniform(-0.5, 0.5), rng.uniform(1.0, 3.0))
    for key in ("log_sine", "sub_log"):
        for x in xs:
            for k in (-4, 4):
                t = _decade(rng, k)
                ops.append(Op(
                    f"log_kernel_bound {data[key].id} x={x:.3f} t={t:.3e}", "profile_bounds",
                    lambda d, key=key, x=x, t=t: profile_bounds.log_kernel_bound(d[key], x, t),
                    lkb_check,
                ))

    ladder = []
    for base in (-6.0, -3.0, -1.0, 0.0, 1.0, 3.0, 6.0):
        z = base + rng.uniform(-0.25, 0.25)
        slot = len(ops)
        ladder.append((slot, z))
        ops.append(Op(
            f"kernel_G z={z:.4f}", "kernels",
            lambda d, z=z: kernels.kernel_G(z),
            # criterion 02's tolerance against an independent quadrature
            lambda g, slot=slot: _first(_finite(g), _within(abs(g - refs[slot]), 1e-8,
                                                            "kernel_G vs QUADPACK")),
        ))

    envelope = []
    for key in ("log_sine", "sub_log"):
        for k in (0, 4):
            t = _decade(rng, k)
            u0 = data[key]
            ca, cb = float(u0.eval(-math.sqrt(t))), float(u0.eval(math.sqrt(t)))
            slot = len(ops)
            envelope.append((slot, key, ca, cb, t))
            ops.append(Op(
                f"envelope_bound {u0.id} t={t:.3e}", "profile_bounds",
                lambda d, key=key, ca=ca, cb=cb, t=t: profile_bounds.envelope_bound(
                    d[key], ca, cb, L, t),
                lambda bound, slot=slot: _first(_finite(bound), _within(
                    refs[slot] - bound, 2 * TOL, "measured profile error - envelope bound")),
            ))

    def log_sine_average(R):
        # (1/2R) int_{-R}^{R} sin(log|y|) dy in closed form
        return 0.5 * (math.sin(math.log(R)) - math.cos(math.log(R)))

    for k in (1, 2, 3, 4):
        R = _decade(rng, k)
        exact = log_sine_average(R)
        ops.append(Op(
            f"sliding_average log_sine R={R:.3e}", "semigroup",
            lambda d, R=R: semigroup.sliding_average(d["log_sine"], 0.0, R),
            lambda v, exact=exact: _first(_finite(v), _within(abs(v - exact), 2 * TOL,
                                                              "average vs closed form")),
        ))
        ops.append(Op(
            f"sliding_average sub_log:{alpha:.4f} R={R:.3e}", "semigroup",
            lambda d, R=R: semigroup.sliding_average(d["sub_log"], 0.0, R),
            lambda v: _first(_finite(v), _within(abs(v), 1.0 + 2 * TOL, "|average|")),
        ))

    def prepare():
        for slot, z in ladder:
            refs[slot] = kernel_G_reference(z)
        for slot, key, ca, cb, t in envelope:
            refs[slot] = profile_bounds.sup_profile_error(data[key], ca, cb, L, t)

    return Workload("bounds-scalar", data, ops, min_passes=3, prepare=prepare)


# -- fd-flow ---------------------------------------------------------------


def _range_check(u0, cfg):
    def check(snaps):
        u = np.asarray(u0.eval(cfg.nodes()), dtype=float)
        lo, hi = float(np.min(u)) - 1e-8, float(np.max(u)) + 1e-8
        for snap in snaps:
            v = snap.values
            if not np.all(np.isfinite(v)):
                return "non-finite snapshot"
            if np.min(v) < lo or np.max(v) > hi:
                return f"snapshot left the data range [{lo:.6g}, {hi:.6g}]"
        return None

    return check


def fd_flow(seed: int, root: str) -> Workload:
    rng = random.Random(seed)
    s = rng.uniform(0.5, 2.0)
    alpha = rng.uniform(0.8, 1.0)
    beta = rng.uniform(0.3, 0.7)
    data = {
        "gaussian": initial_data.make_gaussian(s),
        "smooth": initial_data.make_smooth_log_sine(alpha),
        "decaying": initial_data.make_smooth_log_sine(beta),
    }
    ops = []

    def heat_vs_closed_form(cfg):
        # leading-order truncation of explicit Euler is
        # (dt/2 - dx^2/12) u_xxxx, |u_xxxx| <= 3/(4 s^2) for this Gaussian
        kappa = cfg.dx ** 2 * max(1.0 / 12.0, abs(cfg.cfl / 2.0 - 1.0 / 12.0)) * 3.0 / (4.0 * s * s)
        in_range = _range_check(data["gaussian"], cfg)

        def check(snaps):
            reason = in_range(snaps)
            for t, snap in zip(cfg.record_times, snaps):
                x = snap.nodes()
                exact = math.sqrt(s / (s + t)) * np.exp(-x ** 2 / (4.0 * (s + t)))
                reason = reason or _within(float(np.max(np.abs(snap.values - exact))),
                                           t * kappa, f"heat FD vs closed form at t={t:.3g}")
            return reason

        return check

    small = (rng.uniform(0.2, 0.3), rng.uniform(0.4, 0.6), 1.0)
    for dx in (0.2, 0.1, 0.05):
        cfg = FDSolverConfig(half_width=20.0, dx=dx, t_final=1.0, record_times=small)
        ops.append(Op(f"solve_heat_fd {data['gaussian'].id} dx={dx}", "curvature_flow",
                      lambda d, cfg=cfg: curvature_flow.solve_heat_fd(d["gaussian"], cfg),
                      heat_vs_closed_form(cfg)))
        ops.append(Op(f"solve_cf {data['gaussian'].id} dx={dx}", "curvature_flow",
                      lambda d, cfg=cfg: curvature_flow.solve_cf(d["gaussian"], cfg),
                      _range_check(data["gaussian"], cfg)))

    # acceptance scale: 8,001 nodes, 25,000 steps
    big = FDSolverConfig(half_width=400.0, dx=0.1, t_final=100.0,
                         record_times=(rng.uniform(1.0, 2.0), rng.uniform(10.0, 20.0), 100.0))
    smooth = data["smooth"]
    ops.append(Op(f"solve_cf {smooth.id} 8001x25000", "curvature_flow",
                  lambda d: curvature_flow.solve_cf(d["smooth"], big), _range_check(smooth, big)))
    ops.append(Op(f"solve_heat_fd {smooth.id} 8001x25000", "curvature_flow",
                  lambda d: curvature_flow.solve_heat_fd(d["smooth"], big),
                  _range_check(smooth, big)))

    def gap_check(series):
        for t, gap in series:
            reason = _first(_finite(gap), _within(-gap, 0.0, "negative gap"),
                            _within(gap, 2.0 * math.sqrt(t), f"gap at t={t:.3g} above 2 sqrt(t)"))
            if reason:
                return reason
        return None

    for hw, dx, t_final, mids in ((80.0, 0.2, 10.0, ((1.0, 2.0), (3.0, 6.0))),
                                  (200.0, 0.1, 25.0, ((1.0, 2.0), (4.0, 8.0)))):
        times = tuple(rng.uniform(*m) for m in mids) + (t_final,)
        cfg = FDSolverConfig(half_width=hw, dx=dx, t_final=t_final, record_times=times)
        ops.append(Op(f"curvature_heat_gap {smooth.id} hw={hw:g} dx={dx}", "curvature_flow",
                      lambda d, cfg=cfg: curvature_flow.curvature_heat_gap(d["smooth"], cfg),
                      gap_check))

    def profile_check(series):
        for t, err in series:
            reason = _first(_finite(err), _within(err, 2.0, f"profile error at t={t:.3g}"))
            if reason:
                return reason
        return None

    # criterion 11 scale.  The batch has an odd number of operations so its
    # median latency is one operation's, not the mean of two that sit close
    # together and swap places from run to run.
    decaying = data["decaying"]
    ladder = (rng.uniform(4.0, 8.0), rng.uniform(16.0, 32.0), 64.0)
    fpe = FDSolverConfig(half_width=120.0, dx=0.1, t_final=64.0, record_times=(64.0,))
    ops.append(Op(f"flow_profile_error {decaying.id} hw=120", "curvature_flow",
                  lambda d: curvature_flow.flow_profile_error(d["decaying"], fpe, 4.0, ladder),
                  profile_check))
    return Workload("fd-flow", data, ops, min_passes=3)


# -- suite -----------------------------------------------------------------


def _tree_digest(path: str) -> str:
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(path):
        dirnames.sort()
        for fn in sorted(filenames):
            full = os.path.join(dirpath, fn)
            h.update(os.path.relpath(full, path).encode())
            with open(full, "rb") as fh:
                h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()


def suite(seed: int, root: str) -> Workload:
    config_dir = os.path.join(root, "configs")
    names = sorted(f for f in os.listdir(config_dir) if f.endswith(".cfg"))
    if not names:
        raise FileNotFoundError(f"no *.cfg files in {config_dir}")
    # the configs are fixed; the seed only names the output tree
    out_root = os.path.join(root, ".perfbench_out", f"suite-{seed}-{os.getpid()}")
    state = {"dir": out_root}
    first_digest: dict[str, str] = {}
    ops = []

    for name in names:
        stem = os.path.splitext(name)[0]

        def call(d, name=name, stem=stem):
            out = os.path.join(state["dir"], stem)
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = cli.main(["run", os.path.join(config_dir, name), "--out-dir", out])
            return code, buf.getvalue(), out

        def check(result, stem=stem):
            code, text, out = result
            if code != 0:
                return f"exit code {code}: {text.strip()}"
            digest = _tree_digest(out)
            if first_digest.setdefault(stem, digest) != digest:
                return "output tree differs from the first pass"
            return None

        ops.append(Op(f"run {name}", "cli", call, check))

    def begin_pass(k):
        state["dir"] = os.path.join(out_root, f"pass{k}")

    return Workload(
        "suite", {}, ops, min_passes=2, begin_pass=begin_pass,
        end_pass=lambda k: shutil.rmtree(state["dir"], ignore_errors=True),
        close=lambda: shutil.rmtree(out_root, ignore_errors=True),
    )


BY_NAME = {
    "similarity-grid": similarity_grid,
    "bounds-scalar": bounds_scalar,
    "fd-flow": fd_flow,
    "suite": suite,
}
