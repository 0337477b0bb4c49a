"""Declarative experiment runner: flat key=value configs in, CSV tables,
SVG line charts, and a summary manifest out.

Each experiment kind is declared by its handler alone: the handler takes
the datum and one keyword parameter per config key it reads, whose default
is the key's default (a config may set no other key), and returns its
pass/fail verdict, its scalars, its chart and its CSV tables, each table's
header in the same return statement as the rows whose columns it names.
Everything is deterministic (no RNG anywhere). The handler only computes:
`run` alone writes the output files, after the handler has returned, so a
run that fails writes no file and leaves no directory. Every file is
written atomically, so concurrent runs never interleave partial files.
"""

from __future__ import annotations

import contextlib
import inspect
import json
import math
import numbers
import os
import secrets
from dataclasses import dataclass, field

import numpy as np

from . import curvature_flow, initial_data, profile_bounds, semigroup
from .curvature_flow import FDSolverConfig, SolverFailure
from .kernels import QuadratureSpec, UncertifiedQuadrature

# keys whose values must be positive (s_values: nonzero), and ladders that must increase
_POSITIVE = ("L", "t_ladder", "lambda_ladder", "R_ladder", "h_ladder", "alphas")
_INCREASING = ("t_ladder", "lambda_ladder", "R_ladder")
# what a value needs, by the type of its default; a bool is not a number
_NEEDS = {tuple: "a tuple of real numbers", int: "an int", float: "a real number"}


class ConfigError(ValueError):
    """Malformed or inconsistent experiment configuration."""


def _reads(kind: str) -> dict[str, object]:
    """The keys a config of this kind may set, each with its default: the
    keyword parameters of the kind's handler."""
    if kind not in _HANDLERS:
        raise ConfigError(f"unknown experiment kind {kind!r}")
    params = inspect.signature(_HANDLERS[kind]).parameters.values()
    return {p.name: p.default for p in params if p.kind is p.KEYWORD_ONLY}


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment: params holds the keys the config set; the handler's
    defaults fill in the rest."""

    kind: str
    datum_id: str
    params: dict[str, object] = field(default_factory=dict)
    out_dir: str = "."

    def __post_init__(self) -> None:
        reads = _reads(self.kind)
        for key, val in self.params.items():
            if key not in reads:
                raise ConfigError(f"{self.kind} does not read key {key!r}")
            default = reads[key]
            vals = val if isinstance(val, tuple) else (val,)
            want = numbers.Integral if isinstance(default, int) else numbers.Real
            if (isinstance(val, tuple) != isinstance(default, tuple)
                    or not all(isinstance(v, want) and not isinstance(v, bool) for v in vals)):
                raise ConfigError(f"{key} must be {_NEEDS[type(default)]}, got {val!r}")
            if not vals:
                raise ConfigError(f"{key} must not be empty")
            if not all(math.isfinite(v) for v in vals):
                raise ConfigError(f"{key} must be finite, got {val}")
            if key in _POSITIVE and min(vals) <= 0:
                raise ConfigError(f"{key} must be positive, got {val}")
            if key == "s_values" and 0.0 in vals:
                raise ConfigError(f"{key} must not hold 0, got {val}")
            if key in _INCREASING and list(vals) != sorted(set(vals)):
                raise ConfigError(f"{key} must be strictly increasing")
        if self.params.get("n", 3) < 3:
            raise ConfigError(f"n must be at least 3, got {self.params['n']}")


def _parse(default, val: str):
    """Parse val as the type of default; a tuple is a comma list of floats."""
    if isinstance(default, tuple):
        return tuple(float(v) for v in val.split(",") if v.strip())
    return type(default)(val)


def parse_config(text: str) -> ExperimentConfig:
    """Parse the flat key = value config format ('#' starts a comment)."""
    lines: dict[str, tuple[int, str]] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, val = line.partition("=")
        key = key.strip()
        if key in lines:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        lines[key] = (lineno, val.strip())
    for key in ("kind", "datum"):
        if key not in lines:
            raise ConfigError(f"missing required key {key!r}")
    kind = lines.pop("kind")[1]
    datum_id = lines.pop("datum")[1]
    reads = _reads(kind)
    params = {}
    for key, (lineno, val) in lines.items():
        if key not in reads:
            raise ConfigError(f"line {lineno}: unknown key {key!r} for {kind}")
        try:
            params[key] = _parse(reads[key], val)
        except ValueError:
            raise ConfigError(f"line {lineno}: bad value {val!r} for {key!r}") from None
    return ExperimentConfig(kind, datum_id, params)


def _atomic_write(path: str, content: str) -> None:
    """Write content to path through a private temporary file in the same
    directory, so concurrent writers never share or expose a partial file.
    The temporary file is created with mode 0o666 under the process umask,
    so it gets the mode a plain open() would give it. Its name carries 64
    random bits and is tried once: O_EXCL makes a collision a
    FileExistsError, an OSError like any other failed write, which `run`
    reports as exit 2."""
    directory, name = os.path.split(os.path.abspath(path))
    tmp = os.path.join(directory, f".{name}.{secrets.token_hex(8)}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(content)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


def _make_dirs(directory: str, made: list[str]) -> None:
    """os.makedirs(directory, exist_ok=True), appending each directory it
    creates to made, outermost first, so a failed run can remove them."""
    parent = os.path.dirname(directory)
    if parent != directory and not os.path.isdir(parent):
        _make_dirs(parent, made)
    try:
        os.mkdir(directory)
        made.append(directory)
    except FileExistsError:
        if not os.path.isdir(directory):
            raise


def _csv(header: str, rows) -> str:
    lines = [header]
    lines.extend(",".join(f"{v:.12e}" for v in row) for row in rows)
    return "\n".join(lines) + "\n"


def _svg(series, logx: bool, logy: bool) -> str:
    """Minimal hand-assembled 640 x 400 SVG: axes plus one polyline per series."""
    pts_all = [(x, y) for _, pts in series for x, y in pts]
    tx = (lambda v: math.log10(v)) if logx else (lambda v: v)
    ty = (lambda v: math.log10(max(v, 1e-300))) if logy else (lambda v: v)
    xs = [tx(x) for x, _ in pts_all]
    ys = [ty(y) for _, y in pts_all]
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ys), max(ys)
    sx = (lambda v: 60.0) if x1 == x0 else (
        lambda v: 60.0 + 540.0 * (tx(v) - x0) / (x1 - x0))
    sy = (lambda v: 200.0) if y1 == y0 else (
        lambda v: 360.0 - 320.0 * (ty(v) - y0) / (y1 - y0))
    colors = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd")
    parts = [
        '<svg xmlns="http://www.w3.org/2000/svg" width="640" height="400">',
        '<rect width="640" height="400" fill="white"/>',
        '<line x1="60" y1="360" x2="600" y2="360" stroke="black"/>',
        '<line x1="60" y1="40" x2="60" y2="360" stroke="black"/>',
    ]
    for i, (label, pts) in enumerate(series):
        coords = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in pts)
        color = colors[i % len(colors)]
        parts.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="1.5" points="{coords}"/>'
        )
        parts.append(
            f'<text x="440" y="{20 + 16 * i}" fill="{color}" '
            f'font-size="12">{label}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


@dataclass
class RunResult:
    exit_code: int
    files: list[str]
    summary: dict
    reason: str = ""


def _slug(datum_id: str) -> str:
    return datum_id.replace(":", "_").replace(",", "_").replace(".", "p")


def run(cfg: ExperimentConfig) -> RunResult:
    """Execute one experiment; exit code 0 pass, 1 assertion failure,
    2 configuration error, 3 solver failure (an FD instability or a
    quadrature that could not certify its tolerance).

    The handler of cfg.kind, called on the datum and cfg.params, returns
    (ok, scalars, tables, chart): tables maps a file-name suffix to the
    (header, rows) of a CSV table, and chart is None or the (series, logx,
    logy) of `_svg`. Only then are files written: each table as
    <kind>_<datum><suffix>.csv, the chart as .svg, then the summary manifest
    as _summary.json. A run that exits 2 or 3 leaves no file: an output that
    cannot be written is exit 2, and the files this run wrote before it are
    deleted, then the directories it created, deepest first. The rollback
    itself cannot fail: it passes over a file that is already gone and
    keeps a directory that another run has written into."""
    try:
        u0 = initial_data.from_id(cfg.datum_id)
        ok, scalars, tables, chart = _HANDLERS[cfg.kind](u0, **cfg.params)
    except ValueError as exc:  # ConfigError included
        return RunResult(2, [], {}, f"config-error: {exc}")
    except (SolverFailure, UncertifiedQuadrature) as exc:
        return RunResult(3, [], {}, f"solver-failure: {exc}")
    summary = {
        "kind": cfg.kind,
        "datum": cfg.datum_id,
        "pass": bool(ok),
        "scalars": scalars,
    }
    base = os.path.join(cfg.out_dir, f"{cfg.kind}_{_slug(cfg.datum_id)}")
    texts = {base + suffix + ".csv": _csv(*table) for suffix, table in tables.items()}
    if chart is not None:
        texts[base + ".svg"] = _svg(*chart)
    texts[base + "_summary.json"] = json.dumps(summary, indent=2, sort_keys=True) + "\n"
    made, files = [], []
    path = next(iter(texts))  # the file named when its directory cannot be made
    try:
        _make_dirs(os.path.abspath(cfg.out_dir), made)
        for path, text in texts.items():
            _atomic_write(path, text)
            files.append(path)
    except OSError as exc:
        for written in files:
            with contextlib.suppress(OSError):
                os.unlink(written)
        for directory in reversed(made):
            with contextlib.suppress(OSError):
                os.rmdir(directory)
        return RunResult(2, [], {}, f"config-error: cannot write {path}: {exc}")
    if ok:
        return RunResult(0, files, summary)
    return RunResult(1, files, summary, f"assertion-failure: {cfg.kind} on {cfg.datum_id}")


def _derivative_free(u0) -> bool:
    return u0.sup_left == 0.0 and u0.sup_right == 0.0


def _run_exact_step(u0, *, t_ladder=(0.1, 1.0, 10.0, 1e6), L=4.0, n=401,
                    abs_tol=1e-10):
    if not u0.id.startswith("step:"):
        raise ConfigError("exact-step requires a step datum")
    spec = QuadratureSpec(abs_tol=abs_tol)
    rows = []
    worst = 0.0
    xs = np.linspace(-L, L, n)
    for t in t_ladder:
        nums = semigroup.scaled_evolve_many(u0, xs, t, spec)
        exact = profile_bounds.two_sided_profile(u0, xs, t)
        diffs = np.abs(nums - exact)
        worst = max(worst, float(np.max(diffs)))
        rows.extend(zip([t] * len(xs), xs, nums, exact, diffs))
    ok = worst <= 2.0 * abs_tol
    return ok, {"max_abs_diff": worst}, {"": ("t,x,numeric,closed_form,abs_diff", rows)}, None


def _run_profile_error(u0, *, t_ladder=(1e2, 1e4, 1e6, 1e8), L=4.0, n=401,
                       abs_tol=1e-10):
    spec = QuadratureSpec(abs_tol=abs_tol)
    rows = []
    for t in t_ladder:
        rep = profile_bounds.profile_error(u0, L, t, n, spec)
        rows.append((t, L, rep.sup_error, rep.coeff_left, rep.coeff_right))
    chart = [("sup_error", [(r[0], max(r[2], 1e-16)) for r in rows])], True, True
    sups = [r[2] for r in rows]
    if _derivative_free(u0):
        ok = all(s <= 2.0 * abs_tol for s in sups)
    else:
        ok = all(np.isfinite(s) and s <= 4.0 * u0.sup_norm + abs_tol for s in sups)
    scalars = {"sup_error_first": sups[0], "sup_error_last": sups[-1]}
    return ok, scalars, {"": ("t,L,sup_error,coeff_left,coeff_right", rows)}, chart


def _run_log_kernel_bound(u0, *, x_values=(-3.0, -1.0, 0.0, 1.0, 3.0),
                          t_ladder=(1e-4, 1.0, 1e4, 1e8), abs_tol=1e-10):
    spec = QuadratureSpec(abs_tol=abs_tol)
    rows = []
    ok = True
    for x in x_values:
        for t in t_ladder:
            lhs, rhs = profile_bounds.log_kernel_bound(u0, float(x), t, spec)
            margin = rhs - lhs
            ok = ok and lhs <= rhs + 2.0 * abs_tol
            rows.append((x, t, lhs, rhs, margin))
    return ok, {"min_margin": min(r[4] for r in rows)}, {"": ("x,t,lhs,rhs,margin", rows)}, None


def _run_envelope_bound(u0, *, t_ladder=(1.0, 1e4), L=4.0, n=401, abs_tol=1e-10):
    spec = QuadratureSpec(abs_tol=abs_tol)
    rows = []
    ok = True
    for t in t_ladder:
        rep = profile_bounds.profile_error(u0, L, t, n, spec)
        a, b, measured = rep.coeff_left, rep.coeff_right, rep.sup_error
        bound = profile_bounds.envelope_bound(u0, a, b, L, t, spec)
        ok = ok and measured <= bound + 2.0 * abs_tol
        rows.append((t, a, b, measured, bound, bound - measured))
    scalars = {"min_margin": min(r[5] for r in rows)}
    return ok, scalars, {"": ("t,a,b,measured_error,bound,margin", rows)}, None


def _run_dilation_bound(u0, *, alphas=(0.25, 0.5, 2.0, 4.0),
                        s_values=(-1e3, -1.0, -1e-3, 1e-3, 1.0, 1e3)):
    rows = []
    ok = True
    for alpha in alphas:
        for s in s_values:
            lhs, rhs = profile_bounds.dilation_difference_bound(u0, alpha, s)
            ok = ok and lhs <= rhs + 1e-12
            rows.append((alpha, s, lhs, rhs))
    return ok, {"max_lhs": max(r[2] for r in rows)}, {"": ("alpha,s,lhs,rhs", rows)}, None


def _run_rescaled_check(u0, *, h_ladder=(1e-2, 5e-3), x_window=4.0, tau=0.0,
                        abs_tol=1e-10):
    spec = QuadratureSpec(abs_tol=abs_tol)
    rows = []
    for h in h_ladder:
        res = semigroup.rescaled_residual(u0, x_window, tau, h, spec)
        rows.append((h, res))
    chart = [("residual", [(h, max(r, 1e-18)) for h, r in rows])], True, True
    ok = min(r for _, r in rows) <= 1e-3
    return ok, {"residual_min": min(r for _, r in rows)}, {"": ("h,residual", rows)}, chart


def _run_curvature_gap(u0, *, t_ladder=(1.0, 3.0, 10.0, 30.0, 100.0),
                       fd_half_width=400.0, fd_dx=0.1, abs_tol=1e-10):
    spec = QuadratureSpec(abs_tol=abs_tol)
    fd = FDSolverConfig(half_width=fd_half_width, dx=fd_dx, t_final=max(t_ladder),
                        record_times=t_ladder)
    gaps = curvature_flow.curvature_heat_gap(u0, fd, spec)
    chart = [("gap", [(t, max(g, 1e-16)) for t, g in gaps])], True, True
    vals = [g for _, g in gaps]
    if max(vals) <= 1e-8:
        ok = True
    else:
        ok = max(vals) / max(min(vals), 1e-300) <= 10.0
    return ok, {"gap_max": max(vals), "gap_min": min(vals)}, {"": ("t,gap", gaps)}, chart


def _run_flow_profile_error(u0, *, t_ladder=(4.0, 16.0, 64.0), L=4.0, n=401,
                            fd_half_width=120.0, fd_dx=0.1):
    fd = FDSolverConfig(half_width=fd_half_width, dx=fd_dx, t_final=max(t_ladder),
                        record_times=t_ladder)
    errs = curvature_flow.flow_profile_error(u0, fd, L, t_ladder, n)
    chart = [("sup_error", [(t, max(e, 1e-16)) for t, e in errs])], True, True
    ok = errs[-1][1] <= errs[0][1]
    scalars = {"sup_error_first": errs[0][1], "sup_error_last": errs[-1][1]}
    return ok, scalars, {"": ("t,sup_error", errs)}, chart


def _run_accumulation(u0, *,
                      lambda_ladder=tuple(math.exp(k * math.pi / 8.0) for k in range(32)),
                      t_ladder=(1e2, 1e4), L=4.0, n=401, abs_tol=1e-10):
    spec = QuadratureSpec(abs_tol=abs_tol)
    pairs = profile_bounds.accumulation_samples(u0, lambda_ladder)
    rows = [(lam, a, b) for lam, (a, b) in zip(lambda_ladder, pairs)]
    fit_rows = []
    xs = np.linspace(-L, L, n)
    for t in t_ladder:
        vals = semigroup.scaled_evolve_many(u0, xs, t, spec)
        alpha, beta = profile_bounds.fit_profile_coefficients(xs, vals)
        fit_rows.append((t, alpha, beta))
    chart = [
        ("datum pairs", [(a, b) for _, a, b in rows]),
        ("fitted coefficients", [(a, b) for _, a, b in fit_rows]),
    ], False, False
    ok = all(np.isfinite(v) for row in rows + fit_rows for v in row)
    scalars = {"n_samples": float(len(rows))}
    return ok, scalars, {"": ("lambda,u_left,u_right", rows),
                         "_fit": ("t,alpha_fit,beta_fit", fit_rows)}, chart


def _run_sliding_average(u0, *, R_ladder=(1e1, 1e2, 1e3, 1e4), abs_tol=1e-10):
    spec = QuadratureSpec(abs_tol=abs_tol)
    rows = []
    prev = None
    for R in R_ladder:
        avg = semigroup.sliding_average(u0, 0.0, R, spec)
        delta = 0.0 if prev is None else avg - prev
        rows.append((R, avg, delta))
        prev = avg
    chart = [("average", [(R, a) for R, a, _ in rows])], True, False
    if _derivative_free(u0):
        ok = all(abs(a - rows[0][1]) <= 2.0 * abs_tol for _, a, _ in rows)
    else:
        ok = all(np.isfinite(a) for _, a, _ in rows)
    return ok, {"average_last": rows[-1][1]}, {"": ("R,average,delta_prev", rows)}, chart


_HANDLERS = {
    "exact-step": _run_exact_step,
    "profile-error": _run_profile_error,
    "log-kernel-bound": _run_log_kernel_bound,
    "envelope-bound": _run_envelope_bound,
    "dilation-bound": _run_dilation_bound,
    "rescaled-check": _run_rescaled_check,
    "curvature-gap": _run_curvature_gap,
    "flow-profile-error": _run_flow_profile_error,
    "accumulation": _run_accumulation,
    "sliding-average": _run_sliding_average,
}
