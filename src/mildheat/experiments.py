"""Declarative experiment runner: flat key=value configs in, CSV tables,
SVG line charts, and a summary manifest out.

Each experiment kind has a fixed CSV schema and a kind-specific pass/fail
assertion; everything is deterministic (no RNG anywhere), and every output
file is written atomically so concurrent runs never interleave partial files.
"""

from __future__ import annotations

import json
import math
import os
import tempfile
from dataclasses import dataclass, fields

import numpy as np

from . import curvature_flow, initial_data, profile_bounds, semigroup
from .curvature_flow import FDSolverConfig, SolverFailure
from .kernels import QuadratureSpec, UncertifiedQuadrature

KINDS = (
    "exact-step",
    "profile-error",
    "log-kernel-bound",
    "envelope-bound",
    "dilation-bound",
    "rescaled-check",
    "curvature-gap",
    "flow-profile-error",
    "accumulation",
    "sliding-average",
)

CSV_HEADERS = {
    "exact-step": "t,x,numeric,closed_form,abs_diff",
    "profile-error": "t,L,sup_error,coeff_left,coeff_right",
    "log-kernel-bound": "x,t,lhs,rhs,margin",
    "envelope-bound": "t,a,b,measured_error,bound,margin",
    "dilation-bound": "alpha,s,lhs,rhs",
    "rescaled-check": "h,residual",
    "curvature-gap": "t,gap",
    "flow-profile-error": "t,sup_error",
    "accumulation": "lambda,u_left,u_right",
    "accumulation-fit": "t,alpha_fit,beta_fit",
    "sliding-average": "R,average,delta_prev",
}

_DEFAULT_T_LADDER = {
    "exact-step": (0.1, 1.0, 10.0, 1e6),
    "profile-error": (1e2, 1e4, 1e6, 1e8),
    "log-kernel-bound": (1e-4, 1.0, 1e4, 1e8),
    "envelope-bound": (1.0, 1e4),
    "curvature-gap": (1.0, 3.0, 10.0, 30.0, 100.0),
    "flow-profile-error": (4.0, 16.0, 64.0),
    "accumulation": (1e2, 1e4),
}

_DEFAULT_FD = {
    "curvature-gap": dict(half_width=400.0, dx=0.1, t_final=100.0),
    "flow-profile-error": dict(half_width=120.0, dx=0.1, t_final=64.0),
}


class ConfigError(ValueError):
    """Malformed or inconsistent experiment configuration."""


@dataclass(frozen=True)
class ExperimentConfig:
    kind: str
    datum_id: str
    t_ladder: tuple[float, ...] = ()
    lambda_ladder: tuple[float, ...] = ()
    R_ladder: tuple[float, ...] = (1e1, 1e2, 1e3, 1e4)
    h_ladder: tuple[float, ...] = (1e-2, 5e-3)
    x_values: tuple[float, ...] = (-3.0, -1.0, 0.0, 1.0, 3.0)
    alphas: tuple[float, ...] = (0.25, 0.5, 2.0, 4.0)
    s_values: tuple[float, ...] = (-1e3, -1.0, -1e-3, 1e-3, 1.0, 1e3)
    L: float = 4.0
    n: int = 401
    abs_tol: float = 1e-10
    tail_radius: float = 14.0
    x_window: float = 4.0
    tau: float = 0.0
    fd_half_width: float = 0.0   # 0 = kind default
    fd_dx: float = 0.1
    fd_cfl: float = 0.4
    fd_t_final: float = 0.0      # 0 = kind default
    out_dir: str = "."

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ConfigError(f"unknown experiment kind {self.kind!r}")
        if self.L <= 0:
            raise ConfigError(f"L must be positive, got {self.L}")
        if self.n < 3:
            raise ConfigError(f"n must be at least 3, got {self.n}")
        for name in ("t_ladder", "lambda_ladder", "R_ladder"):
            ladder = getattr(self, name)
            if any(v <= 0 for v in ladder):
                raise ConfigError(f"{name} entries must be positive")
            if list(ladder) != sorted(set(ladder)):
                raise ConfigError(f"{name} must be strictly increasing")

    def times(self) -> tuple[float, ...]:
        return self.t_ladder or _DEFAULT_T_LADDER.get(self.kind, (1.0,))

    def quadrature(self) -> QuadratureSpec:
        return QuadratureSpec(abs_tol=self.abs_tol, tail_radius=self.tail_radius)

    def fd_config(self) -> FDSolverConfig:
        base = _DEFAULT_FD.get(self.kind, dict(half_width=60.0, dx=0.1, t_final=10.0))
        half_width = self.fd_half_width or base["half_width"]
        t_final = self.fd_t_final or max(base["t_final"], max(self.times()))
        beyond = [t for t in self.times() if t > t_final]
        if beyond:
            raise ConfigError(
                f"t_ladder entries {', '.join(f'{t:g}' for t in beyond)} exceed "
                f"fd_t_final = {t_final:g}"
            )
        return FDSolverConfig(
            half_width=half_width,
            dx=self.fd_dx,
            t_final=t_final,
            record_times=self.times(),
            cfl=self.fd_cfl,
        )


_LIST_FIELDS = {
    "t_ladder", "lambda_ladder", "R_ladder", "h_ladder",
    "x_values", "alphas", "s_values",
}
_FLOAT_FIELDS = {
    "L", "abs_tol", "tail_radius", "x_window", "tau",
    "fd_half_width", "fd_dx", "fd_cfl", "fd_t_final",
}


def parse_config(text: str) -> ExperimentConfig:
    """Parse the flat key = value config format ('#' starts a comment)."""
    values: dict[str, object] = {}
    known = {f.name for f in fields(ExperimentConfig)}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, val = line.partition("=")
        key = key.strip()
        val = val.strip()
        if key == "datum":
            key = "datum_id"
        if key not in known:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        try:
            if key in _LIST_FIELDS:
                values[key] = tuple(float(v) for v in val.split(",") if v.strip())
            elif key in _FLOAT_FIELDS:
                values[key] = float(val)
            elif key == "n":
                values[key] = int(val)
            else:
                values[key] = val
        except ValueError:
            raise ConfigError(f"line {lineno}: bad value {val!r} for {key!r}") from None
    if "kind" not in values:
        raise ConfigError("missing required key 'kind'")
    if "datum_id" not in values:
        raise ConfigError("missing required key 'datum'")
    return ExperimentConfig(**values)


def serialize_config(cfg: ExperimentConfig) -> str:
    """Canonical text form; parse(serialize(cfg)) == cfg."""
    lines = []
    for f in fields(ExperimentConfig):
        v = getattr(cfg, f.name)
        if f.name in _LIST_FIELDS:
            v = ",".join(f"{x:.17g}" for x in v)
        elif isinstance(v, float):
            v = f"{v:.17g}"
        lines.append(f"{f.name} = {v}")
    return "\n".join(lines) + "\n"


def _fmt(v: float) -> str:
    return f"{v:.12e}"


def _umask() -> int:
    mask = os.umask(0o022)
    os.umask(mask)
    return mask


def _atomic_write(path: str, content: str) -> None:
    """Write content to path through a private temporary file in the same
    directory, so concurrent writers never share or expose a partial file.
    The file gets the mode a plain open() would give it, and its directory
    is created if missing, so a run that fails before writing leaves none."""
    directory, name = os.path.split(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(prefix=f".{name}.", suffix=".tmp", dir=directory)
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            os.fchmod(fh.fileno(), 0o666 & ~_umask())
            fh.write(content)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except FileNotFoundError:
            pass
        raise


def _write_csv(path: str, header: str, rows) -> None:
    lines = [header]
    lines.extend(",".join(_fmt(v) for v in row) for row in rows)
    _atomic_write(path, "\n".join(lines) + "\n")


def _svg_line(path: str, series, logx: bool = False, logy: bool = False,
              width: int = 640, height: int = 400) -> None:
    """Minimal hand-assembled SVG: axes plus one polyline per series."""
    pts_all = [(x, y) for _, pts in series for x, y in pts]
    if not pts_all:
        return
    tx = (lambda v: math.log10(v)) if logx else (lambda v: v)
    ty = (lambda v: math.log10(max(v, 1e-300))) if logy else (lambda v: v)
    xs = [tx(x) for x, _ in pts_all]
    ys = [ty(y) for _, y in pts_all]
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ys), max(ys)
    sx = (lambda v: 60.0) if x1 == x0 else (
        lambda v: 60.0 + (width - 100.0) * (tx(v) - x0) / (x1 - x0))
    sy = (lambda v: height / 2.0) if y1 == y0 else (
        lambda v: height - 40.0 - (height - 80.0) * (ty(v) - y0) / (y1 - y0))
    colors = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd")
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="60" y1="{height - 40}" x2="{width - 40}" y2="{height - 40}" stroke="black"/>',
        f'<line x1="60" y1="40" x2="60" y2="{height - 40}" stroke="black"/>',
    ]
    for i, (label, pts) in enumerate(series):
        coords = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in pts)
        color = colors[i % len(colors)]
        parts.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="1.5" points="{coords}"/>'
        )
        parts.append(
            f'<text x="{width - 200}" y="{20 + 16 * i}" fill="{color}" '
            f'font-size="12">{label}</text>'
        )
    parts.append("</svg>")
    _atomic_write(path, "\n".join(parts) + "\n")


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
    quadrature that could not certify its tolerance)."""
    try:
        u0 = initial_data.from_id(cfg.datum_id)
    except ValueError as exc:
        return RunResult(2, [], {}, f"config-error: {exc}")
    base = os.path.join(cfg.out_dir, f"{cfg.kind}_{_slug(cfg.datum_id)}")
    try:
        handler = _HANDLERS[cfg.kind]
        ok, scalars, files = handler(cfg, u0, base)
    except (ConfigError, ValueError) as exc:
        return RunResult(2, [], {}, f"config-error: {exc}")
    except (SolverFailure, UncertifiedQuadrature) as exc:
        return RunResult(3, [], {}, f"solver-failure: {exc}")
    summary = {
        "kind": cfg.kind,
        "datum": cfg.datum_id,
        "pass": bool(ok),
        "scalars": scalars,
    }
    manifest = base + "_summary.json"
    _atomic_write(manifest, json.dumps(summary, indent=2, sort_keys=True) + "\n")
    files = files + [manifest]
    if ok:
        return RunResult(0, files, summary)
    return RunResult(1, files, summary, f"assertion-failure: {cfg.kind} on {cfg.datum_id}")


def _derivative_free(u0) -> bool:
    return u0.sup_left == 0.0 and u0.sup_right == 0.0


def _run_exact_step(cfg, u0, base):
    if not cfg.datum_id.startswith("step:"):
        raise ConfigError("exact-step requires a step datum")
    spec = cfg.quadrature()
    a = float(u0.eval(-1.0))
    b = float(u0.eval(1.0))
    from .kernels import profile_F

    rows = []
    worst = 0.0
    xs = np.linspace(-cfg.L, cfg.L, cfg.n)
    for t in cfg.times():
        nums = semigroup.scaled_evolve_many(u0, xs, t, spec)
        exact = a * profile_F(-xs) + b * profile_F(xs)
        diffs = np.abs(nums - exact)
        worst = max(worst, float(np.max(diffs)))
        rows.extend(zip([t] * len(xs), xs, nums, exact, diffs))
    path = base + ".csv"
    _write_csv(path, CSV_HEADERS["exact-step"], rows)
    ok = worst <= 2.0 * cfg.abs_tol
    return ok, {"max_abs_diff": worst}, [path]


def _run_profile_error(cfg, u0, base):
    spec = cfg.quadrature()
    rows = []
    for t in cfg.times():
        rep = profile_bounds.profile_error(u0, cfg.L, t, cfg.n, spec)
        rows.append((t, cfg.L, rep.sup_error, rep.coeff_left, rep.coeff_right))
    path = base + ".csv"
    _write_csv(path, CSV_HEADERS["profile-error"], rows)
    svg = base + ".svg"
    _svg_line(svg, [("sup_error", [(r[0], max(r[2], 1e-16)) for r in rows])],
              logx=True, logy=True)
    sups = [r[2] for r in rows]
    if _derivative_free(u0):
        ok = all(s <= 2.0 * cfg.abs_tol for s in sups)
    else:
        ok = all(np.isfinite(s) and s <= 4.0 * u0.sup_norm + cfg.abs_tol for s in sups)
    return ok, {"sup_error_first": sups[0], "sup_error_last": sups[-1]}, [path, svg]


def _run_log_kernel_bound(cfg, u0, base):
    spec = cfg.quadrature()
    rows = []
    ok = True
    for x in cfg.x_values:
        for t in cfg.times():
            lhs, rhs = profile_bounds.log_kernel_bound(u0, float(x), t, spec)
            margin = rhs - lhs
            ok = ok and lhs <= rhs + 2.0 * cfg.abs_tol
            rows.append((x, t, lhs, rhs, margin))
    path = base + ".csv"
    _write_csv(path, CSV_HEADERS["log-kernel-bound"], rows)
    return ok, {"min_margin": min(r[4] for r in rows)}, [path]


def _run_envelope_bound(cfg, u0, base):
    spec = cfg.quadrature()
    rows = []
    ok = True
    for t in cfg.times():
        st = math.sqrt(t)
        a = float(u0.eval(-st))
        b = float(u0.eval(st))
        measured = profile_bounds.sup_profile_error(u0, a, b, cfg.L, t, cfg.n, spec)
        bound = profile_bounds.envelope_bound(u0, a, b, cfg.L, t, spec)
        ok = ok and measured <= bound + 2.0 * cfg.abs_tol
        rows.append((t, a, b, measured, bound, bound - measured))
    path = base + ".csv"
    _write_csv(path, CSV_HEADERS["envelope-bound"], rows)
    return ok, {"min_margin": min(r[5] for r in rows)}, [path]


def _run_dilation_bound(cfg, u0, base):
    rows = []
    ok = True
    for alpha in cfg.alphas:
        for s in cfg.s_values:
            lhs, rhs = profile_bounds.dilation_difference_bound(u0, alpha, s)
            ok = ok and lhs <= rhs + 1e-12
            rows.append((alpha, s, lhs, rhs))
    path = base + ".csv"
    _write_csv(path, CSV_HEADERS["dilation-bound"], rows)
    return ok, {"max_lhs": max(r[2] for r in rows)}, [path]


def _run_rescaled_check(cfg, u0, base):
    spec = cfg.quadrature()
    rows = []
    for h in cfg.h_ladder:
        res = semigroup.rescaled_residual(u0, cfg.x_window, cfg.tau, h, spec)
        rows.append((h, res))
    path = base + ".csv"
    _write_csv(path, CSV_HEADERS["rescaled-check"], rows)
    svg = base + ".svg"
    _svg_line(svg, [("residual", [(h, max(r, 1e-18)) for h, r in rows])],
              logx=True, logy=True)
    ok = min(r for _, r in rows) <= 1e-3
    return ok, {"residual_min": min(r for _, r in rows)}, [path, svg]


def _run_curvature_gap(cfg, u0, base):
    spec = cfg.quadrature()
    gaps = curvature_flow.curvature_heat_gap(u0, cfg.fd_config(), spec)
    path = base + ".csv"
    _write_csv(path, CSV_HEADERS["curvature-gap"], gaps)
    svg = base + ".svg"
    _svg_line(svg, [("gap", [(t, max(g, 1e-16)) for t, g in gaps])],
              logx=True, logy=True)
    vals = [g for _, g in gaps]
    if max(vals) <= 1e-8:
        ok = True
    else:
        ok = max(vals) / max(min(vals), 1e-300) <= 10.0
    return ok, {"gap_max": max(vals), "gap_min": min(vals)}, [path, svg]


def _run_flow_profile_error(cfg, u0, base):
    errs = curvature_flow.flow_profile_error(
        u0, cfg.fd_config(), cfg.L, cfg.times(), cfg.n
    )
    path = base + ".csv"
    _write_csv(path, CSV_HEADERS["flow-profile-error"], errs)
    svg = base + ".svg"
    _svg_line(svg, [("sup_error", [(t, max(e, 1e-16)) for t, e in errs])],
              logx=True, logy=True)
    ok = errs[-1][1] <= errs[0][1]
    return ok, {"sup_error_first": errs[0][1], "sup_error_last": errs[-1][1]}, [path, svg]


def _run_accumulation(cfg, u0, base):
    spec = cfg.quadrature()
    lams = cfg.lambda_ladder or tuple(
        math.exp(k * math.pi / 8.0) for k in range(32)
    )
    pairs = profile_bounds.accumulation_samples(u0, lams)
    rows = [(lam, a, b) for lam, (a, b) in zip(lams, pairs)]
    path = base + ".csv"
    _write_csv(path, CSV_HEADERS["accumulation"], rows)
    fit_rows = []
    xs = np.linspace(-cfg.L, cfg.L, cfg.n)
    for t in cfg.times():
        vals = semigroup.scaled_evolve_many(u0, xs, t, spec)
        alpha, beta = profile_bounds.fit_profile_coefficients(xs, vals)
        fit_rows.append((t, alpha, beta))
    fit_path = base + "_fit.csv"
    _write_csv(fit_path, CSV_HEADERS["accumulation-fit"], fit_rows)
    svg = base + ".svg"
    _svg_line(svg, [
        ("datum pairs", [(a, b) for _, a, b in rows]),
        ("fitted coefficients", [(a, b) for _, a, b in fit_rows]),
    ])
    ok = all(np.isfinite(v) for row in rows + fit_rows for v in row)
    return ok, {"n_samples": float(len(rows))}, [path, fit_path, svg]


def _run_sliding_average(cfg, u0, base):
    spec = cfg.quadrature()
    rows = []
    prev = None
    for R in cfg.R_ladder:
        avg = semigroup.sliding_average(u0, 0.0, R, spec)
        delta = 0.0 if prev is None else avg - prev
        rows.append((R, avg, delta))
        prev = avg
    path = base + ".csv"
    _write_csv(path, CSV_HEADERS["sliding-average"], rows)
    svg = base + ".svg"
    _svg_line(svg, [("average", [(R, a) for R, a, _ in rows])], logx=True)
    if _derivative_free(u0):
        ok = all(abs(a - rows[0][1]) <= 2.0 * cfg.abs_tol for _, a, _ in rows)
    else:
        ok = all(np.isfinite(a) for _, a, _ in rows)
    return ok, {"average_last": rows[-1][1]}, [path, svg]


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
