"""Catalog of initial values with exact derivatives and analytic metadata.

Each entry bundles the function, its derivative off the origin, the sup norm,
and analytic (never sampled) one-sided bounds on |x u0'(x)|, which the
explicit error bounds consume.  All entries are immutable and their eval/deriv
maps accept scalars or numpy arrays.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

E = math.e


class DecayClass(enum.Enum):
    """How |x u0'(x)| behaves at the ends of the log axis."""

    DECAYS_AT_INFINITY = "decays_at_infinity"
    BOUNDED_ONLY = "bounded_only"


@dataclass(frozen=True)
class InitialDatum:
    id: str
    eval: Callable
    deriv: Callable
    sup_norm: float
    sup_left: float   # sup over y<0 of |y u0'(y)|
    sup_right: float  # sup over y>0 of |y u0'(y)|
    decay_class: DecayClass
    smooth: bool      # C^2 with Hoelder second derivative
    oscillates_at_zero: bool = False  # infinitely many oscillations near 0

    def __repr__(self) -> str:  # keep the callables out of test failure output
        return f"InitialDatum({self.id!r})"


def _reject_origin(x) -> None:
    if np.any(np.asarray(x) == 0):
        raise ValueError("datum is undefined at x = 0")


def make_step(a: float, b: float) -> InitialDatum:
    """Two-level datum: a on the negative axis, b on the positive axis.

    The value at 0 is fixed to (a+b)/2 by convention (measure-zero point,
    irrelevant to every integral).
    """

    def ev(x):
        return np.where(np.asarray(x, dtype=float) < 0, a,
                        np.where(np.asarray(x, dtype=float) > 0, b, 0.5 * (a + b)))

    def dv(x):
        return np.zeros_like(np.asarray(x, dtype=float))

    return InitialDatum(
        id=f"step:{a:g},{b:g}",
        eval=ev,
        deriv=dv,
        sup_norm=max(abs(a), abs(b)),
        sup_left=0.0,
        sup_right=0.0,
        decay_class=DecayClass.DECAYS_AT_INFINITY,
        smooth=False,
    )


def make_constant(c: float) -> InitialDatum:
    def ev(x):
        return np.full_like(np.asarray(x, dtype=float), c)

    def dv(x):
        return np.zeros_like(np.asarray(x, dtype=float))

    return InitialDatum(
        id=f"constant:{c:g}",
        eval=ev,
        deriv=dv,
        sup_norm=abs(c),
        sup_left=0.0,
        sup_right=0.0,
        decay_class=DecayClass.DECAYS_AT_INFINITY,
        smooth=True,
    )


def make_log_sine() -> InitialDatum:
    """sin(log|x|): bounded, log-periodic, |x u0'(x)| = |cos(log|x|)| <= 1.

    Oscillates infinitely often near 0 and (on the log scale) near infinity;
    the slope bound holds but no limit exists at either end.
    """

    def ev(x):
        _reject_origin(x)
        return np.sin(np.log(np.abs(x)))

    def dv(x):
        _reject_origin(x)
        x = np.asarray(x, dtype=float)
        return np.cos(np.log(np.abs(x))) / x

    return InitialDatum(
        id="log_sine",
        eval=ev,
        deriv=dv,
        sup_norm=1.0,
        sup_left=1.0,
        sup_right=1.0,
        decay_class=DecayClass.BOUNDED_ONLY,
        smooth=False,
        oscillates_at_zero=True,
    )


def make_sub_log(alpha: float) -> InitialDatum:
    """sin((log(e + |x|))^alpha), 0 < alpha < 1.

    x u0'(x) = alpha (log(e+|x|))^(alpha-1) cos(...) |x|/(e+|x|) tends to 0
    both as |x| -> infinity and as |x| -> 0.  Since log(e+|x|) >= 1 and
    |x|/(e+|x|) < 1, alpha is an exact analytic bound on |x u0'(x)|.
    Not smooth: |x| has a kink at the origin.
    """
    if not 0 < alpha < 1:
        raise ValueError(f"alpha must lie in (0,1), got {alpha}")

    def ev(x):
        return np.sin(np.log(E + np.abs(x)) ** alpha)

    def dv(x):
        x = np.asarray(x, dtype=float)
        lg = np.log(E + np.abs(x))
        return (alpha * lg ** (alpha - 1.0) * np.cos(lg ** alpha)
                * np.sign(x) / (E + np.abs(x)))

    return InitialDatum(
        id=f"sub_log:{alpha:g}",
        eval=ev,
        deriv=dv,
        sup_norm=1.0,
        sup_left=alpha,
        sup_right=alpha,
        decay_class=DecayClass.DECAYS_AT_INFINITY,
        smooth=False,
    )


def make_smooth_log_sine(alpha: float) -> InitialDatum:
    """sin(((1/2) log(e + x^2))^alpha), 0 < alpha <= 1: a C-infinity variant.

    For alpha < 1 the slope functional |x u0'(x)| decays at infinity; for
    alpha = 1 it stays bounded (sup 1) without a limit.  With
    g = (1/2) log(e + x^2) >= 1/2 one gets
    |x u0'(x)| = alpha g^(alpha-1) |cos(g^alpha)| x^2/(e + x^2)
    <= alpha 2^(1-alpha), the analytic bound recorded below.
    """
    if not 0 < alpha <= 1:
        raise ValueError(f"alpha must lie in (0,1], got {alpha}")

    def ev(x):
        g = 0.5 * np.log(E + np.asarray(x, dtype=float) ** 2)
        return np.sin(g ** alpha)

    def dv(x):
        x = np.asarray(x, dtype=float)
        g = 0.5 * np.log(E + x ** 2)
        return alpha * g ** (alpha - 1.0) * np.cos(g ** alpha) * x / (E + x ** 2)

    bound = alpha * 2.0 ** (1.0 - alpha)
    decay = DecayClass.DECAYS_AT_INFINITY if alpha < 1 else DecayClass.BOUNDED_ONLY
    return InitialDatum(
        id=f"smooth_log_sine:{alpha:g}",
        eval=ev,
        deriv=dv,
        sup_norm=1.0,
        sup_left=bound,
        sup_right=bound,
        decay_class=decay,
        smooth=True,
    )


def make_gaussian(s: float) -> InitialDatum:
    """exp(-x^2/(4s)): smooth, rapidly decaying; closed-form heat evolution.

    |x u0'(x)| = (x^2/(2s)) exp(-x^2/(4s)) peaks at x^2 = 4s with value 2/e.
    """
    if s <= 0:
        raise ValueError(f"width parameter must be positive, got {s}")

    def ev(x):
        return np.exp(-np.asarray(x, dtype=float) ** 2 / (4.0 * s))

    def dv(x):
        x = np.asarray(x, dtype=float)
        return -x / (2.0 * s) * np.exp(-x ** 2 / (4.0 * s))

    return InitialDatum(
        id=f"gaussian:{s:g}",
        eval=ev,
        deriv=dv,
        sup_norm=1.0,
        sup_left=2.0 / E,
        sup_right=2.0 / E,
        decay_class=DecayClass.DECAYS_AT_INFINITY,
        smooth=True,
    )


def from_id(datum_id: str) -> InitialDatum:
    """Resolve a catalog string id, e.g. "step:0,1" or "sub_log:0.5"."""
    name, _, args = datum_id.partition(":")
    try:
        if name == "step":
            a, b = (float(v) for v in args.split(","))
            return make_step(a, b)
        if name == "constant":
            return make_constant(float(args))
        if name == "log_sine":
            if args:
                raise ValueError("log_sine takes no parameters")
            return make_log_sine()
        if name == "sub_log":
            return make_sub_log(float(args))
        if name == "smooth_log_sine":
            return make_smooth_log_sine(float(args))
        if name == "gaussian":
            return make_gaussian(float(args))
    except ValueError as exc:
        raise ValueError(f"bad datum id {datum_id!r}: {exc}") from None
    raise ValueError(f"unknown datum id {datum_id!r}")


def catalog() -> list[str]:
    """Representative ids accepted by from_id."""
    return [
        "step:0,1",
        "constant:0.5",
        "log_sine",
        "sub_log:0.5",
        "smooth_log_sine:0.5",
        "smooth_log_sine:1",
        "gaussian:1",
    ]
