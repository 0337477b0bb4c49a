"""Slow, independent reference integrators used to mint golden values.

Everything here is plain composite trapezoid on dense numpy grids (10^6
panels by default): deliberately independent of the adaptive Simpson path it
cross-checks.  Exposed on the CLI via the `oracle` verb.
"""

from __future__ import annotations

import math

import numpy as np

SQRT_PI = math.sqrt(math.pi)


def kernel_G_trapezoid(z: float, panels: int = 1_000_000) -> float:
    """(1/(2 sqrt(pi))) int_0^inf e^{-(z-y)^2/4} |log y| dy by dense trapezoid.

    Same split as the production evaluator (y = e^s below 1, direct above) but
    summed with fixed uniform panels.
    """
    s = np.linspace(-40.0, 0.0, panels + 1)
    ys = np.exp(s)
    low = np.trapezoid(np.exp(-0.25 * (z - ys) ** 2) * (-s) * ys, s)
    upper_lim = max(1.0, z) + 14.0
    y = np.linspace(1.0, upper_lim, panels + 1)
    high = np.trapezoid(np.exp(-0.25 * (z - y) ** 2) * np.log(y), y)
    return (low + high) / (2.0 * SQRT_PI)


def profile_F_trapezoid(z: float, panels: int = 1_000_000) -> float:
    """Cumulative Gaussian (variance 2) by dense trapezoid from -14."""
    if z <= -14.0:
        return 0.0
    y = np.linspace(-14.0, z, panels + 1)
    return float(np.trapezoid(np.exp(-0.25 * y * y), y)) / (2.0 * SQRT_PI)


def heat_kernel_mass_trapezoid(t: float, tail_radius: float = 14.0,
                               panels: int = 1_000_000) -> float:
    """Integral of the heat kernel over |x| <= tail_radius * sqrt(t)."""
    if not (t > 0 and math.isfinite(t)):
        raise ValueError(f"t must be positive and finite, got {t}")
    w = tail_radius * math.sqrt(t)
    x = np.linspace(-w, w, panels + 1)
    k = np.exp(-x * x / (4.0 * t)) / (2.0 * math.sqrt(math.pi * t))
    return float(np.trapezoid(k, x))


ORACLES = {
    "kernel_G": kernel_G_trapezoid,
    "profile_F": profile_F_trapezoid,
    "heat_kernel_mass": heat_kernel_mass_trapezoid,
}
