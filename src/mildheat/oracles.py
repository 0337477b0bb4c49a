"""Slow, independent reference integrators used to mint golden values.

Everything here is the composite trapezoid rule with end corrections on
dense uniform numpy grids (10^5 panels by default): the weights 3/8, 7/6 and
23/24 at each end (Press et al., Numerical Recipes, eq. 4.1.14) make it
O(h^4) where the plain rule is O(h^2), and it stays deliberately independent
of the refining Simpson loops it cross-checks.  Exposed on the CLI via the
`oracle` verb.
"""

from __future__ import annotations

import math

import numpy as np

SQRT_PI = math.sqrt(math.pi)


def _trapezoid(fx: np.ndarray, a: float, b: float) -> float:
    """int_a^b f from its values fx at len(fx) >= 6 equally spaced nodes,
    with the end weights 3/8, 7/6, 23/24 in place of 1/2, 1, 1."""
    if len(fx) < 6:
        raise ValueError(f"panels must be at least 5, got {len(fx) - 1}")
    ends = np.array([-5.0 / 8.0, 1.0 / 6.0, -1.0 / 24.0]) @ (fx[:3] + fx[:-4:-1])
    return float((b - a) / (len(fx) - 1) * (np.sum(fx) + ends))


def kernel_G_trapezoid(z: float, panels: int = 100_000) -> float:
    """(1/(2 sqrt(pi))) int_0^inf e^{-(z-y)^2/4} |log y| dy by dense trapezoid.

    Same split as the production evaluator (y = e^s below 1, direct above) but
    summed with fixed uniform panels, in absolute y on [1, max(1, z) + 14]: a
    reference only for moderate z, since at large z the panels outgrow the
    kernel's width and ulp(z) eats its digits.  With 10^5 panels it is within
    1.2e-15 of QUADPACK at the 20 points of acceptance criterion 02, and
    within 3e-14 of kernels.kernel_G at abs_tol 1e-13 up to z = 1e4; past
    that its error grows (3e-13 at 3e4, 4e-12 at 1e5, 0.84 for 13.8 at 1e6),
    so z above 1e4 raises ValueError.
    """
    if np.iscomplexobj(z) or not math.isfinite(z) or z > 1e4:
        raise ValueError(f"z must be finite and at most 1e4, got {z}")
    s = np.linspace(-40.0, 0.0, panels + 1)
    ys = np.exp(s)
    low = _trapezoid(np.exp(-0.25 * (z - ys) ** 2) * (-s) * ys, -40.0, 0.0)
    upper_lim = max(1.0, z) + 14.0
    y = np.linspace(1.0, upper_lim, panels + 1)
    high = _trapezoid(np.exp(-0.25 * (z - y) ** 2) * np.log(y), 1.0, upper_lim)
    return (low + high) / (2.0 * SQRT_PI)


def profile_F_trapezoid(z: float, panels: int = 100_000) -> float:
    """Cumulative Gaussian (variance 2) by dense trapezoid from -14: 0 at
    z <= -14 and 1 at z >= 14, each off by erfc(7) / 2 < 2e-23, so the panels
    never outgrow the Gaussian."""
    if np.iscomplexobj(z) or not math.isfinite(z):
        raise ValueError(f"z must be finite, got {z}")
    if abs(z) >= 14.0:
        return 0.0 if z < 0 else 1.0
    y = np.linspace(-14.0, z, panels + 1)
    return _trapezoid(np.exp(-0.25 * y * y), -14.0, z) / (2.0 * SQRT_PI)


def heat_kernel_mass_trapezoid(t: float, panels: int = 100_000) -> float:
    """Integral of the heat kernel over |x| <= 14 sqrt(t)."""
    if np.iscomplexobj(t) or not (t > 0 and math.isfinite(t)):
        raise ValueError(f"t must be positive and finite, got {t}")
    w = 14.0 * math.sqrt(t)
    x = np.linspace(-w, w, panels + 1)
    k = np.exp(-x * x / (4.0 * t)) / (2.0 * math.sqrt(math.pi * t))
    return _trapezoid(k, -w, w)


ORACLES = {
    "kernel_G": kernel_G_trapezoid,
    "profile_F": profile_F_trapezoid,
    "heat_kernel_mass": heat_kernel_mass_trapezoid,
}
