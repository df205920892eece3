"""Heat kernels of the model spaces, their static (Laplace-in-time) kernels,
and the Gaussian upper bound on the heat kernel.

The static kernel is the free resolvent at energy E = -nu**2,

    G_nu(d) = (1/hbar) * integral_0^inf dt exp(-nu**2 t/hbar) K_t(d),

which in flat space is the Yukawa kernel (m/2*pi*hbar^2) e^{-gamma d}/d, and
in hyperbolic space of curvature -K picks up the factor
sqrt(K) d / sinh(sqrt(K) d).  Its decay rate is gamma(nu) = kappa_f nu in
flat space and sqrt(K + kappa_f^2 nu^2) in hyperbolic space, with
kappa_f^2 = 2 m / hbar^2.  Its slope gamma'(nu) is kappa_f in flat space
and kappa_f^2 nu / gamma in hyperbolic space, and dG/dnu = -gamma'(nu) d G.
Every other module takes gamma and gamma' from _decay_rate.

The flat heat_kernel is also the Gaussian comparison lower bound of the
two-sided heat-kernel estimate, and widened by C3 the Gaussian part of the
upper bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError
from .geometry import AmbientSpace, PhysicalConstants, flat_space

__all__ = [
    "KernelBoundConstants",
    "heat_kernel",
    "static_kernel_array",
    "heat_kernel_upper_bound",
]


@dataclass(frozen=True)
class KernelBoundConstants:
    """Dimensionless constants (C1, C2, C3) of the off-diagonal upper bound."""

    C1: float
    C2: float
    C3: float

    def __post_init__(self):
        for name in ("C1", "C2", "C3"):
            val = getattr(self, name)
            if not (val > 0.0 and math.isfinite(val)):
                raise InvalidArgumentError(f"{name} must be positive, got {val}")


def _x_over_sinh(x):
    """x/sinh(x) in its decaying form 2x e^{-x} / (1 - e^{-2x}), which
    neither overflows nor divides inf by inf; 1 - x^2/6 below 1e-6.  Past
    x = 1e3 the quotient is 0 in floats, and so it is at x = inf."""
    x = np.minimum(np.asarray(x, dtype=float), 1e3)
    small = x < 1e-6
    safe = np.where(small, 1.0, x)
    return np.where(small, 1.0 - x * x / 6.0, 2.0 * safe * np.exp(-safe) / -np.expm1(-2.0 * safe))


def _decay_rate(space: AmbientSpace, constants: PhysicalConstants, nu: float):
    """(gamma, d gamma / d nu) of the static kernel's decay rate at nu."""
    if space.is_flat:
        kf = constants.kappa_factor
        return kf * nu, kf
    kf2 = 2.0 * constants.mass / (constants.hbar * constants.hbar)
    gamma = math.sqrt(space.curvature_K + kf2 * nu * nu)
    return gamma, kf2 * nu / gamma


def heat_kernel(space: AmbientSpace, constants: PhysicalConstants, t, d):
    """Heat kernel of exp(-t H / hbar), H = -hbar^2 Lap / 2m, at distance d.

    Broadcasts over array t and d; returns a float for scalar inputs.
    """
    t_arr = np.asarray(t, dtype=float)
    d_arr = np.asarray(d, dtype=float)
    if not np.all(t_arr > 0.0):
        raise InvalidArgumentError("heat kernel requires t > 0")
    if not np.all(d_arr >= 0.0):
        raise InvalidArgumentError("heat kernel requires d >= 0")
    m, hbar = constants.mass, constants.hbar
    gauss = (m / (2.0 * math.pi * hbar * t_arr)) ** 1.5 * np.exp(
        -m * d_arr * d_arr / (2.0 * hbar * t_arr)
    )
    if space.is_flat:
        out = gauss
    else:
        K = space.curvature_K
        out = gauss * _x_over_sinh(math.sqrt(K) * d_arr) * np.exp(
            -K * hbar * t_arr / (2.0 * m)
        )
    if np.ndim(out) == 0:
        return float(out)
    return out


def static_kernel_array(
    space: AmbientSpace,
    constants: PhysicalConstants,
    nu: float,
    d: np.ndarray,
    moment: bool = False,
):
    """Vectorized static kernel G over a strictly positive distance array.

    With moment=True, returns the pair (G, d G).  In flat space d G is the
    kernel's exponential part, computed on the way to G, so the pair costs
    no more array operations than G alone; it is built in one buffer, the
    same floats as pref * np.exp(-kappa * d) without two temporaries.
    """
    m, hbar = constants.mass, constants.hbar
    d = np.asarray(d, dtype=float)
    pref = m / (2.0 * math.pi * hbar * hbar)
    if space.is_flat:
        dg = np.multiply(d, -(constants.kappa_factor * nu))
        np.exp(dg, out=dg)
        dg *= pref
        return (dg / d, dg) if moment else dg / d
    K = space.curvature_K
    gamma = _decay_rate(space, constants, nu)[0]
    g = pref * (_x_over_sinh(math.sqrt(K) * d) / d) * np.exp(-gamma * d)
    return (g, d * g) if moment else g


def _check_volume(V_M: float) -> None:
    """Raise unless the ambient volume V_M is positive: finite, or inf for
    a noncompact manifold.  Every bound with a C1 / V_M term checks it."""
    if not V_M > 0.0:
        raise InvalidArgumentError(f"V_M must be positive (or inf), got {V_M}")


def heat_kernel_upper_bound(
    kc: KernelBoundConstants,
    V_M: float,
    constants: PhysicalConstants,
    t,
    d,
):
    """Off-diagonal upper bound C1/V_M + C2 * Gaussian with widened variance
    C3: the flat heat kernel at distance d / sqrt(C3).

    Pass V_M = math.inf for noncompact ambient manifolds; the volume term
    then drops out.
    """
    _check_volume(V_M)
    vol_term = 0.0 if math.isinf(V_M) else kc.C1 / V_M
    d_wide = np.asarray(d, dtype=float) / math.sqrt(kc.C3)
    return vol_term + kc.C2 * heat_kernel(flat_space(), constants, t, d_wide)
