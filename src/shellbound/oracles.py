"""Closed-form sphere references used to validate the numerical pipeline.

Everything here is derived by elementary angular reduction and kept free of
the quadrature machinery on purpose: these are the independent answers the
mesh-based code must reproduce.

For a sphere of radius R and kappa = sqrt(2m) nu / hbar:

  pair integral   (1/V) int int G_nu = (m / hbar^2 kappa) (1 - e^{-2 kappa R})
                  via s = sin(theta/2), which collapses the double surface
                  integral to (2/R) int_0^1 e^{-2 kappa R s} ds per point;
  Z               minus the alpha-derivative (alpha = nu^2) of V * pair;
  point potential V^{-1/2} int_Sigma G_nu(d(x, a)) = shell-theorem integral
                  (m / sqrt(pi) hbar^2) sinh(kappa R) e^{-kappa s} / (kappa s)
                  for an external point at distance s from the center;
  two spheres     the shell theorem applied once per sphere, for centers D
                  apart with D >= R_i + R_j:
                  P_ij = sqrt(V_i V_j) (m / 2 pi hbar^2) sinhc(kappa R_i)
                         sinhc(kappa R_j) e^{-kappa D} / D,
                  with sinhc(x) = sinh(x) / x.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import InvalidArgumentError, UnsupportedRegimeError
from .geometry import PhysicalConstants

__all__ = [
    "SphereOracleInput",
    "sphere_pair_integral_exact",
    "sphere_Z_exact",
    "sphere_point_potential_exact",
    "two_sphere_pair_integral_exact",
]


@dataclass(frozen=True)
class SphereOracleInput:
    R: float
    nu: float
    s: float | None = None
    constants: PhysicalConstants = PhysicalConstants()

    def __post_init__(self):
        if not self.R > 0.0:
            raise InvalidArgumentError(f"R must be positive, got {self.R}")
        if not self.nu >= 0.0:
            raise InvalidArgumentError(f"nu must be >= 0, got {self.nu}")
        if self.s is not None and not self.s > self.R:
            raise InvalidArgumentError(f"external point needs s > R, got s={self.s}, R={self.R}")


def sphere_pair_integral_exact(inp: SphereOracleInput) -> float:
    """(1/V) double surface integral of the flat static kernel."""
    m, hbar = inp.constants.mass, inp.constants.hbar
    kappa = inp.constants.kappa_factor * inp.nu
    if kappa == 0.0:
        return 2.0 * m * inp.R / (hbar * hbar)
    x = 2.0 * kappa * inp.R
    return (m / (hbar * hbar * kappa)) * -math.expm1(-x)


def sphere_Z_exact(inp: SphereOracleInput) -> float:
    """Normalization integral Z = -d/d(alpha) of V * pair integral."""
    if not inp.nu > 0.0:
        raise InvalidArgumentError("Z requires nu > 0")
    m, hbar = inp.constants.mass, inp.constants.hbar
    kf = inp.constants.kappa_factor
    kappa = kf * inp.nu
    V = 4.0 * math.pi * inp.R * inp.R
    x = 2.0 * kappa * inp.R
    bracket = -math.expm1(-x) - x * math.exp(-x)
    return V * m / (2.0 * hbar * hbar * kf * inp.nu**3) * bracket


def sphere_point_potential_exact(inp: SphereOracleInput) -> float:
    """V^{-1/2} surface integral of the kernel to an external point."""
    if inp.s is None:
        raise InvalidArgumentError("point potential needs the external distance s")
    if not inp.nu > 0.0:
        raise UnsupportedRegimeError("point potential oracle requires nu > 0")
    m, hbar = inp.constants.mass, inp.constants.hbar
    kappa = inp.constants.kappa_factor * inp.nu
    return (
        m
        / (math.sqrt(math.pi) * hbar * hbar)
        * math.sinh(kappa * inp.R)
        * math.exp(-kappa * inp.s)
        / (kappa * inp.s)
    )


def _log_sinhc(x: float) -> float:
    """log(sinh(x) / x) for x >= 0, without overflow at large x."""
    if x < 1e-4:
        return x * x / 6.0
    return x + math.log(-math.expm1(-2.0 * x) / (2.0 * x))


def two_sphere_pair_integral_exact(
    R_i: float,
    R_j: float,
    D: float,
    nu: float,
    constants: PhysicalConstants = PhysicalConstants(),
) -> float:
    """(V_i V_j)^{-1/2} kernel integral over two spheres with centers D apart."""
    if not (R_i > 0.0 and R_j > 0.0):
        raise InvalidArgumentError(f"radii must be positive, got {R_i}, {R_j}")
    if not D >= R_i + R_j:
        raise InvalidArgumentError(f"spheres overlap: D={D} < {R_i} + {R_j}")
    if not nu >= 0.0:
        raise InvalidArgumentError(f"nu must be >= 0, got {nu}")
    m, hbar = constants.mass, constants.hbar
    kappa = constants.kappa_factor * nu
    root_VV = 4.0 * math.pi * R_i * R_j
    shells = _log_sinhc(kappa * R_i) + _log_sinhc(kappa * R_j) - kappa * D
    return root_VV * m / (2.0 * math.pi * hbar * hbar) * math.exp(shells) / D
