"""Closed-form references for systems of spheres, free of the quadrature.

sphere_pair     (1/V) double integral of the flat static kernel over one
                sphere, taken from shellbound.oracles.
sphere_offdiag  (V_i V_j)^{-1/2} double integral between two disjoint
                spheres.  By the shell theorem the average of
                e^{-kappa |x - y|} / |x - y| over a sphere of radius R about c
                is s(kappa R) e^{-kappa |x - c|} / |x - c| for any x outside
                it, with s(x) = sinh(x) / x.  Applied once on each sphere:
                P_ij = sqrt(V_i V_j) (m / 2 pi hbar^2) s(kR_i) s(kR_j) e^{-kD} / D.
ground_nu       ground-state nu of N spheres: the root of the lowest
                eigenvalue of the principal matrix built from the two above
                (the secular equation det Phi = 0 on its lowest branch),
                found with scipy.optimize.brentq.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.optimize import brentq

from shellbound.geometry import PhysicalConstants
from shellbound.oracles import SphereOracleInput, sphere_pair_integral_exact

CONSTANTS = PhysicalConstants()
_NU_FLOOR = 1e-12
_NU_CEIL = 1e4


def sphere_pair(R: float, nu: float, constants: PhysicalConstants = CONSTANTS) -> float:
    return sphere_pair_integral_exact(SphereOracleInput(R=R, nu=nu, constants=constants))


def _log_sinhc(x: float) -> float:
    """log(sinh(x) / x), finite for every x >= 0."""
    if x < 1e-4:
        return x * x / 6.0
    if x < 20.0:
        return math.log(math.sinh(x) / x)
    return x + math.log1p(-math.exp(-2.0 * x)) - math.log(2.0 * x)


def sphere_offdiag(
    R_i: float, R_j: float, D: float, nu: float, constants: PhysicalConstants = CONSTANTS
) -> float:
    """Shell-theorem pair integral of two spheres whose centers are D apart."""
    if D < R_i + R_j:
        raise ValueError(f"spheres overlap: D={D} < {R_i} + {R_j}")
    m, hbar = constants.mass, constants.hbar
    kappa = constants.kappa_factor * nu
    log_shape = _log_sinhc(kappa * R_i) + _log_sinhc(kappa * R_j) - kappa * D
    return 4.0 * math.pi * R_i * R_j * m / (2.0 * math.pi * hbar * hbar) * math.exp(log_shape) / D


def principal_matrix(spheres, couplings, nu: float, constants: PhysicalConstants = CONSTANTS):
    """Phi(nu) for spheres [(center, R)] with couplings [("lambda"|"nu_star", value)]."""
    n = len(spheres)
    A = np.empty((n, n))
    for i, ((c_i, R_i), (kind, value)) in enumerate(zip(spheres, couplings)):
        inv_lam = 1.0 / value if kind == "lambda" else sphere_pair(R_i, value, constants)
        A[i, i] = inv_lam - sphere_pair(R_i, nu, constants)
        for j in range(i + 1, n):
            c_j, R_j = spheres[j]
            A[i, j] = A[j, i] = -sphere_offdiag(R_i, R_j, math.dist(c_i, c_j), nu, constants)
    return A


def ground_nu(spheres, couplings, constants: PhysicalConstants = CONSTANTS) -> float | None:
    """nu of the ground state (energy -nu^2), or None without a bound state."""

    def omega(nu: float) -> float:
        return float(np.linalg.eigvalsh(principal_matrix(spheres, couplings, nu, constants))[0])

    stars = [value for kind, value in couplings if kind == "nu_star"]
    lo = max(stars) if stars else _NU_FLOOR
    f_lo = omega(lo)
    if f_lo > 0.0:
        return None
    if f_lo == 0.0:
        return lo
    hi = max(2.0 * lo, 1.0)
    while omega(hi) <= 0.0:
        hi *= 2.0
        if hi > _NU_CEIL:
            raise ValueError("no sign change below nu = 1e4")
    return brentq(omega, lo, hi, xtol=1e-15, rtol=4.0 * np.finfo(float).eps, maxiter=500)


def rel_err(got: float, exact: float) -> float:
    return abs(got - exact) / abs(exact)
