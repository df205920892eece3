"""Closed-form sphere references, checked against quadratures that share
nothing with the library's mesh machinery."""

import math

import numpy as np
import pytest
from scipy import integrate
from scipy.stats import qmc

from shellbound import InvalidArgumentError, PhysicalConstants, UnsupportedRegimeError
from shellbound.oracles import (
    SphereOracleInput,
    sphere_Z_exact,
    sphere_pair_integral_exact,
    sphere_point_potential_exact,
    two_sphere_pair_integral_exact,
)


def test_pair_integral_values():
    # defaults give kappa = nu, so P = (1 - e^{-2 nu R}) / (2 nu)
    got = sphere_pair_integral_exact(SphereOracleInput(R=1.0, nu=1.0))
    assert got == pytest.approx(0.5 * (1.0 - math.exp(-2.0)), rel=1e-15)
    got2 = sphere_pair_integral_exact(SphereOracleInput(R=1.5, nu=0.3))
    assert got2 == pytest.approx((1.0 - math.exp(-0.9)) / 0.6, rel=1e-15)
    # kappa -> 0 limit is 2 m R / hbar^2
    assert sphere_pair_integral_exact(SphereOracleInput(R=2.0, nu=0.0)) == pytest.approx(2.0)
    heavy = PhysicalConstants(hbar=2.0, mass=3.0)
    kappa = math.sqrt(6.0) * 0.5 / 2.0
    expected = 3.0 / (4.0 * kappa) * (1.0 - math.exp(-2.0 * kappa))
    assert sphere_pair_integral_exact(
        SphereOracleInput(R=1.0, nu=0.5, constants=heavy)
    ) == pytest.approx(expected, rel=1e-15)


def test_pair_integral_qmc_cross_check():
    # scrambled-Sobol average over the raw 4D angular parametrization; the
    # eight replicate means land well inside 1e-3 of the reduction
    R, nu = 1.0, 1.0
    exact = sphere_pair_integral_exact(SphereOracleInput(R=R, nu=nu))
    area = 4.0 * math.pi * R * R
    estimates = []
    for seed in range(8):
        u = qmc.Sobol(d=4, scramble=True, seed=seed).random(2**20)
        z1, z2 = 2.0 * u[:, 0] - 1.0, 2.0 * u[:, 2] - 1.0
        p1, p2 = 2.0 * math.pi * u[:, 1], 2.0 * math.pi * u[:, 3]
        s1, s2 = np.sqrt(1.0 - z1 * z1), np.sqrt(1.0 - z2 * z2)
        x = R * np.column_stack([s1 * np.cos(p1), s1 * np.sin(p1), z1])
        y = R * np.column_stack([s2 * np.cos(p2), s2 * np.sin(p2), z2])
        d = np.linalg.norm(x - y, axis=1)
        g = np.exp(-nu * d) / (4.0 * math.pi * d)
        estimates.append(area * float(g.mean()))
    est = float(np.mean(estimates))
    assert abs(est - exact) < 1e-3 * exact


def test_Z_matches_alpha_derivative():
    # Z = -d/d(alpha) of V * pair integral at alpha = nu^2
    R, nu, h = 1.0, 1.0, 1e-5
    V = 4.0 * math.pi * R * R

    def vp(alpha):
        return V * sphere_pair_integral_exact(SphereOracleInput(R=R, nu=math.sqrt(alpha)))

    fd = -(vp(nu * nu + h) - vp(nu * nu - h)) / (2.0 * h)
    assert sphere_Z_exact(SphereOracleInput(R=R, nu=nu)) == pytest.approx(fd, rel=1e-9)


def test_Z_value():
    # Z(R=1, nu=1) = pi (1 - 3 e^{-2}) at default constants
    got = sphere_Z_exact(SphereOracleInput(R=1.0, nu=1.0))
    assert got == pytest.approx(math.pi * (1.0 - 3.0 * math.exp(-2.0)), rel=1e-15)


def test_point_potential_matches_direct_quadrature():
    R, nu, s = 1.0, 0.8, 2.5
    c = PhysicalConstants()
    pref = c.mass / (2.0 * math.pi * c.hbar**2)
    kappa = c.kappa_factor * nu

    def integrand(theta):
        d = math.sqrt(R * R + s * s - 2.0 * R * s * math.cos(theta))
        return pref * math.exp(-kappa * d) / d * 2.0 * math.pi * R * R * math.sin(theta)

    direct, _ = integrate.quad(integrand, 0.0, math.pi, epsabs=0.0, epsrel=1e-12)
    direct /= math.sqrt(4.0 * math.pi * R * R)
    got = sphere_point_potential_exact(SphereOracleInput(R=R, nu=nu, s=s))
    assert got == pytest.approx(direct, rel=1e-10)


@pytest.mark.parametrize("R_i, R_j, D, nu", [(1.0, 1.0, 2.5, 1.0), (1.0, 0.5, 4.0, 0.3)])
def test_two_sphere_matches_integrated_point_potential(R_i, R_j, D, nu):
    # average the one-sphere point potential of sphere j over sphere i
    def integrand(theta):
        s = math.sqrt(R_i * R_i + D * D - 2.0 * R_i * D * math.cos(theta))
        pot = sphere_point_potential_exact(SphereOracleInput(R=R_j, nu=nu, s=s))
        return pot * 2.0 * math.pi * R_i * R_i * math.sin(theta)

    direct, _ = integrate.quad(integrand, 0.0, math.pi, epsabs=0.0, epsrel=1e-12)
    direct /= math.sqrt(4.0 * math.pi * R_i * R_i)
    got = two_sphere_pair_integral_exact(R_i, R_j, D, nu)
    assert got == pytest.approx(direct, rel=1e-10)


def test_two_sphere_limits():
    # kappa -> 0: sqrt(V_i V_j) m / (2 pi hbar^2 D); large kappa stays finite
    assert two_sphere_pair_integral_exact(1.0, 2.0, 4.0, 0.0) == pytest.approx(0.5, rel=1e-15)
    far = two_sphere_pair_integral_exact(1.0, 1.0, 2.0, 500.0)
    assert far == pytest.approx(5e-7, rel=1e-12)
    with pytest.raises(InvalidArgumentError):
        two_sphere_pair_integral_exact(1.0, 1.0, 1.9, 1.0)
    with pytest.raises(InvalidArgumentError):
        two_sphere_pair_integral_exact(0.0, 1.0, 4.0, 1.0)
    with pytest.raises(InvalidArgumentError):
        two_sphere_pair_integral_exact(1.0, 1.0, 4.0, -1.0)


def test_input_validation():
    with pytest.raises(InvalidArgumentError):
        SphereOracleInput(R=0.0, nu=1.0)
    with pytest.raises(InvalidArgumentError):
        SphereOracleInput(R=1.0, nu=-1.0)
    with pytest.raises(InvalidArgumentError):
        SphereOracleInput(R=1.0, nu=1.0, s=0.5)  # interior point
    with pytest.raises(InvalidArgumentError):
        sphere_Z_exact(SphereOracleInput(R=1.0, nu=0.0))
    with pytest.raises(InvalidArgumentError):
        sphere_point_potential_exact(SphereOracleInput(R=1.0, nu=1.0))
    with pytest.raises(UnsupportedRegimeError):
        sphere_point_potential_exact(SphereOracleInput(R=1.0, nu=0.0, s=2.0))
