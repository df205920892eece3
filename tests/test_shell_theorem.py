"""Independent references for the mirror-rule pair path and for point
potentials of non-sphere surfaces, from the shell theorem.

Outside itself a sphere of radius R and centre c acts as its area times
sinh(kappa R) / (kappa R) times the kernel G(|y - c|), kappa = kappa_f nu.
So the pair integral of a sphere with a surface X is a single integral over
X of G(|y - c|), and with c on X's axis of revolution it is 1-D: a periodic
integral in the tube angle for a torus, which the trapezoid rule resolves
exponentially (Trefethen & Weideman 2014, SIAM Rev. 56:385), and a smooth
integral in cos u for a spheroid (a, a, c), here by composite Gauss-Legendre
on 20-point panels, whose weights carry no rounding of a long rule.  The
same 1-D integrals are X's point potentials from points on its axis.

Bounds are about 3x the errors measured at nu = 1 (at least 1e-15); the
sphere beside the spheroid at gap 0.1 is pinned at its measured error, the
near-contact defect that an accurate near rule should lower.
"""

import math

import numpy as np
import pytest

from shellbound import Ellipsoid, Sphere, Torus, build_surface, flat_point
from shellbound.principal import pair_integral, surface_potential

TORUS = Torus((0.0, 0.0, 0.0), 2.0, 0.5)
SPHEROID = Ellipsoid((0.0, 0.0, 0.0), 1.0, 1.0, 1.5)
TORUS_POINTS = 256  # trapezoid points in the tube angle
SPHEROID_PANELS = 16  # 20-point Gauss-Legendre panels in cos u


def _kernel(constants, nu, d):
    pref = constants.mass / (2.0 * math.pi * constants.hbar**2)
    return pref * np.exp(-constants.kappa_factor * nu * d) / d


def _torus_axis_integral(torus, z0, constants, nu, n=TORUS_POINTS):
    """Integral of G(|y - (0, 0, z0)|) over a torus about the z axis."""
    R, r = torus.R_major, torus.r_minor
    u = 2.0 * math.pi * np.arange(n) / n
    ring = R + r * np.cos(u)
    d = np.sqrt(ring * ring + (r * np.sin(u) - z0) ** 2)
    return 2.0 * math.pi * (2.0 * math.pi / n) * math.fsum(r * ring * _kernel(constants, nu, d))


def _spheroid_rule(spheroid, panels):
    """Nodes t = cos u in [-1, 1] of composite 20-point Gauss-Legendre, and
    their weights times the spheroid's area element 2 pi a |x_u x x_v| / sin u."""
    a, c = spheroid.a, spheroid.c
    x, w = np.polynomial.legendre.leggauss(20)
    edges = np.linspace(-1.0, 1.0, panels + 1)
    half = np.diff(edges)[:, None] / 2.0
    t = ((edges[:-1, None] + edges[1:, None]) / 2.0 + half * x).ravel()
    jac = 2.0 * math.pi * a * np.sqrt(c * c * (1.0 - t * t) + a * a * t * t)
    return t, (half * w).ravel() * jac


def _spheroid_axis_integral(spheroid, z0, constants, nu, panels=SPHEROID_PANELS):
    """Integral of G(|y - (0, 0, z0)|) over a spheroid (a, a, c) about the z axis."""
    t, w = _spheroid_rule(spheroid, panels)
    a, c = spheroid.a, spheroid.c
    d = np.sqrt(a * a * (1.0 - t * t) + (c * t - z0) ** 2)
    return math.fsum(w * _kernel(constants, nu, d))


def _area(shape):
    if isinstance(shape, Torus):
        return 4.0 * math.pi**2 * shape.R_major * shape.r_minor
    e = math.sqrt(1.0 - (shape.a / shape.c) ** 2)  # prolate
    return 2.0 * math.pi * shape.a**2 * (1.0 + shape.c / (shape.a * e) * math.asin(e))


def _axis_integral(shape, z0, constants, nu, **refine):
    if isinstance(shape, Torus):
        return _torus_axis_integral(shape, z0, constants, nu, **refine)
    return _spheroid_axis_integral(shape, z0, constants, nu, **refine)


def _pair_reference(shape, z0, constants, nu):
    """P between the unit sphere at (0, 0, z0) and shape."""
    kr = constants.kappa_factor * nu
    sphere_area = 4.0 * math.pi
    far_field = sphere_area * math.sinh(kr) / kr
    integral = _axis_integral(shape, z0, constants, nu)
    return far_field * integral / math.sqrt(sphere_area * _area(shape))


@pytest.mark.parametrize(
    "shape, z0",
    [(TORUS, 0.0), (TORUS, 1.0), (TORUS, 1.6), (SPHEROID, 0.0), (SPHEROID, 2.6), (SPHEROID, 3.0)],
    ids=["torus-z0", "torus-z1", "torus-z1.6", "spheroid-z0", "spheroid-z2.6", "spheroid-z3"],
)
def test_references_self_converge(constants, shape, z0):
    # every centre and point the tests below use; doubling the points
    # moves no reference by 1e-15 relative
    refine = {"n": 2 * TORUS_POINTS} if isinstance(shape, Torus) else {"panels": 2 * SPHEROID_PANELS}
    for nu in (0.5, 1.0, 2.0):
        ref = _axis_integral(shape, z0, constants, nu)
        assert abs(_axis_integral(shape, z0, constants, nu, **refine) - ref) < 1e-15 * ref


def test_spheroid_reference_area():
    # the spheroid's rule, with G replaced by 1, gives the closed-form area
    area = math.fsum(_spheroid_rule(SPHEROID, SPHEROID_PANELS)[1])
    assert area == pytest.approx(_area(SPHEROID), rel=1e-15)


# (shape, z of the unit sphere's centre, order): the largest relative error
# of pair_integral against the reference in either argument order.  Gaps:
# 1.06 (torus, z = 1.6), 0.5 (sphere in the torus hole, z = 0; spheroid,
# z = 3), 0.1 (spheroid, z = 2.6).  Measured at nu = 1: 4.3e-12 / 2.2e-16,
# 4.0e-8 / 3.7e-11, 6.5e-9 / 3.2e-12 and 1.25e-4 / 1.26e-5 at orders 16 / 24.
PAIR_ERRORS = {
    ("torus", 1.6, 16): 1.5e-11,
    ("torus", 1.6, 24): 1e-15,
    ("torus", 0.0, 16): 1.2e-7,
    ("torus", 0.0, 24): 1.1e-10,
    ("spheroid", 3.0, 16): 2e-8,
    ("spheroid", 3.0, 24): 1e-11,
    # pinned: the near-contact error of the mirror rule
    ("spheroid", 2.6, 16): 1.3e-4,
    ("spheroid", 2.6, 24): 1.3e-5,
}
SHAPES = {"torus": TORUS, "spheroid": SPHEROID}


@pytest.mark.parametrize(
    "name, z0, order", PAIR_ERRORS, ids=[f"{n}-z{z}-n{o}" for n, z, o in PAIR_ERRORS]
)
def test_pair_integral_against_the_shell_theorem(constants, flat, name, z0, order):
    shape = SHAPES[name]
    mesh = build_surface(shape, order=order)
    sphere = build_surface(Sphere((0.0, 0.0, z0), 1.0), order=order)
    ref = _pair_reference(shape, z0, constants, 1.0)
    for a, b in ((sphere, mesh), (mesh, sphere)):
        got = pair_integral(a, b, flat, constants, 1.0)
        assert abs(got - ref) <= PAIR_ERRORS[name, z0, order] * ref


# (shape, z of the point, order): relative error bounds of surface_potential.
# Measured at nu = 1 at orders 16 / 24: torus 2.1e-10 / 2.2e-15 (z = 0) and
# 2.5e-12 / 0 (z = 1); spheroid 6.5e-12 / 6.1e-16 (z = 0), 1.7e-10 /
# 3.4e-15 (z = 2.6) and 7.7e-13 / 2.0e-16 (z = 3).  The order-24 spheroid
# errors are rounding: on numpy leggauss's grids, whose weights differ
# from these by up to 1.5e-13, they read 0 / 6.7e-16 / 1.8e-15.
POINT_ERRORS = {
    ("torus", 0.0, 16): 6e-10,
    ("torus", 0.0, 24): 7e-15,
    ("torus", 1.0, 16): 8e-12,
    ("torus", 1.0, 24): 1e-15,
    ("spheroid", 0.0, 16): 2e-11,
    ("spheroid", 0.0, 24): 1e-15,
    ("spheroid", 2.6, 16): 5e-10,
    ("spheroid", 2.6, 24): 4e-15,
    ("spheroid", 3.0, 16): 2.5e-12,
    ("spheroid", 3.0, 24): 6e-15,
}


@pytest.mark.parametrize(
    "name, z0, order", POINT_ERRORS, ids=[f"{n}-z{z}-n{o}" for n, z, o in POINT_ERRORS]
)
def test_surface_potential_against_the_axis_integral(constants, flat, name, z0, order):
    shape = SHAPES[name]
    mesh = build_surface(shape, order=order)
    ref = _axis_integral(shape, z0, constants, 1.0) / math.sqrt(_area(shape))
    got = surface_potential(mesh, flat, constants, 1.0, flat_point(0.0, 0.0, z0))
    assert abs(got - ref) <= POINT_ERRORS[name, z0, order] * ref
