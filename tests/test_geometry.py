"""Meshes, curvature metadata, points and distances."""

import math

import numpy as np
import pytest

from shellbound import (
    CouplingSpec,
    Ellipsoid,
    GeometryViolationError,
    HybridSystem,
    InvalidArgumentError,
    PhysicalConstants,
    Point3,
    PointSource,
    Sphere,
    SurfaceCurvatureMeta,
    Torus,
    UnsupportedShapeError,
    ambient_distance,
    build_surface,
    flat_point,
    flat_space,
    hyperbolic_point,
    implicit_value,
)
from shellbound._quadrature import _pair_geometry
from shellbound.geometry import MAX_ORDER


def test_sphere_mesh_area_and_diameter(sphere24):
    assert sphere24.area == pytest.approx(4.0 * math.pi, rel=1e-14)
    assert float(np.sum(sphere24.weights)) == pytest.approx(sphere24.area, rel=1e-12)
    assert sphere24.diameter_ambient == 2.0
    assert np.all(sphere24.weights > 0.0)
    # every node sits on the surface
    vals = [implicit_value(sphere24.shape, x) for x in sphere24.nodes]
    assert max(abs(v) for v in vals) < 1e-12


def test_torus_mesh_area_and_diameter(torus24):
    assert torus24.area == pytest.approx(4.0 * math.pi**2 * 2.0 * 0.5, rel=1e-14)
    assert float(np.sum(torus24.weights)) == pytest.approx(torus24.area, rel=1e-12)
    assert torus24.diameter_ambient == 2.0 * (2.0 + 0.5)
    vals = [implicit_value(torus24.shape, x) for x in torus24.nodes]
    assert max(abs(v) for v in vals) < 1e-12


def test_ellipsoid_area_matches_spheroid_closed_form():
    # prolate spheroid a = b < c has S = 2 pi a^2 (1 + (c / (a e)) asin(e))
    a, c = 1.0, 1.5
    e = math.sqrt(1.0 - a * a / (c * c))
    exact = 2.0 * math.pi * a * a * (1.0 + (c / (a * e)) * math.asin(e))
    mesh = build_surface(Ellipsoid((0.0, 0.0, 0.0), a, a, c), order=24)
    assert mesh.area == pytest.approx(exact, rel=1e-10)
    assert float(np.sum(mesh.weights)) == pytest.approx(mesh.area, rel=1e-12)
    assert mesh.diameter_ambient == 2.0 * c


def test_sphere_default_meta():
    mesh = build_surface(Sphere((0.0, 0.0, 0.0), 2.0), order=8)
    meta = mesh.meta
    assert meta.H_upper == meta.H_lower == 0.25
    assert meta.rho_min == meta.rho_max == pytest.approx(math.pi)
    assert meta.delta_kappa == pytest.approx(0.75)


def test_torus_default_meta(torus16):
    meta = torus16.meta
    assert meta.H_upper == pytest.approx(1.0 / (0.5 * 2.5))
    assert meta.H_lower == pytest.approx(-1.0 / (0.5 * 1.5))
    assert meta.rho_min == pytest.approx(math.pi * 0.25)
    assert meta.rho_max == pytest.approx(math.pi * 3.0)
    assert 0.0 < meta.delta_kappa < 1.0


def test_ellipsoid_default_meta():
    a, b, c = 1.2, 1.0, 0.8
    mesh = build_surface(Ellipsoid((0.0, 0.0, 0.0), a, b, c), order=8)
    prod2 = (a * b * c) ** 2
    curv = [p**4 / prod2 for p in (a, b, c)]
    assert mesh.meta.H_upper == pytest.approx(max(curv))
    assert mesh.meta.H_lower == pytest.approx(min(curv))


def test_meta_validation():
    with pytest.raises(InvalidArgumentError):
        SurfaceCurvatureMeta(0.0, 1.0, 1.0, 1.0, 0.5, 1.0)  # H_lower > H_upper
    with pytest.raises(InvalidArgumentError):
        SurfaceCurvatureMeta(1.0, 1.0, 2.0, 1.0, 0.5, 1.0)  # rho_min > rho_max
    with pytest.raises(InvalidArgumentError):
        SurfaceCurvatureMeta(1.0, 1.0, 1.0, 1.0, 1.5, 1.0)  # delta*kappa >= 1


def test_bonnet_myers_contradiction_rejected():
    # H_lower = 4 caps the diameter at pi/2 < 2R for a unit sphere.
    meta = SurfaceCurvatureMeta(4.0, 4.0, 0.5, 0.5, 0.5, 1.0)
    with pytest.raises(GeometryViolationError):
        build_surface(Sphere((0.0, 0.0, 0.0), 1.0), order=8, meta=meta)


def test_build_surface_validation():
    with pytest.raises(InvalidArgumentError):
        build_surface(Sphere((0.0, 0.0, 0.0), 1.0), order=3)
    with pytest.raises(InvalidArgumentError):
        build_surface(Sphere((0.0, 0.0, 0.0), -1.0), order=8)
    with pytest.raises(GeometryViolationError):
        build_surface(Torus((0.0, 0.0, 0.0), 1.0, 1.0), order=8)
    with pytest.raises(InvalidArgumentError):
        build_surface(Ellipsoid((0.0, 0.0, 0.0), 1.0, 0.0, 1.0), order=8)
    with pytest.raises(UnsupportedShapeError):
        build_surface(object(), order=8)
    # the order cap is checked before any node grid is built
    assert build_surface(Sphere((0.0, 0.0, 0.0), 1.0), order=MAX_ORDER).order == MAX_ORDER
    for shape in (
        Sphere((0.0, 0.0, 0.0), 1.0),
        Torus((0.0, 0.0, 0.0), 2.0, 0.5),
        Ellipsoid((0.0, 0.0, 0.0), 1.2, 1.0, 0.8),
    ):
        with pytest.raises(InvalidArgumentError, match="integer in"):
            build_surface(shape, order=MAX_ORDER + 1)


def test_ellipsoid_curvature_of_tiny_axes():
    # (abc)^2 underflows at 1e-76 per axis; (p / (q s))^2 does not
    for axes in ((1e-76, 1e-76, 1e-76), (1e-76, 2e-76, 3e-76)):
        meta = build_surface(Ellipsoid((0.0, 0.0, 0.0), *axes), order=8).meta
        a, b, c = axes
        assert meta.H_upper == pytest.approx(max(a / (b * c), b / (a * c), c / (a * b)) ** 2, rel=1e-15)
        assert meta.H_lower == pytest.approx(min(a / (b * c), b / (a * c), c / (a * b)) ** 2, rel=1e-15)
        assert all(math.isfinite(x) for x in (meta.rho_min, meta.rho_max))


@pytest.mark.parametrize(
    "shape",
    [
        Sphere((0.0, 0.0, 0.0), 1e-80),
        Sphere((0.0, 0.0, 0.0), 1e80),
        Sphere((0.0, math.nan, 0.0), 1.0),
        Torus((0.0, 0.0, 0.0), 1.0, 1e-80),
        Torus((math.inf, 0.0, 0.0), 2.0, 0.5),
        Ellipsoid((0.0, 0.0, 0.0), 1.0, 1.0, 1e-80),
        Ellipsoid((0.0, 0.0, 0.0), math.nan, 1.0, 1.0),
        # every size is fine, but the form divides them by the scale
        Torus((0.0, 0.0, 0.0), 1e70, 1e-70),
        Ellipsoid((0.0, 0.0, 0.0), 1e-70, 1e70, 1.0),
    ],
)
def test_builders_reject_unscalable_sizes_and_non_finite_centres(shape):
    # weights scale with a size to the fourth power, which must stay normal
    with pytest.raises(InvalidArgumentError):
        build_surface(shape, order=8)


def test_hbar_square_must_be_normal():
    for hbar in (1e-160, 1e160):
        with pytest.raises(InvalidArgumentError):
            PhysicalConstants(hbar=hbar)
    PhysicalConstants(hbar=1e-150)


def test_point3_validation():
    with pytest.raises(InvalidArgumentError):
        Point3((1.0, 2.0))
    with pytest.raises(InvalidArgumentError):
        Point3((1.0, 2.0, math.nan))
    assert flat_point(1, 2, 3).is_flat
    assert flat_point(1, 2, 3).as_array().tolist() == [1.0, 2.0, 3.0]


def test_hyperbolic_point_on_hyperboloid(hyp):
    p = hyperbolic_point(hyp, 0.3, -0.7, 1.1)
    c = p.coords
    resid = -c[0] ** 2 + c[1] ** 2 + c[2] ** 2 + c[3] ** 2 + 1.0 / hyp.curvature_K
    assert abs(resid) < 1e-12
    assert not p.is_flat
    with pytest.raises(InvalidArgumentError):
        hyperbolic_point(flat_space(), 0.0, 0.0, 0.0)


def test_flat_distance():
    space = flat_space()
    d = ambient_distance(space, flat_point(1, 0, 0), flat_point(1, 3, 4))
    assert d == pytest.approx(5.0)
    with pytest.raises(InvalidArgumentError):
        ambient_distance(space, flat_point(0, 0, 0), Point3((1.0, 0.0, 0.0, 0.0)))


def test_hyperbolic_distance(hyp):
    K = hyp.curvature_K
    origin = hyperbolic_point(hyp, 0.0, 0.0, 0.0)
    q = hyperbolic_point(hyp, 2.0, 0.0, 0.0)
    # radial lift: cosh(sqrt(K) d) = sqrt(1 + K x^2), i.e. d = asinh(sqrt(K) x)/sqrt(K)
    expected = math.asinh(math.sqrt(K) * 2.0) / math.sqrt(K)
    assert ambient_distance(hyp, origin, q) == pytest.approx(expected, rel=1e-13)
    assert ambient_distance(hyp, q, q) == 0.0
    with pytest.raises(InvalidArgumentError):
        ambient_distance(hyp, origin, flat_point(1, 0, 0))
    with pytest.raises(InvalidArgumentError):
        ambient_distance(hyp, origin, Point3((1.0, 5.0, 0.0, 0.0)))


def test_implicit_value_signs():
    s = Sphere((1.0, 0.0, 0.0), 2.0)
    assert implicit_value(s, np.array([1.0, 0.0, 0.0])) < 0.0
    assert implicit_value(s, np.array([3.0, 0.0, 0.0])) == pytest.approx(0.0, abs=1e-15)
    assert implicit_value(s, np.array([5.0, 0.0, 0.0])) > 0.0
    t = Torus((0.0, 0.0, 0.0), 2.0, 0.5)
    assert implicit_value(t, np.array([2.0, 0.0, 0.0])) < 0.0
    assert implicit_value(t, np.array([2.5, 0.0, 0.0])) == pytest.approx(0.0, abs=1e-15)
    assert implicit_value(t, np.array([0.0, 0.0, 0.0])) > 0.0
    e = Ellipsoid((0.0, 0.0, 0.0), 1.0, 2.0, 3.0)
    assert implicit_value(e, np.array([0.0, 0.0, 2.9])) < 0.0
    assert implicit_value(e, np.array([1.1, 0.0, 0.0])) > 0.0
    with pytest.raises(UnsupportedShapeError):
        implicit_value(object(), np.zeros(3))


@pytest.mark.parametrize("R", [1e-3, 1.0, 1e6])
def test_round_ellipsoid_gets_the_sphere_verdicts(constants, flat, R):
    # implicit_value is a length for every shape, and the on-surface
    # tolerances are shares of a diameter, so Sphere(R) and
    # Ellipsoid(R, R, R) accept and reject the same neighbours
    origin = (0.0, 0.0, 0.0)
    meshes = [build_surface(s, order=8) for s in (Sphere(origin, R), Ellipsoid(origin, R, R, R))]

    def verdicts(build):
        out = []
        for mesh in meshes:
            try:
                build(mesh)
                out.append("accepted")
            except GeometryViolationError:
                out.append("rejected")
        return out

    # a point source within 0.5e-9 of the diameter lies on the surface
    for share in (-2e-9, -0.5e-9, 0.5e-9, 2e-9, 5e-4):
        point = PointSource(flat_point(R * (1.0 + share), 0.0, 0.0), 0.5)
        found = verdicts(
            lambda mesh: HybridSystem(
                (mesh,), CouplingSpec.from_lambdas(1.5), (point,), flat, constants
            )
        )
        assert found[0] == found[1], (share, found)
    # a small sphere outside whose innermost node lies depth * R inside
    # the wall: overlapping surfaces are rejected beyond the same tolerance
    rho = 1e-6 * R
    reach = build_surface(Sphere(origin, 1.0), order=8).nodes[:, 0].max()
    for depth, expected in ((1e-10, "accepted"), (1e-6, "rejected")):
        small = build_surface(Sphere((R * (1.0 - depth) + rho * reach, 0.0, 0.0), rho), order=8)
        assert verdicts(lambda mesh: _pair_geometry(mesh, small)) == [expected] * 2, depth


@pytest.mark.parametrize(
    "shape",
    [
        Sphere((0.5, 0.0, 0.0), 1.0),
        Torus((0.0, 0.0, 0.3), 2.0, 0.5),
        Ellipsoid((0.0, -0.2, 0.0), 1.2, 1.0, 0.8),
    ],
)
def test_implicit_value_of_point_array_matches_single_points(shape):
    mesh = build_surface(shape, order=16)
    points = np.concatenate([mesh.nodes, 1.3 * mesh.nodes, 0.7 * mesh.nodes])
    values = implicit_value(shape, points)
    assert values.shape == (points.shape[0],)
    single = [implicit_value(shape, x) for x in points]
    assert all(type(v) is float for v in single)
    assert np.max(np.abs(values - np.array(single))) <= 1e-15


@pytest.mark.parametrize("pole", [0, 1, 2])
def test_chart_jacobian_is_the_tangent_cross_product(pole):
    chart = build_surface(Ellipsoid((0.3, -0.2, 0.1), 1.2, 1.0, 0.8), order=8).chart
    chart = type(chart)(chart.center, chart.axes, pole)
    rng = np.random.default_rng(7)
    u = np.concatenate([[1e-6, 0.3, math.pi / 2, math.pi - 1e-6], rng.uniform(0.0, math.pi, 60)])
    v = np.concatenate([[0.0, -2.0, math.pi / 4, 3.0], rng.uniform(-math.pi, math.pi, 60)])
    xu, xv = chart.tangents(u, v)
    cross = np.linalg.norm(np.cross(xu, xv), axis=-1)
    assert np.max(np.abs(chart.evaluate(u, v)[1] - cross) / cross) <= 1e-13
