"""Meshes, curvature metadata, points and distances."""

import dataclasses
import itertools
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
from shellbound.geometry import MAX_ORDER, _gauss_legendre, _node_grid, _ScaledSphereChart


@pytest.mark.parametrize(
    "shape",
    [
        Sphere((0.3, -1.7, 2.9), 1.3),
        Torus((0.3, -1.7, 2.9), 2.0, 0.5),
        Ellipsoid((0.3, -1.7, 2.9), 1.2, 1.0, 0.8),
    ],
    ids=["sphere", "torus", "ellipsoid"],
)
def test_a_mesh_is_its_form_moved_and_scaled(shape):
    # nodes and weights are derived from the form, read-only, and cannot be
    # passed in, so no mesh can differ from its form's grid moved and scaled
    mesh = build_surface(shape, order=8)
    form, s = mesh.form, mesh.scale
    assert np.array_equal(mesh.nodes, np.asarray(shape.center) + s * form.nodes)
    assert np.array_equal(mesh.weights, s * s * form.weights)
    for name in ("nodes", "weights"):
        with pytest.raises(ValueError, match="read-only"):
            getattr(mesh, name)[0] = 0.0
        with pytest.raises(ValueError, match="init=False"):
            dataclasses.replace(mesh, **{name: getattr(mesh, name)[::-1]})
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(mesh, name, getattr(mesh, name)[::-1])
    for a in (form.params, form.nodes, form.weights):
        assert not a.flags.writeable
    # a mesh is its shape, order and curvature_meta; everything else is
    # derived, so replace rebuilds the mesh and no field can disagree
    for name in ("form", "scale", "area", "diameter_ambient", "meta"):
        with pytest.raises(ValueError, match="init=False"):
            dataclasses.replace(mesh, **{name: getattr(mesh, name)})
    for new in (Sphere((1.0, 2.0, -3.0), 2.0), Torus((1.0, 2.0, -3.0), 3.0, 1.0), shape):
        _assert_same_mesh(dataclasses.replace(mesh, shape=new), build_surface(new, mesh.order))
    _assert_same_mesh(dataclasses.replace(mesh, order=12), build_surface(shape, order=12))
    kept = dataclasses.replace(build_surface(shape, 8, mesh.meta), order=12)
    assert kept.curvature_meta is kept.meta is mesh.meta
    with pytest.raises(GeometryViolationError, match="r_minor < R_major"):
        dataclasses.replace(mesh, shape=Torus(shape.center, 1.0, 2.0))


def _assert_same_mesh(mesh, expected):
    assert mesh.shape == expected.shape and mesh.order == expected.order
    assert mesh.form is expected.form
    for name in ("nodes", "weights"):
        assert np.array_equal(getattr(mesh, name), getattr(expected, name))
    for name in ("area", "scale", "diameter_ambient", "meta"):
        assert getattr(mesh, name) == getattr(expected, name)


def test_gauss_legendre_is_a_symmetric_gauss_rule():
    # Golub-Welsch on Legendre's recurrence, without numpy.polynomial's
    # Newton polish: nodes within 5e-16 of leggauss's (3.9e-16 seen) and
    # weights within 2e-12 relative (1.2e-12 at n = 48, where leggauss's
    # own weights err by 1.3e-12 and these by 7.3e-14 against 40-digit
    # ones); x^(2k), k < n, integrated within 2e-15 (1.2e-15 seen, 7.2e-15
    # by leggauss's rule at n = 48)
    for n in (4, 8, 16, 24, 32, 48):
        x, w = _gauss_legendre(n)
        assert np.array_equal(x, -x[::-1]) and np.array_equal(w, w[::-1]), n
        assert not x.flags.writeable and not w.flags.writeable
        nodes, weights = np.polynomial.legendre.leggauss(n)
        assert np.max(np.abs(x - nodes)) <= 5e-16, n
        assert np.max(np.abs(w / weights - 1.0)) <= 2e-12, n
        for k in range(n):
            got = math.fsum((w * x ** (2 * k)).tolist())
            assert abs(got - 2.0 / (2 * k + 1)) <= 2e-15, (n, k)


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


@pytest.mark.parametrize("order", range(4, MAX_ORDER + 1))
def test_mesh_area_is_scale_squared_times_the_forms(order):
    # one rule for every shape, within 1e-15 of per-shape references:
    # 4 pi R^2, 4 pi^2 R r, and an ellipsoid's weights summed at its own
    # size; the form's area is the unit sphere's or the torus's closed form,
    # which the weights sum to, or the ellipsoid's weights' math.fsum
    center, axes = (0.3, -0.2, 0.5), (1.2, 1.0, 0.8)
    references = {
        Sphere(center, 1.7): 4.0 * math.pi * 1.7 * 1.7,
        Torus(center, 2.0, 0.5): 4.0 * math.pi * math.pi * 2.0 * 0.5,
        Ellipsoid(center, *axes): np.sum(_node_grid(_ScaledSphereChart(axes, 2), order)[3]),
    }
    for shape, area in references.items():
        mesh = build_surface(shape, order)
        assert mesh.area == mesh.scale**2 * mesh.form.area
        assert abs(mesh.area - area) <= 1e-15 * area
        quadrature_area = math.fsum(mesh.form.weights)
        assert abs(quadrature_area - mesh.form.area) <= 1e-15 * mesh.form.area
        if isinstance(shape, Ellipsoid):
            assert mesh.form.area == quadrature_area


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
    # every field must be finite: a NaN H passes the order check of H, and
    # an infinite rho_max that of rho
    fine = (1.0, 1.0, 1.0, 1.0, 0.5, 1.0)
    for k, bad in itertools.product(range(6), (math.nan, math.inf, -math.inf)):
        with pytest.raises(InvalidArgumentError):
            SurfaceCurvatureMeta(*fine[:k], bad, *fine[k + 1:])


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
    # q mirrored onto the lower sheet satisfies the constraint, but the
    # model is the upper sheet alone
    lower = Point3((-q.coords[0], *q.coords[1:]))
    with pytest.raises(InvalidArgumentError, match="upper sheet"):
        ambient_distance(hyp, origin, lower)


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
    chart = _ScaledSphereChart((1.2, 1.0, 0.8), pole)
    rng = np.random.default_rng(7)
    u = np.concatenate([[1e-6, 0.3, math.pi / 2, math.pi - 1e-6], rng.uniform(0.0, math.pi, 60)])
    v = np.concatenate([[0.0, -2.0, math.pi / 4, 3.0], rng.uniform(-math.pi, math.pi, 60)])
    xu, xv = chart.tangents(u, v)
    cross = np.linalg.norm(np.cross(xu, xv), axis=-1)
    assert np.max(np.abs(chart.evaluate(u, v)[1] - cross) / cross) <= 1e-13
