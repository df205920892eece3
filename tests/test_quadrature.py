"""Singular-patch quadrature engine: convergence, the orbit rule, geometry
checks, deterministic reductions, and how long cached geometry lives."""

import dataclasses
import gc
import itertools
import math
import os
import pathlib
import subprocess
import sys
import tracemalloc
import types
import warnings
import weakref

import numpy as np
import pytest

from shellbound import (
    CouplingSpec,
    Ellipsoid,
    GeometryViolationError,
    HybridSystem,
    InvalidArgumentError,
    PhysicalConstants,
    PointSource,
    Sphere,
    Torus,
    build_surface,
    flat_point,
    flat_space,
    solve_hybrid_ground_state,
)
from shellbound import _quadrature as quad
from shellbound.geometry import MAX_ORDER, Point3, _ScaledSphereChart, _TorusChart
from shellbound.kernels import static_kernel_array
from shellbound.oracles import (
    SphereOracleInput,
    sphere_pair_integral_exact,
    two_sphere_pair_integral_exact,
)
from shellbound.principal import pair_integral, solve_ground_state

PATCH_SAMPLES = 4 * quad._N_PSI * quad._N_S
GENERAL = Ellipsoid((0.0, 0.0, 0.0), 1.2, 1.0, 0.8)


def _scaled(mesh, rows, row_weights):
    """Patch geometry (d, row_w, col_w) of the given rows of the mesh's
    form, with the mesh's scale s, which diag_weighted_sum applies by the
    scale law."""
    return quad._patch_rows(mesh.form, rows, row_weights), mesh.scale


def _full_rule(mesh):
    """One singular-patch row per node, each with its own outer weight."""
    return _scaled(mesh, np.arange(len(mesh.nodes)), mesh.form.weights)


def _orbit_rule(mesh):
    """The orbit rows of _diag_geometry, built afresh."""
    return _scaled(mesh, *quad._orbit_rows(mesh.form, mesh.form.weights))


def _self_integral(scaled, constants, flat, nu):
    """The double integral of G_nu over a form's geometry at scale s, given
    as (geometry, s): s^3 times the form's sum at s nu, since G_nu(s d) =
    G_{s nu}(d) / s and the weights scale by s^4."""
    geometry, s = scaled
    return s**3 * quad.weighted_kernel_sum(geometry, flat, constants, s * nu, 0)[0]


def _diag_sum(mesh, constants, flat, nu):
    """The mesh's self-integral as the package sums it, from the cached
    _diag_geometry: P_ii times the area."""
    return quad.diag_weighted_sum(mesh, flat, constants, nu, 0)[0] * mesh.area


def _flat(geometry):
    """A geometry (d, row_w, col_w) as flat (d, w) arrays, w the products
    row_w[r] col_w[r, j] its sums stand for."""
    d, row_w, col_w = geometry
    return d.reshape(-1), (row_w[:, None] * col_w).reshape(-1)


def test_diag_quadrature_convergence(constants, flat):
    # the ring rule's sphere error is set by the patch rule, flat in order
    exact = sphere_pair_integral_exact(SphereOracleInput(R=1.0, nu=1.0))
    errs = []
    for order in (8, 16, 32):
        mesh = build_surface(Sphere((0.0, 0.0, 0.0), 1.0), order=order)
        got = pair_integral(mesh, mesh, flat, constants, 1.0)
        errs.append(abs(got - exact) / exact)
    assert errs[0] < 1e-3
    assert errs[1] < 1e-5
    assert errs[2] < 1e-7
    assert max(errs) < 1e-10


def test_full_rule_convergence(constants, flat):
    # the per-node reference rule converges in the mesh order
    exact = sphere_pair_integral_exact(SphereOracleInput(R=1.0, nu=1.0))
    errs = []
    for order in (8, 16, 32):
        mesh = build_surface(Sphere((0.0, 0.0, 0.0), 1.0), order=order)
        got = _self_integral(_full_rule(mesh), constants, flat, 1.0) / mesh.area
        errs.append(abs(got - exact) / exact)
    assert errs[0] < 1e-3
    assert errs[1] < 1e-5
    assert errs[2] < 1e-7
    assert errs[2] < errs[0]


@pytest.mark.parametrize("nu", [0.1, 1.0, 3.0])
def test_ring_rule_matches_full_rule_on_torus(constants, flat, torus16, nu):
    # every node of a torus ring has the rotated copy of one patch
    ring = _diag_sum(torus16, constants, flat, nu)
    full = _self_integral(_full_rule(torus16), constants, flat, nu)
    assert ring == pytest.approx(full, rel=1e-14)


def test_ring_rule_matches_full_rule_on_spheroid(constants, flat):
    # The full rule re-seats the patch pole per node, so on a spheroid its
    # nodes of one ring are not rotated copies and the two rules differ by
    # the patch rule's own error (about 1e-9 against doubled patch orders).
    spheroid = build_surface(Ellipsoid((0.0, 0.0, 0.0), 1.0, 1.0, 1.5), order=24)
    full_geometry = _full_rule(spheroid)
    for nu in (0.1, 1.0, 3.0):
        ring = _diag_sum(spheroid, constants, flat, nu)
        full = _self_integral(full_geometry, constants, flat, nu)
        assert ring == pytest.approx(full, rel=1e-9)


def test_ring_rule_is_exact_reduction_on_spheroid(monkeypatch, constants, flat):
    # with the patch rule resolved, ring and full rule agree to round-off
    spheroid = build_surface(Ellipsoid((0.0, 0.0, 0.0), 1.0, 1.0, 1.5), order=12)
    monkeypatch.setattr(quad, "_N_PSI", 32)
    monkeypatch.setattr(quad, "_N_S", 48)
    ring_geometry = _orbit_rule(spheroid)
    full_geometry = _full_rule(spheroid)
    for nu in (0.1, 1.0, 3.0):
        ring = _self_integral(ring_geometry, constants, flat, nu)
        full = _self_integral(full_geometry, constants, flat, nu)
        assert ring == pytest.approx(full, rel=1e-14)


def test_orbit_rule_is_exact_reduction_on_general_ellipsoid(monkeypatch, constants, flat):
    # with the patch rule resolved, the reflection orbits and the full rule
    # agree to round-off (measured 0.0 at nu = 0.1 / 1 / 3)
    mesh = build_surface(GENERAL, order=12)
    monkeypatch.setattr(quad, "_N_PSI", 2 * quad._N_PSI)
    monkeypatch.setattr(quad, "_N_S", 2 * quad._N_S)
    orbit_geometry = _orbit_rule(mesh)
    full_geometry = _full_rule(mesh)
    for nu in (0.1, 1.0, 3.0):
        orbit = _self_integral(orbit_geometry, constants, flat, nu)
        full = _self_integral(full_geometry, constants, flat, nu)
        assert orbit == pytest.approx(full, rel=1e-14)


def test_orbit_rule_matches_full_rule_on_general_ellipsoid(constants, flat):
    # at the shipped patch orders the two rules differ by the patch rule's
    # own error (measured 1.0e-11 / 1.5e-11 / 8.9e-12 at nu = 0.1 / 1 / 3)
    mesh = build_surface(GENERAL, order=24)
    full_geometry = _full_rule(mesh)
    for nu in (0.1, 1.0, 3.0):
        orbit = _diag_sum(mesh, constants, flat, nu)
        full = _self_integral(full_geometry, constants, flat, nu)
        assert orbit == pytest.approx(full, rel=1e-10)


def test_orbit_rows_of_general_ellipsoid():
    # 12 u-orbits (u, pi - u) times 13 v-orbits (v, -v, pi - v, pi + v),
    # wherever the ellipsoid sits; the orbit weights carry the whole area
    for center in ((0.0, 0.0, 0.0), (0.3, -1.7, 2.2)):
        mesh = build_surface(dataclasses.replace(GENERAL, center=center), order=24)
        rows, row_weights = quad._orbit_rows(mesh.form, mesh.weights)
        assert rows.size == row_weights.size == 156
        assert np.unique(rows).size == 156
        assert float(np.sum(row_weights)) == pytest.approx(mesh.area, rel=1e-14)


def test_orbit_rows_of_revolution_meshes_are_the_rings(sphere16, torus16):
    # the v = 0 node of each u-ring with the ring's correctly rounded sum
    spheroid = build_surface(Ellipsoid((0.0, 0.0, 0.0), 1.0, 1.0, 1.5), order=24)
    for mesh in (sphere16, torus16, spheroid):
        ring = 2 * mesh.order
        rows, row_weights = quad._orbit_rows(mesh.form, mesh.weights)
        assert np.array_equal(rows, np.arange(0, len(mesh.nodes), ring))
        assert row_weights.tolist() == list(map(math.fsum, mesh.weights.reshape(-1, ring)))
        assert float(np.sum(row_weights)) == pytest.approx(mesh.area, rel=1e-14)


# The orbit rules rest on every builder form being symmetric: rotations
# about the chart axis for a surface of revolution, and the reflections in
# the coordinate planes through the centre for every surface.
FORM_SHAPES = {
    "sphere": Sphere((0.3, -1.7, 2.9), 1.3),
    "torus": Torus((0.3, -1.7, 2.9), 2.0, 0.5),
    "spheroid": Ellipsoid((0.3, -1.7, 2.9), 1.0, 1.0, 1.5),
    "general_ellipsoid": Ellipsoid((0.3, -1.7, 2.9), 1.2, 1.0, 0.8),
}
MIRROR_SETS = [m for r in range(4) for m in itertools.combinations(range(3), r)]


def _node_map(rel, transform, tol):
    """A symmetry as a map of node indices: node k goes to the node nearest
    transform(rel[k]), which lies within tol of it."""
    d = quad._pair_distances(transform(rel), rel)
    image = np.argmin(d, axis=1)
    assert np.all(d[np.arange(len(rel)), image] <= tol)
    return image


def _group(generators):
    """Every element of the group the index maps generate, as the rows of
    a matrix, identity included."""
    group = {tuple(range(len(generators[0])))}
    new = list(group)
    while new:
        g = np.array(new.pop())
        for h in generators:
            e = tuple(h[g])
            if e not in group:
                group.add(e)
                new.append(e)
    return np.array(sorted(group))


def _mirror(axis):
    return lambda x: x * np.where(np.arange(3) == axis, -1.0, 1.0)


def _turn(angle):
    c, s = math.cos(angle), math.sin(angle)
    return lambda x: np.stack([c * x[:, 0] - s * x[:, 1], s * x[:, 0] + c * x[:, 1], x[:, 2]], 1)


@pytest.mark.parametrize("order", [4, 5, 8, 24])
@pytest.mark.parametrize("name", FORM_SHAPES)
def test_orbit_members_are_mirror_images(name, order):
    # Brute force: the symmetries act on the node positions about the
    # centre, each generator matched to a node map within 0.5e-12 of the
    # diameter, and their group is applied to every node.  Each orbit rule
    # row is the least node of its orbit, every orbit has one row, members
    # have weights equal within 1e-12 relative, and a row's weight is the
    # math.fsum of its orbit's.  At order 5 the middle u-ring is its own
    # mirror image in z.
    mesh = build_surface(FORM_SHAPES[name], order=order)
    rel = mesh.nodes - mesh.shape.center
    tol = 0.5e-12 * mesh.diameter_ambient
    w = mesh.weights
    turns = [_turn(2.0 * math.pi / (2 * order))] if mesh.form.chart.revolution else []
    for mirrors in [None, *MIRROR_SETS]:
        if mirrors is None:  # the self-integral's group
            transforms = turns or [_mirror(a) for a in range(3)]
        else:
            transforms = [_mirror(a) for a in mirrors]
        group = _group([_node_map(rel, t, tol) for t in transforms] or [np.arange(len(w))])
        assert np.all(np.abs(w[group] - w) <= 1e-12 * w), mirrors
        least = group.min(axis=0)  # each node's least orbit member
        rows, row_weights = quad._orbit_rows(mesh.form, w, mirrors)
        # the rows are the least members, so each orbit has exactly one
        assert np.array_equal(rows, np.unique(least)), mirrors
        assert np.array_equal(least[rows], rows), mirrors
        for row, weight in zip(rows, row_weights):
            assert weight == math.fsum(w[np.unique(group[:, row])]), mirrors


def test_diag_geometry_rows(sphere16, torus16):
    spheroid = build_surface(Ellipsoid((0.0, 0.0, 0.0), 1.0, 1.0, 1.5), order=8)
    general = build_surface(Ellipsoid((0.0, 0.0, 0.0), 1.0, 1.3, 1.5), order=8)
    for mesh in (sphere16, torus16, spheroid):
        d, row_w, col_w = quad._diag_geometry(mesh)
        assert d.shape == col_w.shape == (mesh.order, PATCH_SAMPLES)
        assert row_w.shape == (mesh.order,)
    # 4 u-orbits times 5 v-orbits of the three reflections
    d, row_w, col_w = quad._diag_geometry(general)
    assert d.shape == col_w.shape == (20, PATCH_SAMPLES) and row_w.shape == (20,)


def test_equal_axis_ellipsoid_is_the_sphere_bitwise(constants, flat):
    # a sphere is the equal-axes ellipsoid: both get one interned form, so
    # the same mesh, patch geometry, kernel sums and ground state
    center = (0.3, -0.2, 0.5)
    for R, order in itertools.product((1.0, 1.3), (16, 24, 32)):
        sphere = build_surface(Sphere(center, R), order=order)
        ellipsoid = build_surface(Ellipsoid(center, R, R, R), order=order)
        assert sphere.form is ellipsoid.form
        for name in ("nodes", "weights", "area"):
            assert np.array_equal(getattr(sphere, name), getattr(ellipsoid, name))
        for a, b in zip(quad._diag_geometry(sphere), quad._diag_geometry(ellipsoid)):
            assert np.array_equal(a, b)
        for nu in (1e-3, 1.0, 5.0):
            assert pair_integral(sphere, sphere, flat, constants, nu) == pair_integral(
                ellipsoid, ellipsoid, flat, constants, nu
            )
        lam = CouplingSpec.from_lambdas(3.0)
        assert (
            solve_ground_state((sphere,), lam, flat, constants).nu_star
            == solve_ground_state((ellipsoid,), lam, flat, constants).nu_star
        )


def _one_batch_per_group(form, rows, row_weights):
    """_patch_rows with each chart group built in a single batch."""
    d = np.empty((rows.size, PATCH_SAMPLES))
    jw = np.empty((rows.size, PATCH_SAMPLES))
    for pos, chart in quad._patch_chart_groups(form, rows):
        d[pos], jw[pos] = quad._build_patch_group(form, rows[pos], chart)
    return d, row_weights, jw


def _with_nodes(form, nodes, chart=None):
    """A stand-in for form with other nodes, and optionally another chart."""
    return types.SimpleNamespace(chart=chart or form.chart, nodes=nodes, params=form.params)


def test_chunked_patch_rows_match_one_batch(constants, flat):
    # rows are independent, so building them _PATCH_CHUNK at a time changes
    # no bit; on this form a chart group spans several chunks both for the
    # per-node rows (288) and for the orbit rows (42) of _diag_geometry
    mesh = build_surface(GENERAL, order=12)
    form = mesh.form
    for rows, row_weights in (
        (np.arange(len(mesh.nodes)), form.weights),
        quad._orbit_rows(form, form.weights),
    ):
        groups = quad._patch_chart_groups(form, rows)
        assert max(pos.size for pos, _ in groups) > quad._PATCH_CHUNK
        want = _one_batch_per_group(form, rows, row_weights)
        for got, ref in zip(quad._patch_rows(form, rows, row_weights), want):
            assert np.array_equal(got, ref)
    # _diag_geometry is the form's orbit rule at scale s = 1.2, bitwise, and
    # a direct build on the mesh's nodes, with the chart at the mesh's own
    # size, gives its self-integral to rounding, as the scale law sums it
    assert mesh.scale == 1.2
    got = quad._diag_geometry(mesh)
    assert all(np.array_equal(x, y) for x, y in zip(got, want, strict=True))
    sized = _ScaledSphereChart((GENERAL.a, GENERAL.b, GENERAL.c), 2)
    direct = _one_batch_per_group(
        _with_nodes(form, mesh.nodes, sized), *quad._orbit_rows(form, mesh.weights)
    ), 1.0
    for nu in (0.1, 1.0, 3.0):
        want = _self_integral(direct, constants, flat, nu)
        assert _diag_sum(mesh, constants, flat, nu) == pytest.approx(want, rel=1e-14)


def _pole_groups(form, rows):
    return [(pos.tolist(), chart.k) for pos, chart in quad._patch_chart_groups(form, rows)]


@pytest.mark.parametrize("axis", [0, 1, 2])
def test_patch_poles_survive_a_last_bit_change(constants, flat, axis):
    # the v = pi/4 orbit rows of this form have |x / a| and |y / b| equal up
    # to the last bit, so a one-ulp move of a node coordinate must not
    # switch their patch chart: that would move the self-integral by the
    # patch rule's error (about 2e-11), not by round-off
    form = build_surface(GENERAL, order=24).form
    rows, row_weights = quad._orbit_rows(form, form.weights)
    groups = _pole_groups(form, rows)
    assert [k for _, k in groups] == [0, 1, 2]
    want = _self_integral((quad._patch_rows(form, rows, row_weights), 1.0), constants, flat, 1.0)
    for direction in (-np.inf, np.inf):
        nodes = form.nodes.copy()
        nodes[:, axis] = np.nextafter(nodes[:, axis], direction)
        bumped = _with_nodes(form, nodes)
        assert _pole_groups(bumped, rows) == groups
        got = _self_integral((quad._patch_rows(bumped, rows, row_weights), 1.0), constants, flat, 1.0)
        assert got == pytest.approx(want, rel=1e-14)


def _reference_evaluate(chart, u, v):
    """Chart points and area element from separate sin / cos passes, in the
    expression order the meshes and CSVs were built with."""
    if isinstance(chart, _ScaledSphereChart):
        x = np.empty(u.shape + (3,))
        x[..., chart.k] = chart.axes[chart.k] * np.cos(u)
        x[..., chart.i] = chart.axes[chart.i] * np.sin(u) * np.cos(v)
        x[..., chart.j] = chart.axes[chart.j] * np.sin(u) * np.sin(v)
        a, b, c = (float(chart.axes[n]) for n in (chart.i, chart.j, chart.k))
        su, cu, cv, sv = np.sin(u), np.cos(u), np.cos(v), np.sin(v)
        J = su * np.sqrt(
            c * c * su * su * (b * b * cv * cv + a * a * sv * sv) + a * a * b * b * cu * cu
        )
        return x, J
    ring = chart.Rmaj + chart.rmin * np.cos(u)
    x = np.stack([ring * np.cos(v), ring * np.sin(v), chart.rmin * np.sin(u)], axis=-1)
    return x, chart.rmin * (chart.Rmaj + chart.rmin * np.cos(u))


def _charts():
    yield "sphere", _ScaledSphereChart((1.3, 1.3, 1.3), 2)
    for pole in (0, 1, 2):
        yield f"ellipsoid_pole{pole}", _ScaledSphereChart((1.2, 1.0, 0.8), pole)
    yield "torus", _TorusChart(2.0, 0.5)


@pytest.mark.parametrize("name", [name for name, _ in _charts()])
def test_chart_evaluate_is_bitwise_embed_and_jacobian(name):
    # one sin / cos pass gives the same bits as separate ones, on a patch
    # batch's (B, 4, n_psi, n_s) shape
    chart = dict(_charts())[name]
    rng = np.random.default_rng(11)
    shape = (3, 4, quad._N_PSI, quad._N_S)
    u = rng.uniform(chart.u_lo, chart.u_hi, shape)
    v = rng.uniform(-math.pi, math.pi, shape)
    x, J = chart.evaluate(u, v)
    ref_x, ref_J = _reference_evaluate(chart, u, v)
    assert x.shape == shape + (3,) and J.shape == shape
    assert np.array_equal(x, ref_x) and np.array_equal(J, ref_J)


def test_general_ellipsoid_self_integral_against_doubled_patch_orders(
    monkeypatch, constants, flat
):
    # the orbit rule of a general ellipsoid is limited by the patch rule;
    # measured 8.4e-10 / 8.7e-10 / 2.8e-10 at nu = 0.1 / 1 / 3
    mesh = build_surface(Ellipsoid((0.0, 0.0, 0.0), 1.2, 1.0, 0.8), order=12)
    nus = (0.1, 1.0, 3.0)
    shipped = [pair_integral(mesh, mesh, flat, constants, nu) for nu in nus]
    monkeypatch.setattr(quad, "_N_PSI", 2 * quad._N_PSI)
    monkeypatch.setattr(quad, "_N_S", 2 * quad._N_S)
    quad.clear_caches()
    try:
        doubled = [pair_integral(mesh, mesh, flat, constants, nu) for nu in nus]
    finally:
        quad.clear_caches()
    for got, ref in zip(shipped, doubled):
        assert got == pytest.approx(ref, rel=2e-9)


def test_patch_weight_residual(sphere16, torus16):
    # per-node polar patches re-integrate the whole surface area; the torus
    # chart's curved metric leaves a larger but still harmless defect
    assert quad.patch_weight_residual(sphere16) < 1e-9
    assert quad.patch_weight_residual(torus16) < 1e-5
    general = build_surface(GENERAL, order=12)
    assert quad.patch_weight_residual(general) < 1e-8


def test_check_disjoint(sphere16):
    # a pair's geometry is built only for disjoint surfaces, in either order
    near = build_surface(Sphere((1.5, 0.0, 0.0), 1.0), order=8)
    for pair in ((sphere16, near), (near, sphere16)):
        with pytest.raises(GeometryViolationError):
            quad._pair_geometry(*pair)
    touching = build_surface(Sphere((2.0, 0.0, 0.0), 1.0), order=8)
    apart = build_surface(Sphere((4.0, 0.0, 0.0), 1.0), order=8)
    for other in (touching, apart):
        quad._pair_geometry(sphere16, other)
        quad._pair_geometry(other, sphere16)
    # coincident surfaces: no node lies inside the other, but nodes coincide
    coincident = build_surface(Sphere((0.0, 0.0, 0.0), 1.0), order=16)
    for pair in ((sphere16, coincident), (coincident, sphere16)):
        with pytest.raises(GeometryViolationError, match="share a node"):
            quad._pair_geometry(*pair)


def test_check_disjoint_catches_nested_surfaces(sphere16):
    # only the inner surface's nodes lie inside the other one
    inner = build_surface(Sphere((0.1, 0.0, 0.0), 0.5), order=8)
    for a, b in ((sphere16, inner), (inner, sphere16)):
        with pytest.raises(GeometryViolationError):
            quad._pair_geometry(a, b)


def test_rejected_pair_caches_nothing(sphere16):
    # an overlapping pair, and a ring pair and a mirror-rule pair that share
    # a node, raise on every call and leave no cache entry
    near = build_surface(Sphere((1.5, 0.0, 0.0), 1.0), order=8)
    coincident = build_surface(Sphere((0.0, 0.0, 0.0), 1.0), order=16)
    general = build_surface(GENERAL, order=8)
    twin = build_surface(GENERAL, order=8)
    before = quad._pair_geometry.cache_info().currsize
    for pair, match in (
        ((sphere16, near), "overlap"),
        ((sphere16, coincident), "share a node"),
        ((general, twin), "share a node"),
    ):
        for _ in range(2):
            with pytest.raises(GeometryViolationError, match=match):
                quad._pair_geometry(*pair)
            assert quad._pair_geometry.cache_info().currsize == before


def test_offdiag_respects_disjointness(constants, flat, sphere16):
    near = build_surface(Sphere((1.0, 0.0, 0.0), 1.0), order=8)
    with pytest.raises(GeometryViolationError):
        pair_integral(sphere16, near, flat, constants, 1.0)


def test_weighted_kernel_sum_matches_dot(constants, flat):
    # the moments sum row_w col_w d^k G over several blocks of whole rows,
    # as one dot over the weight products would
    rng = np.random.default_rng(3)
    d = rng.random((100, 1000)) + 0.1
    row_w, col_w = rng.random(100), rng.random((100, 1000))
    w = (row_w[:, None] * col_w).reshape(-1)
    g = static_kernel_array(flat, constants, 0.7, d).reshape(-1)
    got = quad.weighted_kernel_sum((d, row_w, col_w), flat, constants, 0.7, 2)
    for k, moment in enumerate(got):
        assert moment == pytest.approx(float(np.dot(w, d.reshape(-1) ** k * g)), rel=1e-12)
    assert quad.weighted_kernel_sum((d, row_w, col_w), flat, constants, 0.7, 0) == got[:1]


# OpenBLAS splits a dot over its threads from this many samples on, so a
# sum's bits would depend on the thread count past it.
OPENBLAS_DOT_THREADING = 10_000


def test_no_dot_reaches_the_blas_threading_threshold():
    # _blocked_dots dots each row against its column weights and the row
    # sums against the row weights.  The longest row is a pair's or a
    # point's inner mesh, 2 MAX_ORDER^2 nodes, or a patch row; a geometry
    # has at most one row per node of its outer mesh.  Raising MAX_ORDER or
    # the patch orders past the threshold fails here rather than letting
    # the bits follow the thread count.
    assert 2 * MAX_ORDER**2 < OPENBLAS_DOT_THREADING
    assert PATCH_SAMPLES < OPENBLAS_DOT_THREADING


_THREADS_CHILD = """
import pathlib, sys
import shellbound as sb
from shellbound import _quadrature as quad
from shellbound.cli import main

space, constants = sb.flat_space(), sb.PhysicalConstants()
a = sb.build_surface(sb.Sphere((0.0, 0.0, 0.0), 1.0), order=24)
b = sb.build_surface(sb.Sphere((4.0, 0.0, 0.0), 1.0), order=24)
geometry = quad._geometry(a, b)
for nu in (0.3, 1.0, 3.0):
    sums = (quad.diag_weighted_sum(a, space, constants, nu, 1)
            + quad.weighted_kernel_sum(geometry, space, constants, nu, 1))
    print(*(x.hex() for x in sums))
configs, out = pathlib.Path(sys.argv[1]), pathlib.Path(sys.argv[2])
for command, name in (("bounds", "two_spheres"), ("variational", "three_spheres_lambda")):
    csv = out / f"{name}.csv"
    assert main([command, "--config", str(configs / f"{name}.json"), "--out", str(csv)]) == 0
    print(csv.read_text())
"""


def test_sums_do_not_depend_on_the_blas_thread_count(tmp_path, config_dir):
    # An order-24 self-integral (36 864 samples) and ring pair (27 648) and
    # two CLI jobs, once on one BLAS thread and once on the default of one
    # per core: a dot longer than OpenBLAS's threading threshold (10 000)
    # adds per-thread partials, and its last bits move with their count.
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    base = {k: v for k, v in os.environ.items()
            if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "GOTO_NUM_THREADS")}
    base["PYTHONPATH"] = str(src)
    outputs = []
    for threads in ({"OPENBLAS_NUM_THREADS": "1"}, {}):
        run = subprocess.run(
            [sys.executable, "-c", _THREADS_CHILD, str(config_dir), str(tmp_path)],
            env={**base, **threads}, capture_output=True, text=True, check=True, timeout=300,
        )
        outputs.append(run.stdout)
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("D", [2.5, 4.0])
def test_offdiag_against_two_sphere_closed_form(constants, flat, sphere24, D):
    other = build_surface(Sphere((D, 0.0, 0.0), 1.0), order=24)
    for nu in (0.5, 1.0, 2.0):
        got = pair_integral(sphere24, other, flat, constants, nu)
        exact = two_sphere_pair_integral_exact(1.0, 1.0, D, nu, constants)
        assert got == pytest.approx(exact, rel=1e-10)


def _direct_pair_integral(a, b, constants, nu):
    """The product rule summed over every pair of nodes, in one einsum."""
    pref = constants.mass / (2.0 * math.pi * constants.hbar**2)
    diff = a.nodes[:, None, :] - b.nodes[None, :, :]
    d = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))
    direct = float(np.einsum("i,ij,j->", a.weights, pref * np.exp(-nu * d) / d, b.weights))
    return direct / math.sqrt(a.area * b.area)


def _on_z_axis(outer, inner, order):
    """Meshes of two spheres moved onto the z axis, outer at the origin:
    the frame in which the pair rule sums a sphere pair."""
    D = math.dist(outer.center, inner.center)
    return (
        build_surface(dataclasses.replace(outer, center=(0.0, 0.0, 0.0)), order=order),
        build_surface(dataclasses.replace(inner, center=(0.0, 0.0, D)), order=order),
    )


def test_offdiag_value_against_direct_product_sum(constants, flat):
    # a sphere pair's rule is the plain product sum over both node sets
    # with the pair on its line of centres, there reduced to u-rings
    shapes = Sphere((0.0, 0.0, 0.0), 1.0), Sphere((4.0, 0.0, 0.0), 1.0)
    a, b = (build_surface(shape, order=8) for shape in shapes)
    nu = 1.0
    direct = _direct_pair_integral(*_on_z_axis(*shapes, 8), constants, nu)
    assert pair_integral(a, b, flat, constants, nu) == pytest.approx(direct, rel=1e-13)


# A pair shares the reflections in the coordinate planes through both
# centres, and the pair rule keeps one outer row per orbit of them: three
# planes for the sphere in the torus hole, two for collinear centres (the
# torus-sphere pairs among them), none in general position.  The torus
# pairs with z shared use its periodic u mirror.  Two spheres instead go on
# rings about their line of centres, whatever their planes, and are
# compared with the product sum over the pair placed on the z axis.
PAIRS = {
    "sphere_in_torus_hole": (Sphere((0.0, 0.0, 0.0), 1.0), Torus((0.0, 0.0, 0.0), 2.0, 0.5)),
    "collinear_spheres": (Sphere((0.0, 0.0, 0.0), 1.0), Sphere((4.0, 0.0, 0.0), 1.0)),
    "right_angle_spheres": (Sphere((4.0, 0.0, 0.0), 1.0), Sphere((0.0, 4.0, 0.0), 1.0)),
    "general_position": (
        Sphere((0.1, 0.2, 0.3), 1.0),
        Ellipsoid((3.1, 1.7, -2.2), 1.2, 1.0, 0.8),
    ),
    "coaxial_torus_sphere": (Torus((0.0, 0.0, 0.0), 2.0, 0.5), Sphere((0.0, 0.0, 2.5), 1.0)),
    "torus_beside_sphere": (Torus((0.0, 0.0, 0.0), 2.0, 0.5), Sphere((4.0, 0.0, 0.0), 1.0)),
    "collinear_ellipsoids": (GENERAL, dataclasses.replace(GENERAL, center=(4.0, 0.0, 0.0))),
}


@pytest.mark.parametrize("shapes", PAIRS.values(), ids=PAIRS.keys())
def test_pair_rule_against_direct_product_sum(constants, flat, shapes):
    # mirror images of an outer node have the same inner sum, so the orbit
    # rows give the full product sum up to rounding, in either order
    a, b = (build_surface(shape, order=12) for shape in shapes)
    for outer, inner in ((a, b), (b, a)):
        reference = (outer, inner)
        if all(isinstance(mesh.shape, Sphere) for mesh in reference):
            reference = _on_z_axis(outer.shape, inner.shape, 12)
        for nu in (0.1, 1.0, 3.0):
            direct = _direct_pair_integral(*reference, constants, nu)
            got = pair_integral(outer, inner, flat, constants, nu)
            assert got == pytest.approx(direct, rel=1e-13)


def test_pair_geometry_rows(sphere24):
    # a sphere pair keeps one outer row per u-ring, 24 x 1152 samples, on a
    # shared line or not.  A sphere beside an ellipsoid on the x axis keeps
    # the mirror rule: they share the y and z planes, 12 u-orbits (u, pi - u)
    # times 25 v-orbits (v, -v).  In general position they share no mirror
    # plane and keep every node.  Each keeps its rows' orbit weights and
    # the inner mesh's own weights, whose outer product weights d
    for center in ((4.0, 0.0, 0.0), (3.0, 2.5, -1.5)):
        other = build_surface(Sphere(center, 1.0), order=24)
        d, outer_w, inner_w = quad._pair_geometry(sphere24, other)
        assert d.size == outer_w.size * inner_w.size == 24 * 1152 and inner_w is other.weights
        assert float(np.sum(outer_w)) == pytest.approx(sphere24.area, rel=1e-14)
    beside = build_surface(dataclasses.replace(GENERAL, center=(4.0, 0.0, 0.0)), order=24)
    d, outer_w, inner_w = quad._pair_geometry(sphere24, beside)
    assert d.size == outer_w.size * inner_w.size == 300 * 1152 and inner_w is beside.weights
    assert float(np.sum(outer_w)) == pytest.approx(sphere24.area, rel=1e-14)
    apart = build_surface(dataclasses.replace(GENERAL, center=(3.0, 2.5, -1.5)), order=24)
    d, outer_w, inner_w = quad._pair_geometry(sphere24, apart)
    diff = sphere24.nodes[:, None, :] - apart.nodes[None, :, :]
    assert np.array_equal(d, np.sqrt(np.einsum("ijk,ijk->ij", diff, diff)))
    assert np.array_equal(outer_w, sphere24.weights) and inner_w is apart.weights


def _one_shot_pair_geometry(mesh_i, mesh_j):
    """_pair_geometry with every outer-minus-inner node difference formed
    at once, (rows, n, 3): the reference the blocked build matches
    bitwise, with the orbit weights and the inner mesh's weights."""
    if all(isinstance(mesh.shape, Sphere) for mesh in (mesh_i, mesh_j)):
        # the line of centres is the z axis, and the u-rings the orbits
        D = math.dist(mesh_i.shape.center, mesh_j.shape.center)
        rows, outer_w = quad._orbit_rows(mesh_i.form, mesh_i.weights)
        outer = mesh_i.shape.radius * mesh_i.form.nodes[rows]
        inner = mesh_j.shape.radius * mesh_j.form.nodes + np.array([0.0, 0.0, D])
    else:
        shared = tuple(a for a in range(3) if mesh_i.shape.center[a] == mesh_j.shape.center[a])
        rows, outer_w = quad._orbit_rows(mesh_i.form, mesh_i.weights, shared)
        outer, inner = mesh_i.nodes[rows], mesh_j.nodes
    diff = outer[:, None, :] - inner[None, :, :]
    return np.sqrt(np.einsum("ijk,ijk->ij", diff, diff)), outer_w, mesh_j.weights


# a ring pair (24 rows), a collinear sphere and ellipsoid on the mirror rule
# (300 rows) and a sphere and torus in general position (every node), each
# at order 24: 1152 inner nodes, 14 outer rows per block
BLOCKED_PAIRS = {
    "ring": (Sphere((0.0, 0.0, 0.0), 1.0), Sphere((2.5, 0.0, 0.0), 1.0)),
    "mirror": (Sphere((0.0, 0.0, 0.0), 1.0), dataclasses.replace(GENERAL, center=(4.0, 0.0, 0.0))),
    "general_position": (Sphere((0.0, 0.0, 0.0), 1.0), Torus((3.1, 1.7, -2.2), 2.0, 0.5)),
}


@pytest.mark.parametrize("shapes", BLOCKED_PAIRS.values(), ids=BLOCKED_PAIRS.keys())
def test_blocked_pair_geometry_is_the_one_shot_difference(shapes):
    # the distances are built a block of outer rows at a time, with the bits
    # of one difference over all rows, in either order of the pair
    a, b = (build_surface(shape, order=24) for shape in shapes)
    for outer, inner in ((a, b), (b, a)):
        want = _one_shot_pair_geometry(outer, inner)
        rows = want[1].size
        step = quad._BLOCK // inner.nodes.shape[0]
        assert rows > step and rows % step  # several blocks, the last one short
        got = quad._pair_geometry(outer, inner)
        for x, y in zip(got, want):
            assert x.shape == y.shape and np.array_equal(x, y)


@pytest.mark.parametrize("shapes", BLOCKED_PAIRS.values(), ids=BLOCKED_PAIRS.keys())
def test_pair_sums_over_inner_weights_match_tiled_rows(
    constants, flat, monkeypatch, shapes
):
    # a pair's one (n,) inner weight vector weights every row as its copy
    # tiled to (rows, n) would, in the same row dots: every moment and the
    # pair's rule keep their bits
    a, b = (build_surface(shape, order=24) for shape in shapes)
    for outer, inner in ((a, b), (b, a)):
        d, outer_w, inner_w = quad._geometry(outer, inner)
        tiled = d, outer_w, np.tile(inner_w, (outer_w.size, 1))
        assert d.shape[0] > quad._BLOCK // d.shape[1]  # several blocks
        for nu in (0.3, 1.0, 3.0):
            got = quad.weighted_kernel_sum((d, outer_w, inner_w), flat, constants, nu, 2)
            assert got == quad.weighted_kernel_sum(tiled, flat, constants, nu, 2), nu
        rule = quad._rule(outer, inner)
        with monkeypatch.context() as mp:
            mp.setattr(quad, "_geometry", lambda *meshes: tiled)
            assert quad._rule.__wrapped__(outer, inner) == rule


def _form_self(shape):
    """(form, form) of shape at a given order: its self-integral's rule."""
    return lambda order: 2 * (build_surface(shape, order=order).form,)


def _pair_of(shapes):
    return lambda order: tuple(build_surface(shape, order=order) for shape in shapes)


# Every geometry kind at order 24: three forms' self-integrals, the three
# pair rules and a surface with a point.
SUM_GEOMETRIES = {
    "sphere": _form_self(Sphere((0.0, 0.0, 0.0), 1.0)),
    "torus": _form_self(Torus((0.0, 0.0, 0.0), 2.0, 0.5)),
    "ellipsoid": _form_self(Ellipsoid((0.0, 0.0, 0.0), 1.0, 1.3, 1.7)),
    "ring": _pair_of(BLOCKED_PAIRS["ring"]),
    "mirror": _pair_of(BLOCKED_PAIRS["mirror"]),
    "general_position": _pair_of(BLOCKED_PAIRS["general_position"]),
    "point": lambda order: (
        build_surface(Torus((0.0, 0.0, 0.0), 2.0, 0.5), order=order),
        flat_point(0.3, -3.1, 0.7),
    ),
}


@pytest.mark.parametrize("name", SUM_GEOMETRIES)
def test_blocked_moments_are_the_fsum_of_the_weight_products(constants, flat, name):
    # the row dots and the row-weight dot round a moment to within a few
    # ulp of the correctly rounded sum over the materialised products
    # row_w[r] col_w[r, j] c(d[r, j]): 5.0e-16 seen
    a, b = SUM_GEOMETRIES[name](24)
    geometry = quad._form_geometry(a) if a is b else quad._geometry(a, b)
    d, w = _flat(geometry)
    for nu in (0.3, 1.0, 3.0):
        g, dg = static_kernel_array(flat, constants, nu, d, moment=True)
        want = [math.fsum((w * c).tolist()) for c in (g, dg, d * dg)]
        got = quad.weighted_kernel_sum(geometry, flat, constants, nu, 2)
        for k, (x, y) in enumerate(zip(got, want)):
            assert x == pytest.approx(y, rel=1e-15, abs=0.0), (nu, k)


def _traced(build):
    """build()'s result, the bytes it leaves allocated and the peak of its
    allocations above them, by tracemalloc (numpy reports its arrays)."""
    gc.collect()
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        out = build()
        current, peak = tracemalloc.get_traced_memory()
    finally:
        if not tracing:
            tracemalloc.stop()
    return out, current - base, peak - current


def test_pair_build_peaks_at_the_arrays_it_keeps():
    # an order-32 sphere beside an ellipsoid keeps 528 x 2048 distances and
    # weights, 16.5 MiB; their whole (rows, n, 3) difference would take
    # 24.8 MiB more, one block of it takes 0.4 MiB
    a = build_surface(Sphere((0.0, 0.0, 0.0), 1.0), order=32)
    b = build_surface(dataclasses.replace(GENERAL, center=(4.0, 0.0, 0.0)), order=32)
    (d, outer_w, _), held, scratch = _traced(lambda: quad._pair_geometry.__wrapped__(a, b))
    assert d.size == 528 * 2048 and held >= d.nbytes + outer_w.nbytes
    assert scratch <= 2**20


def test_pair_geometry_keeps_half_the_bytes_of_its_weight_product():
    # an order-24 sphere beside an ellipsoid keeps 300 x 1152 distances and
    # the 300 orbit weights, 2.64 MiB; the (rows, n) weight product it no
    # longer keeps would take as much again, and the inner weights are the
    # inner mesh's own array
    a = build_surface(Sphere((0.0, 0.0, 0.0), 1.0), order=24)
    b = build_surface(dataclasses.replace(GENERAL, center=(4.0, 0.0, 0.0)), order=24)
    (d, outer_w, inner_w), held, _ = _traced(lambda: quad._pair_geometry.__wrapped__(a, b))
    assert d.size == 300 * 1152 and inner_w is b.weights
    parent = 2 * d.nbytes  # d and the (rows, n) weight product
    assert d.nbytes + outer_w.nbytes <= held <= 0.51 * parent


def test_patch_build_scratch_stays_under_a_mebibyte():
    # the order-24 general ellipsoid's 156 patch rows keep 3.7 MiB; a batch
    # of _PATCH_CHUNK rows needs at most 1 MiB besides
    form = build_surface(GENERAL, order=24).form
    out, held, scratch = _traced(lambda: quad._form_geometry.__wrapped__(form))
    assert out[1].size == 156 and held >= out[0].nbytes + out[2].nbytes
    assert scratch <= 2**20


# Sphere pairs on rings: both spheres revolve about their line of centres.

# the largest relative error against the closed form at nu = 1, with the
# centres on the x axis as in the shipped configs
RING_ERRORS = {
    (2.0, 16): 5e-3,
    (2.0, 24): 2.5e-3,
    (2.1, 16): 2e-4,
    (2.1, 24): 2e-5,
    (2.5, 16): 1e-8,
    (2.5, 24): 5e-12,
    (4.0, 16): 1e-14,
    (4.0, 24): 1e-14,
}


@pytest.mark.parametrize("D, order", RING_ERRORS, ids=[f"D{D}-n{n}" for D, n in RING_ERRORS])
def test_ring_pair_against_two_sphere_closed_form(constants, flat, D, order):
    # the contact point of a near pair sits on both poles, where the nodes
    # in cos u cluster
    a, b = (build_surface(Sphere((x, 0.0, 0.0), 1.0), order=order) for x in (0.0, D))
    exact = two_sphere_pair_integral_exact(1.0, 1.0, D, 1.0, constants)
    for outer, inner in ((a, b), (b, a)):
        got = pair_integral(outer, inner, flat, constants, 1.0)
        assert abs(got - exact) <= RING_ERRORS[D, order] * exact


def test_ring_pair_of_unequal_spheres_and_orders(constants, flat):
    # each outer ring's inner sum is its ring's integral up to the inner
    # rule's error, whichever order each sphere has
    a = build_surface(Sphere((0.0, 0.0, 0.0), 0.7), order=16)
    b = build_surface(Sphere((1.2, -1.5, 1.9), 1.3), order=24)
    D = math.dist(a.shape.center, b.shape.center)
    assert D == pytest.approx(2.7, rel=1e-2)
    for nu in (0.5, 1.0, 2.0):
        exact = two_sphere_pair_integral_exact(0.7, 1.3, D, nu, constants)
        for outer, inner in ((a, b), (b, a)):
            got = pair_integral(outer, inner, flat, constants, nu)
            assert got == pytest.approx(exact, rel=2e-12)


def test_ring_pair_does_not_depend_on_the_direction(constants, flat):
    # only the distance of the centres enters a sphere pair's geometry,
    # scaled into the line-of-centres frame, whichever sphere is outer
    for R, order in itertools.product((1.0, 0.55, 1.3), (16, 24)):
        unit = build_surface(Sphere((0.0, 0.0, 0.0), 1.0), order=order)
        others = [
            build_surface(Sphere(center, R), order=order)
            for center in ((4.0, 0.0, 0.0), (0.0, 4.0, 0.0), (0.0, 0.0, -4.0))
        ]
        for pairs in ([(o, unit) for o in others], [(unit, o) for o in others]):
            values = {pair_integral(a, b, flat, constants, 1.0) for a, b in pairs}
            assert len(values) == 1, (R, order)


def test_equal_axis_ellipsoid_pair_goes_on_rings(sphere24):
    # an Ellipsoid(R, R, R) has the sphere's chart, so it pairs on rings,
    # with the sphere pair's bits
    sphere = build_surface(Sphere((0.0, 3.0, 0.0), 1.0), order=24)
    ellipsoid = build_surface(Ellipsoid((0.0, 3.0, 0.0), 1.0, 1.0, 1.0), order=24)
    got = quad._pair_geometry(sphere24, ellipsoid)
    assert got[0].size == 24 * 1152
    for a, b in zip(got, quad._pair_geometry(sphere24, sphere)):
        assert np.array_equal(a, b)


def test_sphere_pair_builds_no_patch_rows(constants, flat):
    # the ring pair reads its outer rows from the orbit rule, so a sphere
    # pair leaves both forms' patch geometry unbuilt
    gc.collect()
    misses = quad._form_geometry.cache_info().misses
    a = build_surface(Sphere((0.0, 0.0, 0.0), 0.9), order=11)
    b = build_surface(Sphere((0.5, 2.0, -1.0), 0.4), order=13)
    assert pair_integral(a, b, flat, constants, 1.0) > 0.0
    assert quad._form_geometry.cache_info().misses == misses


# Forms: a self-integral's geometry depends on the shape only up to
# translation and scale, so meshes of one form share one patch build.


@pytest.mark.parametrize("R", [0.6, 1.3])
def test_self_integral_scales_with_the_sphere(constants, flat, sphere32, R):
    # G_nu(s d) = G_{s nu}(d) / s for the flat kernel, so
    # P(sS, sS, nu) = s P(S, S, s nu)
    scaled = build_surface(Sphere((0.0, 0.0, 0.0), R), order=32)
    assert scaled.form is sphere32.form
    for nu in (0.1, 3.0):
        got = pair_integral(scaled, scaled, flat, constants, nu)
        want = R * pair_integral(sphere32, sphere32, flat, constants, R * nu)
        assert got == pytest.approx(want, rel=1e-15)


@pytest.mark.parametrize(
    "shape",
    [Sphere((0.0, 0.0, 0.0), 1.0), GENERAL, Torus((0.0, 0.0, 0.0), 2.0, 0.5)],
    ids=["sphere", "ellipsoid", "torus"],
)
def test_self_integral_is_translation_invariant(constants, flat, shape):
    home = build_surface(shape, order=12)
    moved = build_surface(dataclasses.replace(shape, center=(0.3, -1.7, 2.9)), order=12)
    assert moved.form is home.form and moved.scale == home.scale
    for nu in (0.1, 1.0, 3.0):
        want = pair_integral(home, home, flat, constants, nu)
        assert pair_integral(moved, moved, flat, constants, nu) == pytest.approx(want, rel=1e-15)


# A scaled mesh and the unit mesh of its form, at scales 1.7, 2 and 1.2.
SCALED = {
    "sphere": (Sphere((0.0, 0.0, 0.0), 1.7), Sphere((0.0, 0.0, 0.0), 1.0)),
    "torus": (Torus((0.0, 0.0, 0.0), 2.0, 0.5), Torus((0.0, 0.0, 0.0), 1.0, 0.25)),
    "ellipsoid": (GENERAL, Ellipsoid((0.0, 0.0, 0.0), 1.0, 1.0 / 1.2, 0.8 / 1.2)),
}


@pytest.mark.parametrize("name", SCALED)
def test_scaled_mesh_takes_its_forms_arrays(name):
    # a mesh at any scale caches no array of its own for its self-integral
    mesh = build_surface(SCALED[name][0], order=12)
    assert mesh.scale in (1.2, 1.7, 2.0)
    got, form = quad._diag_geometry(mesh), quad._form_geometry(mesh.form)
    assert all(x is y for x, y in zip(got, form, strict=True))


@pytest.mark.parametrize("name", SCALED)
def test_self_integral_at_scale_s_is_its_forms_at_s_nu(constants, flat, name):
    # P(nu) = s P_1(s nu), P' = s^2 P_1'(s nu) and P'' = s^3 P_1''(s nu),
    # P_1 the self-integral of the unit mesh of the same form
    mesh, unit = (build_surface(shape, order=12) for shape in SCALED[name])
    assert unit.form is mesh.form and unit.scale == 1.0
    s = mesh.scale
    for nu in (1e-8, 0.3, 1.0, 5.0):
        got = quad.double_sum(mesh, mesh, flat, constants, nu, 2)
        want = quad.double_sum(unit, unit, flat, constants, s * nu, 2)
        for k, (x, y) in enumerate(zip(got, want)):
            assert x == pytest.approx(s ** (k + 1) * y, rel=1e-15, abs=0.0), (nu, k)


def _radius_sweep(radii, constants, flat):
    """Self-integrals at each radius, one fresh mesh per point as in
    `sweep --param radius`, and a weak reference to the sweep's form."""
    values = []
    for R in radii:
        mesh = build_surface(Sphere((0.0, 0.0, 0.0), R), order=14)
        values.append([pair_integral(mesh, mesh, flat, constants, nu) for nu in (0.5, 2.0)])
    return values, weakref.ref(mesh.form)


def test_radius_sweep_does_not_depend_on_grid_order(constants, flat):
    # the form dies between the two sweeps, so each builds its form
    # geometry anew when its first radius asks: no row may depend on which
    # radius that was
    radii = [0.55, 0.8, 1.3, 1.95]
    forward, form = _radius_sweep(radii, constants, flat)
    gc.collect()
    assert form() is None
    backward, form = _radius_sweep(radii[::-1], constants, flat)
    assert np.array(forward).tobytes() == np.array(backward[::-1]).tobytes()


# How long cached geometry lives: exactly as long as its meshes.

CACHES = ("_diag_geometry", "_pair_geometry")


def _sizes():
    gc.collect()
    return [getattr(quad, name).cache_info().currsize for name in CACHES]


def _pair(order=8):
    return [build_surface(Sphere((4.0 * k, 0.0, 0.0), 1.0), order=order) for k in (0, 1)]


def test_geometry_does_not_keep_its_mesh_alive():
    a, b = _pair()
    quad._diag_geometry(a)
    quad.offdiag_weighted_sum(a, b, flat_space(), PhysicalConstants(), 1.0, 0)
    ref = weakref.ref(a)
    del a
    gc.collect()
    assert ref() is None


def test_diag_cache_stays_bounded_over_a_sweep():
    before = _sizes()[0]
    for radius in np.linspace(0.5, 2.0, 10):
        mesh = build_surface(Sphere((0.0, 0.0, 0.0), float(radius)), order=8)
        quad._diag_geometry(mesh)
        assert quad._diag_geometry.cache_info().currsize <= before + 1
    del mesh
    assert _sizes()[0] == before


@pytest.mark.parametrize("dies", [0, 1])
def test_pair_entries_go_with_either_mesh(dies):
    meshes = _pair()
    before = _sizes()
    quad._pair_geometry(*meshes)
    assert _sizes() == [before[0], before[1] + 1]
    del meshes[dies]
    assert _sizes() == before


@pytest.mark.parametrize("dies", ["mesh", "point"])
def test_point_entries_go_with_the_mesh_or_the_point(dies):
    points = quad._point_geometry
    gc.collect()
    before = points.cache_info().currsize
    keys = {"mesh": _pair()[0], "point": flat_point(0.0, 3.0, 0.0)}
    quad._point_geometry(keys["mesh"], keys["point"])
    assert points.cache_info().currsize == before + 1
    del keys[dies]
    gc.collect()
    assert points.cache_info().currsize == before


def test_hybrid_solve_builds_each_point_geometry_once(constants, flat):
    # every evaluation sums each (mesh, point) pair; only the first builds
    meshes = _pair()
    points = (
        PointSource(flat_point(2.0, 3.0, 0.0), 0.6),
        PointSource(flat_point(2.0, -3.0, 1.0), 0.7),
    )
    system = HybridSystem(meshes, CouplingSpec.from_nu_stars(1.0, 1.1), points, flat, constants)
    before = quad._point_geometry.cache_info()
    result = solve_hybrid_ground_state(system)
    after = quad._point_geometry.cache_info()
    assert result.converged and result.iterations > 1
    assert after.misses - before.misses == 4
    assert after.hits - before.hits == 4 * (result.iterations - 1)


def test_form_geometry_lives_as_long_as_a_mesh_of_its_form():
    # equal shapes at other centres and scales share one form and one build
    forms = quad._form_geometry
    gc.collect()
    before = forms.cache_info()
    a = build_surface(Sphere((0.0, 0.0, 0.0), 0.7), order=10)
    b = build_surface(Sphere((3.0, 0.0, 0.0), 1.9), order=10)
    assert a.form is b.form
    quad._diag_geometry(a)
    quad._diag_geometry(b)
    assert forms.cache_info().misses == before.misses + 1
    form = weakref.ref(a.form)
    del a
    gc.collect()
    assert form() is not None and forms.cache_info().currsize == before.currsize + 1
    c = build_surface(Sphere((0.0, 5.0, 0.0), 1.1), order=10)
    quad._diag_geometry(c)
    assert forms.cache_info().misses == before.misses + 1
    del b, c
    gc.collect()
    assert form() is None and forms.cache_info().currsize == before.currsize


def test_clear_caches_empties_both():
    a, b = _pair()
    quad._diag_geometry(a)
    quad.offdiag_weighted_sum(a, b, flat_space(), PhysicalConstants(), 1.0, 0)
    assert all(n > 0 for n in _sizes())
    quad.clear_caches()
    for name in (*CACHES, "_form_geometry"):
        assert getattr(quad, name).cache_info() == (0, 0, None, 0)


def test_live_mesh_hits_its_cached_geometry():
    a, b = _pair()
    diag, pair = quad._diag_geometry(a), quad._pair_geometry(a, b)
    infos = [getattr(quad, name).cache_info() for name in CACHES]
    assert quad._diag_geometry(a) is diag
    assert quad._pair_geometry(a, b) is pair
    for name, info in zip(CACHES, infos):
        now = getattr(quad, name).cache_info()
        assert (now.hits, now.misses, now.currsize) == (info.hits + 1, info.misses, info.currsize)


_PEAK_CHILD = """
import sys
from shellbound.cli import main
code = main(sys.argv[1:])
status = open("/proc/self/status").read().splitlines()
print(code, next(line.split()[1] for line in status if line.startswith("VmHWM:")))
"""


def _sweep_peak_kb(tmp_path, grid):
    """VmHWM of a fresh process that runs one separation sweep.

    The child reads its own high-water mark: ru_maxrss of a child can
    inherit the parent's across exec.
    """
    root = pathlib.Path(__file__).resolve().parent.parent
    argv = [
        "sweep", "--config", str(root / "configs" / "two_spheres.json"),
        "--param", "separation", "--grid", grid, "--out", str(tmp_path / "sweep.csv"),
    ]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    out = subprocess.run(
        [sys.executable, "-c", _PEAK_CHILD, *argv],
        env=env, capture_output=True, text=True, check=True, timeout=300,
    )
    code, kb = out.stdout.splitlines()[-1].split()
    assert code == "0"
    return int(kb)


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads Linux VmHWM")
def test_separation_sweep_memory_does_not_grow_with_its_length(tmp_path):
    # each sweep point's pair geometry goes with its mesh (before the weak
    # caches: 57 MB over 2 points, 120 MB over 12)
    grid = [f"{2.5 + 0.5 * k:.1f}" for k in range(12)]
    short = _sweep_peak_kb(tmp_path, ",".join(grid[:2]))
    long = _sweep_peak_kb(tmp_path, ",".join(grid))
    assert long <= 1.1 * short


# Flat sums at nu = 0: the kernel is pref / d, so P^(k)(0) is (-kappa_f)^k
# pref sum w d^(k - 1) / sqrt(V_a V_b), from sums that each cached
# geometry gets once and keeps no longer than the geometry lives.

ZERO_SELF = {
    "sphere": Sphere((0.0, 0.0, 0.0), 1.3),
    "torus": Torus((1.0, -2.0, 0.5), 2.0, 0.5),
    "ellipsoid": Ellipsoid((0.0, 0.0, 0.0), 1.5, 1.95, 2.55),  # (1, 1.3, 1.7) at scale 1.5
}
ZERO_PAIRS = {
    "ring": BLOCKED_PAIRS["ring"],
    "mirror": BLOCKED_PAIRS["mirror"],
    "general_position": BLOCKED_PAIRS["general_position"],
    "point": (Torus((0.0, 0.0, 0.0), 2.0, 0.5), flat_point(0.3, -3.1, 0.7)),
}


def _zero_reference(constants, d, w, norm):
    """(P, P', P'') at nu = 0 from physical distances and weights, each sum
    by math.fsum."""
    pref = constants.mass / (2.0 * math.pi * constants.hbar**2)
    rate = -constants.kappa_factor
    return [
        rate**k * pref * math.fsum((w * d ** (k - 1.0)).tolist()) / norm for k in range(3)
    ]


def _assert_close(got, want):
    # the blocked dots and the scale law cost a few ulps: 3.8e-16 at most
    # over these cases, against 2e-15 allowed
    for g, x in zip(got, want):
        assert g == pytest.approx(x, rel=2e-15, abs=0.0)


@pytest.mark.parametrize("name", ZERO_SELF)
def test_self_integral_at_nu_zero_is_the_flat_moment_sum(constants, flat, name):
    mesh = build_surface(ZERO_SELF[name], order=16)
    assert mesh.scale != 1.0
    d, w = _flat(quad._diag_geometry(mesh))  # the form's arrays, at scale 1
    s = mesh.scale
    want = _zero_reference(constants, s * d, s**4 * w, mesh.area)
    _assert_close(quad.double_sum(mesh, mesh, flat, constants, 0.0, 2), want)


@pytest.mark.parametrize("name", ZERO_PAIRS)
def test_pair_at_nu_zero_is_the_flat_moment_sum(constants, flat, name):
    a, b = ZERO_PAIRS[name]
    a = build_surface(a, order=16)
    if isinstance(b, Point3):  # one node of weight 1 and V = 1
        d, w = _flat(quad._point_geometry(a, b))
        norm = math.sqrt(a.area)
    else:
        b = build_surface(b, order=16)
        d, w = _flat(quad._geometry(a, b))
        norm = math.sqrt(a.area * b.area)
    want = _zero_reference(constants, d, w, norm)
    _assert_close(quad.double_sum(a, b, flat, constants, 0.0, 2), want)


@pytest.mark.parametrize("order", [16, 24, 32])
def test_unit_sphere_p_at_nu_zero(constants, flat, order):
    # P(0) = 2 m R / hbar^2 exactly; the patch rule leaves 1.9e-11
    mesh = build_surface(Sphere((0.0, 0.0, 0.0), 1.0), order=order)
    exact = 2.0 * constants.mass / constants.hbar**2
    assert abs(quad.double_sum(mesh, mesh, flat, constants, 0.0, 0)[0] - exact) <= 2e-11


def test_double_sum_still_refuses_negative_nu(constants, flat, sphere16):
    with pytest.raises(InvalidArgumentError, match="nu >= 0"):
        quad.double_sum(sphere16, sphere16, flat, constants, -1e-300, 0)


# The form's Gauss rule of P's distance measure w / d (_rule(form, form)):
# its nodes are the zeros of the measure's _RULE_NODES-th orthogonal
# polynomial, so they lie inside its support, its weights are positive,
# and it integrates d^k, k < 2 _RULE_NODES, exactly; its error on
# exp(-kappa_f nu d) is >= 0, so it bounds P from below.  The shipped rule
# is checked against the discrete Stieltjes procedure, and the same
# builder at three points against the closed-form cubic.


def _form_sums(form, n):
    """The sums of w d^(k - 1), k < n, over a form's self-integral
    geometry, each by math.fsum: the moments of order k of w / d."""
    d, w = _flat(quad._form_geometry(form))
    return [math.fsum((w * d ** (k - 1.0)).tolist()) for k in range(n)]


def _closed_form_rule(sums):
    """The three-point Gauss rule of the measure whose moments of d^k are
    sums[k], k < 6, in float arithmetic: in t = (d - mean) / sigma the
    moments are 1, 0, 1, t_3, t_4, t_5; the monic cubic t^3 + a t^2 + b t +
    c orthogonal to 1, t and t^2 solves their 3 x 3 Hankel system, its
    three real roots r_i come in trigonometric form, and the weight of r_k
    is the integral of its Lagrange polynomial, (1 + r_i r_j) / ((r_k -
    r_i)(r_k - r_j))."""
    _, m, m2, m3, m4, m5 = (x / sums[0] for x in sums)
    sigma = math.sqrt(m2 - m * m)
    t3 = (m3 - m * (3.0 * m2 - 2.0 * m * m)) / sigma**3
    t4 = (m4 - m * (4.0 * m3 - m * (6.0 * m2 - 3.0 * m * m))) / sigma**4
    t5 = (m5 - m * (5.0 * m4 - m * (10.0 * m3 - m * (10.0 * m2 - 4.0 * m * m)))) / sigma**5
    a = (t3 * (1.0 + t4) - t5) / (t4 - t3 * t3 - 1.0)
    b, c = -t4 - a * t3, -t3 - a
    p, q = b - a * a / 3.0, 2.0 * a**3 / 27.0 - a * b / 3.0 + c  # t = y - a / 3
    rho = 2.0 * math.sqrt(-p / 3.0)
    theta = math.acos(max(-1.0, min(1.0, 3.0 * q / (p * rho)))) / 3.0
    r = sorted(rho * math.cos(theta - 2.0 * math.pi * k / 3.0) - a / 3.0 for k in range(3))
    weights = [
        sums[0] * (1.0 + r[i] * r[j]) / ((r[k] - r[i]) * (r[k] - r[j]))
        for k, i, j in ((0, 1, 2), (1, 2, 0), (2, 0, 1))
    ]
    return [m + sigma * t for t in r], weights


def _rule_at(monkeypatch, n, a, b):
    """The n-point rule of a with b, built afresh with _RULE_NODES = n."""
    with monkeypatch.context() as mp:
        mp.setattr(quad, "_RULE_NODES", n)
        return quad._rule.__wrapped__(a, b)


def _fsum(v):
    return math.fsum(v.tolist())


def _stieltjes(d, w, n, total=_fsum):
    """(mid, half, alpha, beta): the first n recurrence coefficients of the
    measure w / d by the discrete Stieltjes procedure (Gautschi 2004,
    section 2.2.3), independent of _rule's modified moments: the monic
    orthogonal polynomials pi_k are evaluated on every distance d, in t =
    (d - mid) / half, each inner product a total (math.fsum, or np.sum
    where a margin needs no last digit, at a fifth of the time), so that
    ||pi_k||^2 = beta_0 .. beta_k."""
    mid, half = (d.max() + d.min()) / 2.0, (d.max() - d.min()) / 2.0
    t, mu = (d - mid) / half, w / d
    prev, cur, norm_prev = np.zeros_like(t), np.ones_like(t), 1.0
    alpha, beta = [], []
    for _ in range(n):
        norm = total(mu * cur * cur)
        alpha.append(total(mu * t * cur * cur) / norm)
        beta.append(norm / norm_prev)
        prev, cur, norm_prev = cur, (t - alpha[-1]) * cur - beta[-1] * prev, norm
    return mid, half, alpha, beta


def _stieltjes_rule(form, n):
    """The n-point Gauss rule of a form's measure w / d from _stieltjes,
    each inner product a math.fsum, its Jacobi matrix solved with its
    eigenvectors, whose first components give the weights."""
    mid, half, alpha, beta = _stieltjes(*_flat(quad._form_geometry(form)), n)
    jacobi = np.diag(alpha) + np.diag(np.sqrt(beta[1:]), 1) + np.diag(np.sqrt(beta[1:]), -1)
    x, v = np.linalg.eigh(jacobi)
    return (mid + half * x).tolist(), (beta[0] * v[0] ** 2).tolist()


def _assert_flat_sums(form, rule):
    """rule's nodes lie strictly inside the form's distances, ascending,
    its weights are positive, and it integrates d^k, k < 2 len(rule),
    against w / d as the form's math.fsum sums do."""
    nodes, weights = rule
    d = quad._form_geometry(form)[0]
    ends = (float(d.min()), *nodes, float(d.max()))
    assert all(x < y for x, y in zip(ends, ends[1:]))
    assert min(weights) > 0.0
    for k, want in enumerate(_form_sums(form, 2 * len(nodes))):
        got = math.fsum(w * x**k for x, w in zip(nodes, weights))
        # 4.5e-16 seen at three points (the torus's moment of order 5),
        # 1.4e-15 at four (the torus's moment of order 7)
        assert got == pytest.approx(want, rel=4e-15, abs=0.0), k


# A Gauss rule's error on e^{-a x}, a = kappa_f nu, is a^{2N} e^{-a xi} /
# (2N)! ||pi_N||^2 >= 0 (Golub & Meurant 2010, ch. 6), so it bounds P from
# below, and strictly once that term clears the few eps to which P and the
# rule's sum round.  At five points the term reads 1.2e-10 of P or more at
# s nu = 1 on every geometry checked here (3.5e-10 seen as P - P_G), but
# 3e-15 or less at s nu = 0.1, where the rule meets P to rounding; at three
# points it reads 3e-11 or more at s nu = 0.1.
def _assert_bounds_p(constants, flat, mesh, rule, strict_from=1.0):
    """The form's rule, scaled to mesh, bounds P from below at every
    s nu in the self-integral's range, equal at nu = 0, and strictly from
    s nu = strict_from on; returns the bounds."""
    nodes, weights = rule
    s, k = mesh.scale, constants.kappa_factor
    unit = s * constants.mass / (2.0 * math.pi * constants.hbar**2) / mesh.form.area
    bounds = []
    for s_nu in (0.0, 1e-8, 0.1, 1.0, 10.0, 30.0):  # the form's nu, by the scale law
        nu = s_nu / s
        p = quad.double_sum(mesh, mesh, flat, constants, nu, 0)[0]
        bound = unit * math.fsum(w * math.exp(-k * nu * s * x) for x, w in zip(nodes, weights))
        # equal at nu = 0, and within rounding at 1e-8 (rel. error 1e-49)
        assert bound <= p * (1.0 + 2e-15)
        assert s_nu < strict_from or bound < p
        bounds.append(bound)
    return bounds


@pytest.mark.parametrize("name", ZERO_SELF)
def test_three_point_rule_reproduces_the_six_flat_sums(monkeypatch, name):
    form = build_surface(ZERO_SELF[name], order=16).form
    rule = _rule_at(monkeypatch, 3, form, form)
    assert len(rule[0]) == len(rule[1]) == 3
    _assert_flat_sums(form, rule)


@pytest.mark.parametrize("order", [16, 24])
@pytest.mark.parametrize("name", ZERO_SELF)
def test_form_rule_matches_the_closed_form_three_point_rule(monkeypatch, name, order):
    form = build_surface(ZERO_SELF[name], order=order).form
    want = _closed_form_rule(_form_sums(form, 6))
    for got, ref in zip(_rule_at(monkeypatch, 3, form, form), want, strict=True):
        # 3.8e-14 seen (the ellipsoid at order 16), while both rules give
        # the six moments within 1.0e-15: the rule's conditioning
        assert got == pytest.approx(ref, rel=1e-13, abs=0.0)


@pytest.mark.parametrize("order", [16, 24])
@pytest.mark.parametrize("name", ZERO_SELF)
def test_form_rule_matches_the_discrete_stieltjes_rule(name, order):
    form = build_surface(ZERO_SELF[name], order=order).form
    rule = quad._rule(form, form)
    assert len(rule[0]) == len(rule[1]) == quad._RULE_NODES
    _assert_flat_sums(form, rule)
    want = _stieltjes_rule(form, quad._RULE_NODES)
    for got, ref in zip(rule, want, strict=True):
        # 1.9e-15 seen (the sphere's weights at order 24)
        assert got == pytest.approx(ref, rel=1e-14, abs=0.0)


@pytest.mark.parametrize("name", ZERO_SELF)
def test_three_point_rule_bounds_p_from_below(constants, flat, monkeypatch, name):
    mesh = build_surface(ZERO_SELF[name], order=16)
    rule = _rule_at(monkeypatch, 3, mesh.form, mesh.form)
    _assert_bounds_p(constants, flat, mesh, rule, strict_from=0.1)


@pytest.mark.parametrize("name", ZERO_SELF)
def test_form_rule_bounds_p_from_below(constants, flat, monkeypatch, name):
    # and at or above the four-point rule's bound, itself at or above the
    # three-point rule's, at every s nu >= 0.1 checked: the n-point rule
    # is the (n - 1)-point rule's Gauss rule plus an error >= 0, so the
    # bounds rise with n toward P
    mesh = build_surface(ZERO_SELF[name], order=16)
    bounds = _assert_bounds_p(constants, flat, mesh, quad._rule(mesh.form, mesh.form))
    four, three = (
        _assert_bounds_p(constants, flat, mesh, _rule_at(monkeypatch, n, mesh.form, mesh.form))
        for n in (4, 3)
    )
    assert all(b >= f >= c for b, f, c in zip(bounds[2:], four[2:], three[2:]))


def _recorded(monkeypatch, name):
    """The calls of quad.<name>, recorded by a wrapper."""
    calls, inner = [], getattr(quad, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return inner(*args, **kwargs)

    monkeypatch.setattr(quad, name, wrapper)
    return calls


def test_rules_are_built_once_per_geometry(constants, flat, monkeypatch):
    a, b = _pair()
    point = flat_point(0.0, 3.0, 0.0)
    kernel = _recorded(monkeypatch, "static_kernel_array")
    dots = _recorded(monkeypatch, "_blocked_dots")
    for other in (a, b, point):
        first = quad.double_sum(a, other, flat, constants, 0.0, 2)
        assert len(dots) == 1
        assert quad.double_sum(a, other, flat, constants, 0.0, 1) == first[:2]
        assert len(dots) == 1
        dots.clear()
    assert kernel == []  # no kernel pass at nu = 0


def test_rules_go_with_their_meshes(constants, flat):
    rules = quad._rule

    def size():
        return rules.cache_info().currsize

    gc.collect()
    before = size()
    a, b = _pair()  # two meshes of one form
    ref = weakref.ref(a)
    for other in (a, b, flat_point(0.0, 3.0, 0.0)):
        quad.double_sum(a, other, flat, constants, 0.0, 0)
    assert size() == before + 3
    del a
    gc.collect()
    # the pair's and the point's rules go with a, the form's lives while b does
    assert ref() is None and size() == before + 1
    del b
    gc.collect()
    assert size() == before
    c, d = _pair()
    quad.double_sum(c, d, flat, constants, 0.0, 0)
    quad.double_sum(c, c, flat, constants, 0.0, 0)
    quad.clear_caches()
    assert rules.cache_info() == (0, 0, None, 0)


# The rule of every other geometry kind, order 16: (a, b) builders of the
# two ring pairs, the sphere-torus pair in its mirror planes, the
# ellipsoid-sphere pair that shares no plane (every node in general
# position) and a surface-point entry.
RULE_GEOMETRIES = {
    "ring D=2": lambda: _spheres_at((0.0, 0.0, 0.0), (2.0, 0.0, 0.0)),
    "ring D=4": lambda: _spheres_at((0.0, 0.0, 0.0), (4.0, 0.0, 0.0)),
    "sphere-torus mirror": lambda: (
        build_surface(Sphere((4.0, 0.0, 0.0), 1.0), order=16),
        build_surface(Torus((0.0, 0.0, 0.0), 2.0, 0.5), order=16),
    ),
    "ellipsoid-sphere no plane": lambda: (
        build_surface(Ellipsoid((2.5, 2.5, 2.0), 1.2, 1.0, 0.8), order=16),
        build_surface(Sphere((0.0, 0.0, 0.0), 1.0), order=16),
    ),
    "surface-point": lambda: (
        build_surface(Sphere((0.0, 0.0, 0.0), 1.0), order=16),
        flat_point(0.0, 3.0, 0.0),
    ),
}


def _spheres_at(*centers):
    return tuple(build_surface(Sphere(c, 1.0), order=16) for c in centers)


@pytest.mark.parametrize("name", RULE_GEOMETRIES)
def test_each_geometry_rule_bounds_p_and_goes_with_its_meshes(constants, flat, monkeypatch, name):
    a, b = RULE_GEOMETRIES[name]()
    d, w = _flat(quad._geometry(a, b))
    nodes, weights = quad._rule(a, b)
    four = _rule_at(monkeypatch, 4, a, b)
    assert len(nodes) == len(weights) == quad._RULE_NODES
    assert min(weights) > 0.0
    assert float(d.min()) <= nodes[0] and nodes[-1] <= float(d.max())
    for k in range(2 * quad._RULE_NODES):
        want = math.fsum((w * d ** (k - 1.0)).tolist())
        got = math.fsum(c * x**k for x, c in zip(nodes, weights))
        # 1.2e-15 seen (the D = 2 ring pair's moment of order 7)
        assert got == pytest.approx(want, rel=4e-15, abs=0.0), k
    kf = constants.kappa_factor
    unit = constants.mass / (2.0 * math.pi * constants.hbar**2)
    unit /= math.sqrt(a.area * getattr(b, "area", 1.0))  # a point's V is 1
    for nu in (1e-8, 0.1, 1.0, 10.0):
        p = quad.double_sum(a, b, flat, constants, nu, 0)[0]
        bound, bound_four = (
            unit * math.fsum(c * math.exp(-kf * nu * x) for x, c in zip(*rule))
            for rule in ((nodes, weights), four)
        )
        # within rounding at 1e-8, where the rule's error is 1e-49, and
        # strictly below from nu = 1 on (see _assert_bounds_p)
        assert bound <= p * (1.0 + 2e-15)
        assert nu < 1.0 or bound < p
        assert nu < 0.1 or bound_four <= bound
    gc.collect()
    size = quad._rule.cache_info().currsize
    del a, d, w
    gc.collect()
    assert quad._rule.cache_info().currsize == size - 1


# The rule's stop test (_rule) ends the recurrence at the first k with
# ||pi_k||^2 / m_0 <= 1e-8, in t = (d - mid) / half: a measure of k points
# to rounding, as from a point at a sphere's centre.  On every geometry
# kind at orders 8-32 the last norm it tests, k = _RULE_NODES - 1, stays at
# or above STOP_MARGIN, 50 000 times the stop (0.00097 seen, the (1, 1, 10)
# spheroid's self-integral at order 32; 0.004 or more at k = 3).
STOP_MARGIN = 5e-4


MARGIN_GEOMETRIES = {
    "sphere": _form_self(Sphere((0.0, 0.0, 0.0), 1.0)),
    "torus": _form_self(Torus((0.0, 0.0, 0.0), 2.0, 0.5)),
    "ellipsoid": _form_self(Ellipsoid((0.0, 0.0, 0.0), 1.0, 1.3, 1.7)),
    "spheroid": _form_self(Ellipsoid((0.0, 0.0, 0.0), 1.0, 1.0, 10.0)),
    "ring pair": _pair_of(BLOCKED_PAIRS["ring"]),
    "mirror pair": _pair_of(BLOCKED_PAIRS["mirror"]),
    "off-centre point": lambda order: (
        build_surface(Sphere((0.0, 0.0, 0.0), 1.0), order=order),
        flat_point(0.3, 0.2, -0.1),
    ),
}


@pytest.mark.parametrize("name", MARGIN_GEOMETRIES)
def test_rule_stop_test_keeps_its_margin(name):
    for order in (8, 16, 24, 32):
        a, b = MARGIN_GEOMETRIES[name](order)
        d, w = _flat(quad._form_geometry(a) if a is b else quad._geometry(a, b))
        assert len(quad._rule(a, b)[0]) == quad._RULE_NODES
        beta = _stieltjes(d, w, quad._RULE_NODES, np.sum)[3]
        assert math.prod(beta[1:]) >= STOP_MARGIN, order


def test_gauss_rules_take_no_eigenvectors(monkeypatch):
    # every Gauss rule takes its nodes from an eigenvalue-only solve: the
    # Legendre grids of every order a mesh or patch rule can use, a form's
    # self-integral rule and every other geometry kind's, each rule built
    # afresh while numpy.linalg.eigh raises
    def eigh(*args, **kwargs):
        raise AssertionError("numpy.linalg.eigh called")

    monkeypatch.setattr(np.linalg, "eigh", eigh)
    geometries = [RULE_GEOMETRIES[name]() for name in RULE_GEOMETRIES]
    geometries.append(2 * (build_surface(GENERAL, order=16).form,))
    legendre = quad._gauss_legendre.__wrapped__
    for n in range(4, MAX_ORDER + 1):
        x, w = legendre(n)
        assert x.size == w.size == n
    for a, b in geometries:
        nodes, weights = quad._rule.__wrapped__(a, b)
        assert len(nodes) == len(weights) == quad._RULE_NODES


# A point at a sphere's centre sees every node at one distance, to a few
# ulp: its measure w / d has a few distinct points, and its rule has as
# many as the measure has to rounding, up to _RULE_NODES, read at nu = 0
# without an invalid operation and within rounding of the sums.
def _check_centre_rule(constants, flat, mesh, point):
    d, w = _flat(quad._geometry(mesh, point))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        nodes, weights = quad._rule(mesh, point)
        sums = quad.double_sum(mesh, point, flat, constants, 0.0, 2)
    assert 1 <= len(nodes) <= min(quad._RULE_NODES, len(np.unique(d)))
    assert min(weights) > 0.0
    assert float(d.min()) <= nodes[0] and nodes[-1] <= float(d.max())
    unit = constants.mass / (2.0 * math.pi * constants.hbar**2) / math.sqrt(mesh.area)
    rate = constants.kappa_factor  # d^k/dnu^k e^{-kappa_f nu d} = (-kappa_f d)^k e^{..}
    for k, got in enumerate(sums):
        want = (-rate) ** k * unit * math.fsum((w * d ** (k - 1.0)).tolist())
        # 2.0e-15 seen (order 48, radius 0.003, at the origin, k = 0)
        assert got == pytest.approx(want, rel=2.5e-15, abs=0.0), k


@pytest.mark.parametrize("order, radius", [(4, 1.3), (4, 2.0), (6, 1.3), (16, 1.0), (24, 1.0)])
def test_a_point_at_a_spheres_centre_gets_the_rule_it_has(constants, flat, order, radius):
    mesh = build_surface(Sphere((0.0, 0.0, 0.0), radius), order=order)
    _check_centre_rule(constants, flat, mesh, flat_point(0.0, 0.0, 0.0))


# The same at every mesh order, ten radii and two centres: 900 rules, 3 of
# one node, 32 of two, 352 of three, 69 of four and 444 of five.
@pytest.mark.parametrize("radius", [0.001, 0.003, 0.01, 0.03, 0.1, 0.3, 1.0, 1.3, 3.0, 10.0])
@pytest.mark.parametrize("centre", [(0.0, 0.0, 0.0), (0.3, -7.0, 2.0)], ids=["origin", "moved"])
def test_points_at_sphere_centres_get_their_rules_at_every_order(constants, flat, centre, radius):
    for order in range(4, MAX_ORDER + 1):
        mesh = build_surface(Sphere(centre, radius), order=order)
        _check_centre_rule(constants, flat, mesh, flat_point(*centre))


def test_meshes_of_one_form_share_one_moment_pass(constants, flat, monkeypatch):
    # three equal spheres in different places, as in three_spheres_lambda
    meshes = [build_surface(Sphere((4.0 * k, 1.0, 0.0), 1.1), order=12) for k in range(3)]
    assert len({m.form for m in meshes}) == 1
    dots = _recorded(monkeypatch, "_blocked_dots")
    kernel = _recorded(monkeypatch, "static_kernel_array")
    sums = [quad.double_sum(m, m, flat, constants, 0.0, 2) for m in meshes]
    assert len(dots) == 1 and kernel == []
    assert sums[0] == sums[1] == sums[2]
    assert quad._rule(meshes[0].form, meshes[0].form) is quad._rule(meshes[2].form, meshes[2].form)
    assert len(dots) == 1
