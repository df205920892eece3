"""Principal-matrix assembly, the monotone eigenvalue flow, and the
bound-state solver."""

import dataclasses
import math
import random

import numpy as np
import pytest

from shellbound import (
    BoundStateResult,
    Coupling,
    CouplingSpec,
    Ellipsoid,
    InvalidArgumentError,
    InvalidStateError,
    NoBoundStateError,
    NoConvergenceError,
    PrincipalMatrix,
    Sphere,
    Torus,
    UnsupportedRegimeError,
    VariationalMatrices,
    assemble_phi,
    assemble_variational,
    build_surface,
    coupling_from_energy,
    critical_coupling_exact,
    energy_from_coupling,
    energy_functional,
    flat_point,
    gersgorin_energy_bound,
    hyperbolic_point,
    lowest_eigenvalue_flow,
    normalization_Z,
    solve_ground_state,
    solve_variational,
    wavefunction,
)
from shellbound.oracles import (
    SphereOracleInput,
    sphere_pair_integral_exact,
    sphere_point_potential_exact,
)
from shellbound import _quadrature as quad
from shellbound import principal
from shellbound.cli import load_config
from shellbound.errors import GeometryViolationError
from shellbound.principal import (
    _monotone_root,
    pair_integral,
    surface_potential,
)


@pytest.mark.parametrize("nu", [0.1, 0.5, 1.0, 2.0, 5.0])
def test_pair_integral_matches_oracle(constants, flat, sphere32, nu):
    exact = sphere_pair_integral_exact(SphereOracleInput(R=1.0, nu=nu))
    got = pair_integral(sphere32, sphere32, flat, constants, nu)
    assert abs(got - exact) / exact < 1e-6


# A self-integral's error depends on its scale s and nu only through s nu
# (the scale law), and the fixed radial order of the singular patch sets
# it, not the mesh order.  It is 9e-15 at s nu = 10 and 4.9e-10 at 30, but
# 2.8e-6 at 50 and 2.4e-3 at 100: this pins the resolved range.
@pytest.mark.parametrize("s_nu", [10.0, 30.0])
@pytest.mark.parametrize("R", [0.5, 1.0, 2.0])
def test_self_integral_is_resolved_up_to_s_nu_30(constants, flat, R, s_nu):
    mesh = build_surface(Sphere((0.0, 0.0, 0.0), R), order=16)
    exact = sphere_pair_integral_exact(SphereOracleInput(R=R, nu=s_nu / R))
    got = pair_integral(mesh, mesh, flat, constants, s_nu / R)
    assert abs(got - exact) / exact <= 1e-9


def test_pair_integral_validation(constants, flat, hyp, sphere16):
    with pytest.raises(InvalidArgumentError):
        pair_integral(sphere16, sphere16, flat, constants, 0.0)
    with pytest.raises(InvalidArgumentError):
        pair_integral(sphere16, sphere16, hyp, constants, 1.0)


# Every surface entry point sums through _quadrature.double_sum, which
# refuses a surface outside flat space, so that one check serves them all.
def _pair(mesh):
    return (mesh, build_surface(Sphere((4.0, 0.0, 0.0), 1.0), order=8))


LAMS, STARS = CouplingSpec.from_lambdas(2.0, 2.0), CouplingSpec.from_nu_stars(1.0, 1.0)
SURFACE_ENTRIES = {
    "pair_integral": lambda m, sp, c: pair_integral(m, m, sp, c, 1.0),
    "surface_potential": lambda m, sp, c: surface_potential(m, sp, c, 1.0, flat_point(5, 0, 0)),
    "energy_from_coupling": lambda m, sp, c: energy_from_coupling(m, sp, c, 2.0),
    "coupling_from_energy": lambda m, sp, c: coupling_from_energy(m, sp, c, 1.0),
    "critical_coupling_exact": lambda m, sp, c: critical_coupling_exact(m, sp, c),
    "assemble_phi": lambda m, sp, c: assemble_phi(_pair(m), LAMS, sp, c, 1.0),
    "solve_ground_state": lambda m, sp, c: solve_ground_state(_pair(m), LAMS, sp, c),
    "gersgorin_energy_bound": lambda m, sp, c: gersgorin_energy_bound(_pair(m), STARS, sp, c),
    "normalization_Z": lambda m, sp, c: normalization_Z(m, sp, c, 1.0),
    "energy_functional": lambda m, sp, c: energy_functional(m, sp, c, 2.0, 1.0),
    "assemble_variational": lambda m, sp, c: assemble_variational(_pair(m), LAMS, sp, c, 1.0),
    "solve_variational": lambda m, sp, c: solve_variational(_pair(m), LAMS, sp, c),
}


@pytest.mark.parametrize("entry", SURFACE_ENTRIES)
def test_surface_entry_points_refuse_hyperbolic_space(constants, hyp, sphere16, entry):
    with pytest.raises(InvalidArgumentError, match="flat ambient space"):
        SURFACE_ENTRIES[entry](sphere16, hyp, constants)


@pytest.mark.parametrize("nu_star", [0.2, 1.0, 3.0])
def test_coupling_energy_round_trip_sphere(constants, flat, sphere24, nu_star):
    lam = coupling_from_energy(sphere24, flat, constants, nu_star)
    back = energy_from_coupling(sphere24, flat, constants, lam)
    assert abs(back - nu_star) / nu_star < 1e-8


@pytest.mark.parametrize("nu_star", [0.2, 1.0, 3.0])
def test_coupling_energy_round_trip_torus(constants, flat, torus24, nu_star):
    lam = coupling_from_energy(torus24, flat, constants, nu_star)
    back = energy_from_coupling(torus24, flat, constants, lam)
    assert abs(back - nu_star) / nu_star < 1e-8


def test_energy_from_coupling_subcritical(constants, flat, sphere24):
    # lambda_c for the unit sphere is 1 at default constants
    assert energy_from_coupling(sphere24, flat, constants, 0.999) is None
    assert energy_from_coupling(sphere24, flat, constants, 1.2) is not None
    with pytest.raises(InvalidArgumentError):
        energy_from_coupling(sphere24, flat, constants, 0.0)
    with pytest.raises(InvalidArgumentError):
        coupling_from_energy(sphere24, flat, constants, -1.0)


def test_assemble_phi_forms_agree(constants, flat, sphere24):
    # lambda = 1/P(nu*) makes both diagonal forms identical
    nu_star = 1.0
    lam = coupling_from_energy(sphere24, flat, constants, nu_star)
    a = assemble_phi([sphere24], CouplingSpec.from_lambdas(lam), flat, constants, 1.7)
    b = assemble_phi([sphere24], CouplingSpec.from_nu_stars(nu_star), flat, constants, 1.7)
    assert a.entries[0, 0] == pytest.approx(b.entries[0, 0], abs=1e-14)
    assert a.n == 1
    assert a.omega_min() == float(a.entries[0, 0])


def test_assemble_phi_structure(constants, flat, sphere16):
    other = build_surface(Sphere((4.0, 0.0, 0.0), 1.0), order=16)
    pm = assemble_phi(
        [sphere16, other], CouplingSpec.from_nu_stars(1.0, 1.0), flat, constants, 1.2
    )
    A = pm.entries
    assert A.shape == (2, 2)
    assert A[0, 1] == A[1, 0] < 0.0
    assert A[0, 0] == pytest.approx(A[1, 1], rel=1e-12)
    with pytest.raises(InvalidArgumentError):
        assemble_phi([sphere16], CouplingSpec.from_nu_stars(1.0, 2.0), flat, constants, 1.0)
    with pytest.raises(InvalidArgumentError):
        assemble_phi([], CouplingSpec(()), flat, constants, 1.0)


def _counting(monkeypatch, name, module=principal):
    """Replace module.<name> by a wrapper that records its calls."""
    calls = []
    inner = getattr(module, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return inner(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)
    return calls


@pytest.mark.parametrize("radius", [1.0, 1.3])
def test_assemble_phi_equal_spheres_bitwise(constants, flat, radius):
    # equal spheres share one self-integral per nu: the entries are bitwise
    # those of separate pair_integral calls on each mesh
    a = build_surface(Sphere((0.0, 0.0, 0.0), radius), order=16)
    b = build_surface(Sphere((0.0, 0.0, 5.0), radius), order=16)
    c = build_surface(Sphere((5.0, 0.0, 0.0), radius), order=16)
    nu = 1.2
    couplings = CouplingSpec((Coupling(nu_star=0.9), Coupling(lam=3.0), Coupling(nu_star=0.9)))
    meshes = (a, b, c)
    A = assemble_phi(meshes, couplings, flat, constants, nu).entries
    for i, (mesh, cp) in enumerate(zip(meshes, couplings.items)):
        p_nu = pair_integral(mesh, mesh, flat, constants, nu)
        if cp.lam is not None:
            assert A[i, i] == 1.0 / cp.lam - p_nu
        else:
            assert A[i, i] == pair_integral(mesh, mesh, flat, constants, cp.nu_star) - p_nu
        for j in range(i + 1, 3):
            assert A[i, j] == A[j, i] == -pair_integral(mesh, meshes[j], flat, constants, nu)
    assert A[0, 0] == A[2, 2]


def test_assemble_phi_sums_each_distinct_self_integral_once(constants, flat, monkeypatch):
    a = build_surface(Sphere((0.0, 0.0, 0.0), 1.0), order=8)
    b = build_surface(Sphere((4.0, 0.0, 0.0), 1.0), order=8)
    # every kernel pass over a surface pair or a surface with itself
    calls = _counting(monkeypatch, "double_sum", quad)
    assemble_phi((a, b), CouplingSpec.from_nu_stars(0.7, 1.1), flat, constants, 1.3)
    # P(nu) once for both, P_aa(0.7), P_bb(1.1) and the pair
    assert len(calls) == 4
    calls.clear()
    assemble_phi((a, b), CouplingSpec.from_nu_stars(0.7, 0.7), flat, constants, 1.3)
    assert len(calls) == 3
    calls.clear()
    smaller = build_surface(Sphere((4.0, 0.0, 0.0), 0.9), order=8)
    assemble_phi((a, smaller), CouplingSpec.from_nu_stars(0.7, 0.7), flat, constants, 1.3)
    assert len(calls) == 5


def test_pair_integral_kernel_calls_per_block(constants, flat, sphere24, monkeypatch):
    # an order-24 sphere pair sums 24 outer u-rings x 1152 nodes; the block
    # loop makes one kernel call per _BLOCK samples, and every sample once
    other = build_surface(Sphere((4.0, 0.0, 0.0), 1.0), order=24)
    calls = _counting(monkeypatch, "static_kernel_array", quad)
    pair_integral(sphere24, other, flat, constants, 1.0)
    assert sum(args[3].size for args in calls) == 27_648
    assert len(calls) <= -(-27_648 // quad._BLOCK)
    assert len(calls) <= 2


def test_ground_state_reuses_the_root_eigenpairs(constants, flat, sphere16, monkeypatch):
    other = build_surface(Sphere((4.0, 0.0, 0.0), 1.0), order=16)
    calls = _counting(monkeypatch, "jacobi_eigh")
    result = solve_ground_state(
        [sphere16, other], CouplingSpec.from_nu_stars(0.8, 1.1), flat, constants
    )
    # one eigen solve per evaluation of omega_min, none more at the root
    assert len(calls) == result.iterations


@pytest.mark.parametrize("bad", [math.nan, -math.inf])
def test_principal_matrix_rejects_non_finite_entries(constants, flat, sphere16, bad):
    # a NaN or infinite entry passes the symmetry test, so it is checked
    # on its own
    other = build_surface(Sphere((4.0, 0.0, 0.0), 1.0), order=16)
    pm = assemble_phi(
        [sphere16, other], CouplingSpec.from_nu_stars(1.0, 1.0), flat, constants, 1.2
    )
    entries = pm.entries.copy()
    entries[0, 1] = entries[1, 0] = bad
    with pytest.raises(InvalidArgumentError, match="finite"):
        dataclasses.replace(pm, entries=entries)


def _with_matrix(kind: str, A: np.ndarray):
    """A PrincipalMatrix with entries A, or VariationalMatrices with A as
    one of its three symmetric matrices and the identity as the others."""
    if kind == "principal":
        return PrincipalMatrix(nu=1.0, entries=A, slope=np.zeros_like(A))
    eye = np.eye(2)
    mats = {"S": eye, "L": eye, "K": eye, kind: A}
    return VariationalMatrices(alpha=1.0, D=eye, **mats)


@pytest.mark.parametrize("kind", ["principal", "S", "L", "K"])
def test_matrix_classes_check_square_finite_symmetric(kind):
    # one rule for every kind: the symmetry tolerance is 1e-12 max|A|, so
    # 2e-6 at max|A| = 2e6 and 5e-13 at max|A| = 0.5
    A = 1e6 * np.array([[2.0, 1.0], [1.0, 1.0]])
    small = np.array([[0.5, 0.25], [0.25, 0.5]])
    for bad, match in (
        (np.zeros((2, 3)), "square"),
        (np.zeros((0, 0)), "square"),
        (np.array([[1.0, math.nan], [math.nan, 1.0]]), "finite"),
        (np.array([[math.inf, 0.0], [0.0, 1.0]]), "finite"),
        (np.array([[1.0, -math.inf], [-math.inf, 1.0]]), "finite"),
        (A + np.array([[0.0, 0.0], [3e-6, 0.0]]), "symmetric"),
        (small + np.array([[0.0, 0.0], [8e-13, 0.0]]), "symmetric"),
    ):
        with pytest.raises(InvalidArgumentError, match=match):
            _with_matrix(kind, bad)
    _with_matrix(kind, A + np.array([[0.0, 0.0], [1e-6, 0.0]]))
    _with_matrix(kind, small + np.array([[0.0, 0.0], [2e-13, 0.0]]))


def test_coupling_validation():
    with pytest.raises(InvalidArgumentError):
        Coupling(lam=1.0, nu_star=1.0)
    with pytest.raises(InvalidArgumentError):
        Coupling()
    with pytest.raises(InvalidArgumentError):
        Coupling(lam=-2.0)
    with pytest.raises(InvalidArgumentError):
        CouplingSpec(("not a coupling",))


def test_solve_single_sphere(constants, flat, sphere24):
    result = solve_ground_state([sphere24], CouplingSpec.from_nu_stars(1.0), flat, constants)
    assert result.converged
    assert result.nu_star == pytest.approx(1.0, abs=1e-9)
    assert result.energy == pytest.approx(-1.0, abs=2e-9)
    assert result.weights.shape == (1,)
    assert result.weights[0] == pytest.approx(1.0)
    assert result.residual < 1e-10


def test_solve_identical_pair_symmetric(constants, flat, sphere16):
    other = build_surface(Sphere((4.0, 0.0, 0.0), 1.0), order=16)
    result = solve_ground_state(
        [sphere16, other], CouplingSpec.from_nu_stars(1.0, 1.0), flat, constants
    )
    assert result.converged
    # attraction deepens the level below the standalone -1
    assert result.energy < -1.0
    assert result.weights[0] == pytest.approx(result.weights[1], rel=1e-10)
    assert np.all(result.weights > 0.0)
    assert float(np.linalg.norm(result.weights)) == pytest.approx(1.0, rel=1e-12)


def test_solve_no_bound_state(constants, flat, sphere16):
    with pytest.raises(NoBoundStateError):
        solve_ground_state([sphere16], CouplingSpec.from_lambdas(0.9), flat, constants)


def test_a_level_past_the_ceiling_is_no_convergence(constants, flat):
    # omega_min(floor) <= 0 and the diagonal tends to 1/lambda > 0, so a
    # zero exists; at lambda = 1e300 it lies past _NU_CEIL, where P is 5e-5.
    # On a sphere of radius 1e-3 the ceiling is s nu = 10, inside the
    # self-integral's range, so the search reaches it.
    sphere8 = build_surface(Sphere((0.0, 0.0, 0.0), 1e-3), order=8)
    with pytest.raises(NoConvergenceError, match="no zero of omega_min"):
        solve_ground_state([sphere8], CouplingSpec.from_lambdas(1e300), flat, constants)
    with pytest.raises(NoConvergenceError):
        energy_from_coupling(sphere8, flat, constants, 1e300)


def test_a_crossing_left_at_a_jump_is_not_converged(constants):
    # converged means |omega_min| < 1e-10 at the returned root.  A 1 x 1
    # phi with a nu* coupling whose omega_min jumps from -1e-8 to +1e-8 at
    # nu = 1 collapses the bracket on the jump, with a residual of 1e-8 there.
    def phi(nu):
        return PrincipalMatrix(nu, np.array([[-1e-8 if nu < 1.0 else 1e-8]]), np.array([[1e-8]]))

    result = principal._ground_state(phi, (None,), CouplingSpec.from_nu_stars(0.5), constants)
    assert result.nu_star == pytest.approx(1.0, abs=1e-12)
    assert 1e-10 < result.residual < 1e-6
    assert not result.converged


@pytest.mark.parametrize(
    "lam, nu_star",
    [
        (math.inf, None),
        (1e-320, None),  # 1/lambda overflows
        (None, math.inf),
        (None, 1e-200),  # the energy -nu*^2 underflows to -0.0
        (None, 1e200),  # and here overflows
    ],
)
def test_coupling_rejects_values_no_solve_can_use(lam, nu_star):
    with pytest.raises(InvalidArgumentError):
        Coupling(lam=lam, nu_star=nu_star)
    # the edges of the normal range stay usable
    Coupling(lam=1e300)
    Coupling(nu_star=1e-150)


def test_lowest_eigenvalue_flow_monotone(constants, flat, sphere16):
    grid = np.linspace(0.3, 2.5, 12)
    flow = lowest_eigenvalue_flow(
        [sphere16], CouplingSpec.from_nu_stars(1.0), flat, constants, grid
    )
    omegas = [om for _, om in flow]
    assert all(b >= a for a, b in zip(omegas, omegas[1:]))
    # omega crosses zero at nu*
    assert omegas[0] < 0.0 < omegas[-1]
    with pytest.raises(InvalidArgumentError):
        lowest_eigenvalue_flow(
            [sphere16], CouplingSpec.from_nu_stars(1.0), flat, constants, [1.0, 0.5]
        )


def test_surface_potential_matches_oracle(constants, flat, sphere16):
    nu, s = 1.0, 2.0
    exact = sphere_point_potential_exact(SphereOracleInput(R=1.0, nu=nu, s=s))
    got = surface_potential(sphere16, flat, constants, nu, flat_point(0.0, 0.0, 2.0))
    assert got == pytest.approx(exact, rel=1e-9)


def test_surface_potential_on_node_diverges(constants, flat, sphere16):
    # with no numpy warning: pytest turns warnings into errors
    node = sphere16.nodes[0]
    got = surface_potential(
        sphere16, flat, constants, 1.0, flat_point(node[0], node[1], node[2])
    )
    assert got == math.inf


@pytest.mark.parametrize("nu", [0.0, -1.0])
def test_surface_potential_needs_positive_nu(constants, flat, sphere16, nu):
    # as pair_integral does: at nu < 0 the kernel would grow with distance
    with pytest.raises(InvalidArgumentError, match="nu > 0"):
        surface_potential(sphere16, flat, constants, nu, flat_point(5.0, 0.0, 0.0))


def test_surface_potential_needs_a_flat_point(constants, flat, hyp, sphere16):
    with pytest.raises(InvalidArgumentError, match="flat-space point"):
        surface_potential(sphere16, flat, constants, 1.0, hyperbolic_point(hyp, 5.0, 0.0, 0.0))


def test_wavefunction_center_value(constants, flat, sphere24):
    # every surface point is at distance R, so psi(center) = sqrt(V) G(R) / V * V
    result = solve_ground_state([sphere24], CouplingSpec.from_nu_stars(1.0), flat, constants)
    psi = wavefunction(result, [sphere24], flat, constants, flat_point(0.0, 0.0, 0.0))
    assert psi * math.sqrt(4.0 * math.pi) == pytest.approx(math.exp(-1.0), rel=1e-9)


def test_wavefunction_requires_convergence(constants, flat, sphere16):
    bad = BoundStateResult(
        energy=-1.0, nu_star=1.0, weights=np.array([1.0]),
        converged=False, iterations=3, residual=1.0,
    )
    with pytest.raises(InvalidStateError):
        wavefunction(bad, [sphere16], flat, constants, flat_point(0, 0, 0))
    good = BoundStateResult(
        energy=-1.0, nu_star=1.0, weights=np.array([1.0, 1.0]),
        converged=True, iterations=3, residual=0.0,
    )
    with pytest.raises(InvalidArgumentError):
        wavefunction(good, [sphere16], flat, constants, flat_point(0, 0, 0))


def test_monotone_root_cube_root():
    # 1 - 2 / x^3 is concave and increasing on x > 0, with its root at the
    # cube root of 2: Newton from the left rises to it without passing it
    points = []

    def f(x):
        points.append(x)
        return 1.0 - 2.0 / x**3, 6.0 / x**4

    root, evals = _monotone_root(
        f, 0.5, f(0.5), 1e4, NoConvergenceError("unused"), 1e-15
    )
    assert abs(root - 2.0 ** (1.0 / 3.0)) < 1e-14
    assert evals == len(points) < 15
    assert points == sorted(points)
    assert all(1.0 - 2.0 / x**3 <= 0.0 for x in points)


def test_monotone_root_stops_when_the_bracket_collapses():
    # a jump at 0: f(0) = -1e-4 with slope 1, f = +1 with slope 1e-6 right
    # of it.  Each Newton step from the right leaves the bracket, so the
    # search bisects until half the bracket is within tol and stops there
    points = []

    def f(x):
        points.append(x)
        return 1.0, 1e-6

    root, evals = _monotone_root(f, 0.0, (-1e-4, 1.0), 1.0, NoConvergenceError("unused"), 1e-5)
    assert points == [1e-4, 5e-5, 2.5e-5, 1.25e-5, 6.25e-6]
    assert (root, evals) == (6.25e-6, 6)


def test_monotone_root_converges_from_the_right_on_a_convex_f():
    # x^3 - 2 is convex: the first Newton step from the left lands past the
    # root, and the steps from there fall to it inside the bracket
    points = []

    def f(x):
        points.append(x)
        return x**3 - 2.0, 3.0 * x * x

    root, evals = _monotone_root(f, 0.5, f(0.5), 1e4, NoConvergenceError("unused"), 1e-12)
    assert abs(root - 2.0 ** (1.0 / 3.0)) < 1e-12
    assert evals == len(points) < 15
    # every step but the last, which rounding may put either side, is above
    assert all(x**3 > 2.0 for x in points[1:-1])
    assert points[1:] == sorted(points[1:], reverse=True)


def test_monotone_root_bisects_when_a_step_leaves_the_bracket():
    # tanh(5 (x - 3)) is flat far from its root, so steps from either end
    # leave the bracket [0, 10] and the search bisects it
    points = []

    def f(x):
        points.append(x)
        return math.tanh(5.0 * (x - 3.0)), 5.0 / math.cosh(5.0 * (x - 3.0)) ** 2

    root, evals = _monotone_root(f, 0.0, f(0.0), 10.0, NoConvergenceError("unused"), 1e-12)
    assert abs(root - 3.0) <= 1e-12 * (1.0 + 3.0)
    assert points[:4] == [0.0, 10.0, 5.0, 2.5]
    assert evals == len(points) < 40


def test_monotone_root_raises_callers_error_past_ceiling():
    calls = []

    def never_positive(x):
        calls.append(x)
        return -1.0, 1e-6

    error = NoBoundStateError("no crossing below the ceiling")
    with pytest.raises(NoBoundStateError) as info:
        _monotone_root(never_positive, 1e-8, never_positive(1e-8), 1e4, error, 1e-12)
    assert info.value is error
    # The first step would pass the ceiling, so the ceiling is evaluated.
    assert calls == [1e-8, 1e4]


@pytest.mark.parametrize("bad", [math.nan, 0.0, -1.0])
def test_monotone_root_without_a_rising_slope_tries_the_ceiling(bad):
    # a zero, negative or NaN slope cannot step: the ceiling bounds the bracket
    calls = []

    def f(x):
        calls.append(x)
        return (x - 3.0, bad) if x < 3.0 else (x - 3.0, 1.0)

    root, _ = _monotone_root(f, 1.0, f(1.0), 10.0, NoBoundStateError("unused"), 1e-12)
    assert calls[:2] == [1.0, 10.0]
    # bisection stops at half-width (tol + tol |x|) / 2, within one of it
    assert abs(root - 3.0) <= 1e-12 * (1.0 + 3.0)


def test_monotone_root_raises_callers_error_on_nan():
    error = NoConvergenceError("nan")
    with pytest.raises(NoConvergenceError) as info:
        _monotone_root(lambda x: (math.nan, 1.0), 1.0, (-1.0, 1.0), 10.0, error, 1e-12)
    assert info.value is error


def _monotone_family(rng: random.Random, kind: int):
    """(f, lo, hi): an increasing f(x) = (value, exact slope) and a bracket
    of its root.  Powers below one and the logarithm are concave, powers
    above one and the exponential convex, tanh and the cubic S-shaped."""
    if kind == 0:
        p, a = rng.choice([0.5, 1.0, 2.0, 3.0, 5.0]), rng.uniform(0.1, 50.0)
        root = a ** (1.0 / p)
        f = lambda x: (x**p - a, p * x ** (p - 1.0))
        return f, root * rng.uniform(0.0, 0.9), root * rng.uniform(1.1, 20.0)
    if kind == 1:
        c, s = rng.uniform(-3.0, 3.0), rng.uniform(0.1, 10.0)
        f = lambda x: (math.tanh(s * (x - c)), s / math.cosh(s * (x - c)) ** 2)
        return f, c - rng.uniform(0.1, 5.0), c + rng.uniform(0.1, 5.0)
    if kind == 2:
        a = rng.uniform(0.01, 20.0)
        f = lambda x: (math.exp(x) - 1.0 - a, math.exp(x))
        return f, 0.0, math.log1p(a) + rng.uniform(0.1, 4.0)
    if kind == 3:
        a = rng.uniform(0.01, 100.0)
        f = lambda x: (math.log(x) - math.log(a), 1.0 / x)
        return f, a * rng.uniform(0.01, 0.9), a * rng.uniform(1.1, 30.0)
    # near-flat cubic: the slope dips to e at the root, so steps from either
    # side overshoot; scaled by 1e-160, values and slopes sit far below one
    c, e = rng.uniform(-2.0, 2.0), rng.uniform(1e-6, 1e-1)
    scale = 1.0 if kind == 4 else 1e-160
    f = lambda x: (scale * ((x - c) ** 3 + e * (x - c)), scale * (3.0 * (x - c) ** 2 + e))
    return f, c - rng.uniform(0.1, 3.0), c + rng.uniform(0.1, 3.0)


def _recorded(f, points):
    def g(x):
        points.append(x)
        return f(x)

    return g


@pytest.mark.parametrize("tol", [1e-16, 1e-13, 0.5e-12, 1e-10])
def test_monotone_root_matches_scipy_brentq(tol):
    from scipy.optimize import brentq

    eps4 = 4.0 * np.finfo(float).eps
    rtol = max(tol, eps4)
    for seed in range(60):
        for kind in range(6):
            f, lo, hi = _monotone_family(random.Random(f"{seed}|{kind}"), kind)
            ref = brentq(lambda x: f(x)[0], lo, hi, xtol=1e-300, rtol=eps4)
            points = []
            root, evals = _monotone_root(_recorded(f, points), lo, f(lo), hi, RuntimeError(), tol)
            assert abs(root - ref) <= tol + rtol * abs(ref), (seed, kind)
            assert evals == len(points) + 1 <= 100, (seed, kind)


def test_monotone_root_raises_callers_error_at_iteration_cap():
    # A step at 1e-250 with tol 1e-300 needs far more than 100 halvings;
    # its zero slope gives no Newton step, so the search bisects.
    step = lambda x: (-1.0 if x < 1e-250 else 1.0, 0.0)
    points = []
    error = NoConvergenceError("no convergence in 100 evaluations")
    with pytest.raises(NoConvergenceError) as info:
        _monotone_root(_recorded(step, points), -1.0, step(-1.0), 1.0, error, 1e-300)
    assert info.value is error
    assert points[:4] == [1.0, 0.0, 0.5, 0.25]
    assert len(points) == 100


def test_lone_nu_star_channel_returns_nu_star_exactly(constants, flat, sphere16):
    result = solve_ground_state([sphere16], CouplingSpec.from_nu_stars(0.7), flat, constants)
    assert result.nu_star == 0.7
    assert result.energy == -0.7 * 0.7
    # omega(nu*) is exactly zero at the first evaluation, where the search
    # stops.
    assert result.iterations == 1


def test_two_spheres_solve_takes_few_evaluations(config_dir):
    cfg = load_config(str(config_dir / "two_spheres.json"))
    result = solve_ground_state(cfg.surfaces, cfg.couplings, cfg.space, cfg.constants)
    assert result.converged
    # Newton's method from the left converges quadratically; bisection to
    # this tolerance needs about 40 evaluations.
    assert result.iterations <= 5


# Slopes: every dPhi/dnu the Newton search uses against central differences
# of its value.


def _central(f, x, h):
    return (f(x + h) - f(x - h)) / (2.0 * h)


@pytest.mark.parametrize(
    "shape",
    [
        Sphere((0.0, 0.0, 0.0), 1.0),
        Sphere((0.5, 0.0, 0.0), 1.3),  # scale 1.3: s^2 times its form's slope at s nu
        Torus((0.0, 0.0, 0.0), 2.0, 0.5),
        Ellipsoid((0.0, 0.0, 0.0), 1.2, 1.0, 0.8),
    ],
    ids=["sphere", "sphere-r1.3", "torus", "ellipsoid"],
)
def test_self_integral_slope_matches_central_difference(constants, flat, shape):
    mesh = build_surface(shape, order=16)
    for nu in (0.3, 1.0, 2.5):
        _, slope = principal.quad.double_sum(mesh, mesh, flat, constants, nu, 1)
        fd = _central(lambda x: pair_integral(mesh, mesh, flat, constants, x), nu, 1e-5 * nu)
        assert slope < 0.0
        assert slope == pytest.approx(fd, rel=1e-6)


@pytest.mark.parametrize(
    "other",
    [Sphere((2.5, 1.0, 0.0), 0.8), Torus((4.0, 0.0, 0.0), 1.5, 0.4)],
    ids=["ring-sphere-pair", "mirror-sphere-torus"],
)
def test_pair_integral_slope_matches_central_difference(constants, flat, sphere16, other):
    mesh = build_surface(other, order=16)
    for nu in (0.3, 1.0, 2.5):
        value, slope = principal.quad.double_sum(sphere16, mesh, flat, constants, nu, 1)
        assert value == pair_integral(sphere16, mesh, flat, constants, nu)
        fd = _central(lambda x: pair_integral(sphere16, mesh, flat, constants, x), nu, 1e-5 * nu)
        assert slope == pytest.approx(fd, rel=1e-6)


def test_assemble_phi_slope_matches_central_difference(constants, flat, sphere16):
    other = build_surface(Sphere((3.0, 0.0, 0.0), 0.9), order=16)
    spec = CouplingSpec((Coupling(nu_star=0.8), Coupling(lam=2.0)))
    nu, h = 1.1, 1e-5
    slope = assemble_phi((sphere16, other), spec, flat, constants, nu).slope
    fd = _central(lambda x: assemble_phi((sphere16, other), spec, flat, constants, x).entries, nu, h)
    assert np.allclose(slope, fd, rtol=1e-6, atol=0.0)


# The Newton search on the cases of ROADMAP item 10.  Pairs: (order,
# centres, nu* couplings, the root Brent's method found before, at most this
# many evaluations).  The roots agree within the search tolerance, 0.5e-12
# for ground states and 1e-13 for energy_from_coupling, relative above 1.
def _spheres(order, *centers):
    return [build_surface(Sphere(c, 1.0), order=order) for c in centers]


NEWTON_PAIRS = {
    "two_spheres D=4 n24": (24, ((0, 0, 0), (4, 0, 0)), (1.0, 1.0), 1.020116205750101, 4),
    "touching D=2 n16": (16, ((0, 0, 0), (2, 0, 0)), (1.0, 1.0), 1.2582084376795108, 5),
    "D=2.1 n24": (24, ((0, 0, 0), (2.1, 0, 0)), (1.0, 0.7), 1.1188719075140103, 5),
    "three collinear n16": (
        16, ((0, 0, 0), (4, 0, 0), (8, 0, 0)), (1.0, 1.0, 1.0), 1.0279106484655107, 5
    ),
}
# lambda solves on the order-24 unit sphere and on the order-24 (2, 0.5)
# torus of warm_solves: (mesh fixture, lambda / lambda_c, the Brent root,
# exactly this many evaluations of Newton on -ln(lambda P), the first at
# the Gauss level; nothing reads the floor nu = 0).  The torus roots are
# brentq's on P(nu) - 1 / lambda (xtol 1e-15, rtol 4 eps).
NEWTON_LAMBDAS = {
    "1.05": ("sphere24", 1.05, 0.04919347462936398, 1),
    "2.0": ("sphere24", 2.0, 0.7968121434372101, 1),
    "10.0": ("sphere24", 10.0, 4.99977294733397, 3),
    "40.0": ("sphere24", 40.0, 20.00000020037925, 4),
    "torus 1.05": ("torus24", 1.05, 0.02694060690503696, 1),
    "torus 2.0": ("torus24", 2.0, 0.4635572298363555, 1),
    "torus 10.0": ("torus24", 10.0, 3.0837509104786234, 3),
    "torus 40.0": ("torus24", 40.0, 11.717794702731924, 5),
}
# lambda-form systems: (order, centres, couplings, the root before the
# search started at the Gauss level, exactly this many evaluations of
# omega_min, the first at the highest Gauss level).
NEWTON_LAMBDA_SYSTEMS = {
    "three n16 lambda 2.5": (
        16, ((0, 0, 0), (4, 0, 0), (0, 4, 0)), (2.5, 2.5, 2.5), 1.138392854733482, 4
    ),
    "three n24 lambda 10": (
        24, ((0, 0, 0), (4, 0, 0), (0, 4, 0)), (10.0, 10.0, 10.0), 4.999780930163439, 3
    ),
    "D=4 n16 lambda (2, 2.5)": (16, ((0, 0, 0), (4, 0, 0)), (2.0, 2.5), 1.1165047699304789, 3),
}


@pytest.mark.parametrize("case", NEWTON_PAIRS)
def test_newton_pair_solves_match_brent_roots(constants, flat, monkeypatch, case):
    order, centers, stars, brent_root, max_evals = NEWTON_PAIRS[case]
    meshes = _spheres(order, *centers)
    spec = CouplingSpec.from_nu_stars(*stars)
    omegas = []
    inner = principal.assemble_phi

    def recorded(*args):
        pm = inner(*args)
        omegas.append((pm.omega_min(), float(np.max(np.abs(pm.entries)))))
        return pm

    monkeypatch.setattr(principal, "assemble_phi", recorded)
    first = solve_ground_state(meshes, spec, flat, constants)
    again = solve_ground_state(meshes, spec, flat, constants)
    assert (again.nu_star, again.iterations) == (first.nu_star, first.iterations)
    assert first.iterations == len(omegas) // 2 <= max_evals
    assert abs(first.nu_star - brent_root) <= 0.5e-12 * max(1.0, brent_root)
    # a concave crossing is approached from below: no evaluation has f > 0
    # beyond the rounding of omega_min, a few ulp of max|Phi| (the D = 2.1
    # pair's last iterate reads +3.5e-18 = 0.11 eps max|Phi|)
    assert all(omega <= 4.0 * math.ulp(1.0) * size for omega, size in omegas)
    assert first.converged


@pytest.mark.parametrize("case", NEWTON_LAMBDAS)
def test_newton_lambda_solves_match_brent_roots(constants, flat, request, monkeypatch, case):
    fixture, ratio, brent_root, n_evals = NEWTON_LAMBDAS[case]
    mesh = request.getfixturevalue(fixture)
    lam = ratio * (1.0 / pair_integral(mesh, mesh, flat, constants, 1e-8))
    values, samples = [], []
    inner = principal.quad.double_sum
    kernel_calls = _counting(monkeypatch, "static_kernel_array", quad)

    def recorded(*args):
        before = len(kernel_calls)
        out = inner(*args)
        values.append(1.0 / lam - out[0])
        samples.append(sum(call[3].size for call in kernel_calls[before:]))
        return out

    monkeypatch.setattr(principal.quad, "double_sum", recorded)
    nu = energy_from_coupling(mesh, flat, constants, lam)
    assert len(values) == n_evals
    assert energy_from_coupling(mesh, flat, constants, lam) == nu
    assert len(values) == 2 * n_evals
    assert abs(nu - brent_root) <= 1e-13 * max(1.0, brent_root)
    # every evaluation is one kernel pass over the self-integral geometry
    per_solve = [quad._diag_geometry(mesh)[0].size] * n_evals
    assert samples == 2 * per_solve
    # every iterate but a solve's last stays below the root; the last may
    # land within an ulp of 1/lambda of it, where the sign is rounding
    for solve in (values[:n_evals], values[n_evals:]):
        assert all(value <= 0.0 for value in solve[:-1])
        assert solve[-1] <= 2 * math.ulp(1.0 / lam)


# Kernel passes over warm_solves-like lambda sets: 60 couplings drawn by
# random.Random(11) from each range, with its exact number of
# weighted_kernel_sum calls, one per evaluation, as every coupling binds
# and its search starts at its Gauss level.  The counts
# follow the start rule's length: 118 / 81 / 60 on the sphere and 132 /
# 103 / 68 on the torus at 3 / 4 / 5 Gauss points (_RULE_NODES).
WARM_LAMBDA_PASSES = {
    "sphere": ("sphere24", (1.5, 3.0), 60),
    "torus": ("torus24", (0.9, 1.8), 68),
}


@pytest.mark.parametrize("case", WARM_LAMBDA_PASSES)
def test_warm_lambda_solves_make_their_counted_kernel_passes(
    constants, flat, request, monkeypatch, case
):
    fixture, (lo, hi), passes = WARM_LAMBDA_PASSES[case]
    mesh = request.getfixturevalue(fixture)
    rng = random.Random(11)
    lams = [rng.uniform(lo, hi) for _ in range(60)]
    calls = _counting(monkeypatch, "weighted_kernel_sum", quad)
    for lam in lams:
        assert energy_from_coupling(mesh, flat, constants, lam) > 0.0
    assert len(calls) == passes


def test_lambda_solve_starts_at_the_gauss_level_when_lambda_p_overflows(
    constants, flat, monkeypatch
):
    # On a radius-100 sphere lambda P at the floor overflows to inf, so
    # g(0) = -inf and the Newton step from nu = 0 would go to the ceiling.
    # The Gauss level, read without overflow, is the first evaluation, and
    # as the root lies far past the self-integral's range, so does the
    # level: the solve is refused there.
    mesh = build_surface(Sphere((0.0, 0.0, 0.0), 100.0), order=8)
    lam = 1e308
    seen = []
    inner = principal.quad.double_sum

    def recorded(*args):
        seen.append(args[4])
        return inner(*args)

    monkeypatch.setattr(principal.quad, "double_sum", recorded)
    with pytest.raises(UnsupportedRegimeError, match="range"):
        energy_from_coupling(mesh, flat, constants, lam)
    assert lam * inner(mesh, mesh, flat, constants, 0.0, 0)[0] == math.inf
    assert seen == [principal._gauss_level(mesh, constants, lam)]
    assert mesh.scale * seen[0] > quad._SELF_NU_CEIL


def test_coupling_from_energy_refuses_an_underflowed_p(constants, flat):
    # on the same sphere the patch rule's P(1e4) underflowed to 0; at s nu*
    # = 1e6, far past the self-integral's range, no P is summed at all
    mesh = build_surface(Sphere((0.0, 0.0, 0.0), 100.0), order=8)
    with pytest.raises(UnsupportedRegimeError, match="range"):
        coupling_from_energy(mesh, flat, constants, 1e4)


# The self-integral's range (ROADMAP item 22): the patch rule's error
# depends on s nu alone and grows fast past s nu = 30 (4.9e-10 there,
# 2.8e-6 at 50), so every sum past _SELF_NU_CEIL raises, and a solve whose
# root lies past it is refused, where it used to return a wrong root.
@pytest.mark.parametrize("fixture", ["sphere24", "torus24"])
def test_a_root_past_the_self_integral_range_is_refused(constants, flat, request, fixture):
    mesh = request.getfixturevalue(fixture)
    top = quad._SELF_NU_CEIL / mesh.scale
    assert quad.double_sum(mesh, mesh, flat, constants, top, 2)[0] > 0.0
    with pytest.raises(UnsupportedRegimeError, match="range"):
        quad.double_sum(mesh, mesh, flat, constants, math.nextafter(top, math.inf), 0)
    # at 100 lambda_c the root lies at s nu = 50 on the sphere, where the
    # patch rule errs by 2.8e-6, and at 58.4 on the torus
    lam = 100.0 / quad.double_sum(mesh, mesh, flat, constants, 0.0, 0)[0]
    with pytest.raises(UnsupportedRegimeError, match="range"):
        energy_from_coupling(mesh, flat, constants, lam)
    with pytest.raises(UnsupportedRegimeError, match="range"):
        solve_ground_state([mesh], CouplingSpec.from_lambdas(lam), flat, constants)


# The threshold: a lone surface binds iff lambda P(0) > 1.  At lambda =
# 1 / P(0) a root would sit at nu = 0, where variational's L = -P'/(2 nu)
# divides by nu.  On the order-24 sphere 1/lambda equals P(0); on the
# order-16 one it rounds 1.1e-16 below it, so omega_min(0) < 0 and the
# search stops at nu = 0 itself.  One ulp more lambda still has its root
# within the stop width of 0.
@pytest.mark.parametrize("ulps", [0, 1])
@pytest.mark.parametrize("fixture", ["sphere16", "sphere24"])
def test_threshold_coupling_binds_nothing(constants, flat, request, fixture, ulps):
    mesh = request.getfixturevalue(fixture)
    lam = 1.0 / quad.double_sum(mesh, mesh, flat, constants, 0.0, 0)[0]
    for _ in range(ulps):
        lam = math.nextafter(lam, math.inf)
    assert energy_from_coupling(mesh, flat, constants, lam) is None
    with pytest.raises(NoBoundStateError):
        solve_ground_state([mesh], CouplingSpec.from_lambdas(lam), flat, constants)


def test_a_zero_within_the_stop_width_of_zero_is_the_threshold(constants, flat, sphere24):
    # At (1 + 1e-13) lambda_c the Gauss level lifts off nu = 0 and the root
    # is 1e-13: past the coupling search's own stop width at 0, 0.5e-13,
    # but within the ground-state search's, 0.25e-12 (_THRESHOLD_WIDTH).
    # Both read it as the threshold, so bounds' nu*-form spec and a
    # lambda-form solve agree that the channel does not bind.
    lam = (1.0 + 1e-13) / quad.double_sum(sphere24, sphere24, flat, constants, 0.0, 0)[0]
    assert principal._gauss_level(sphere24, constants, lam) > 0.0
    assert 0.5e-13 < _bisected_root(sphere24, flat, constants, lam) < principal._THRESHOLD_WIDTH
    assert energy_from_coupling(sphere24, flat, constants, lam) is None
    with pytest.raises(NoBoundStateError, match="threshold"):
        solve_ground_state([sphere24], CouplingSpec.from_lambdas(lam), flat, constants)


# Just past the threshold: on the order-24 unit sphere lambda_c = 1 / P(0)
# is about 1 + 1.9e-11, and at (1 + eps) lambda_c the root is about eps.
# At eps = 1e-11 and 1e-10 it lies past _THRESHOLD_WIDTH, so the search
# returns it (9.998e-12 and 9.9998e-11), within its stop width of a
# bisection on the same P, where a width of 0.25e-9 would return None; at
# 1e-13 it lies within the width, and the search returns None.
@pytest.mark.parametrize("eps, binds", [(1e-13, False), (1e-11, True), (1e-10, True)])
def test_a_root_just_past_the_threshold_width_binds(constants, flat, sphere24, eps, binds):
    lam = (1.0 + eps) / quad.double_sum(sphere24, sphere24, flat, constants, 0.0, 0)[0]
    nu = energy_from_coupling(sphere24, flat, constants, lam)
    if not binds:
        assert nu is None
        return
    assert nu == pytest.approx(eps, rel=1e-3)
    assert abs(nu - _bisected_root(sphere24, flat, constants, lam)) <= 1e-13


@pytest.mark.parametrize("lam", [math.inf, 5e-324, math.nan])
def test_energy_from_coupling_refuses_what_coupling_refuses(constants, flat, sphere16, lam):
    with pytest.raises(InvalidArgumentError, match="positive normal float"):
        Coupling(lam=lam)
    with pytest.raises(InvalidArgumentError, match="positive normal float"):
        energy_from_coupling(sphere16, flat, constants, lam)


def test_lambda_ground_state_makes_no_kernel_pass_at_nu_zero(constants, flat, monkeypatch):
    kernel = _counting(monkeypatch, "static_kernel_array", quad)
    passes = []
    inner = principal.assemble_phi

    def recorded(*args):
        before = len(kernel)
        pm = inner(*args)
        passes.append((pm.nu, len(kernel) - before))
        return pm

    monkeypatch.setattr(principal, "assemble_phi", recorded)
    # two subcritical spheres that bind only together: no Gauss level lifts
    # off the floor, so the search starts at nu = 0, which makes no pass
    meshes = _spheres(16, (0, 0, 0), (2.1, 0, 0))
    result = solve_ground_state(meshes, CouplingSpec.from_lambdas(0.9, 0.9), flat, constants)
    assert result.converged and len(passes) == result.iterations
    assert passes[0] == (0.0, 0)
    assert all(nu > 0.0 and calls > 0 for nu, calls in passes[1:])
    # where a channel binds alone, its Gauss level starts the search and
    # the floor is never evaluated
    passes.clear()
    meshes = _spheres(16, (0, 0, 0), (4, 0, 0))
    result = solve_ground_state(meshes, CouplingSpec.from_lambdas(2.0, 2.5), flat, constants)
    assert result.converged and len(passes) == result.iterations
    assert passes[0][0] == principal._gauss_level(meshes[1], constants, 2.5)
    assert all(nu > 0.0 and calls > 0 for nu, calls in passes)


# energy_from_coupling's early stop needs |g''| = (ln P)'' <= kappa_f^2
# D^2 / 4: (ln P)'' is kappa_f^2 times the variance of d under the
# positive weights w G(d), and every distance of the rule lies in [0, D].
# A second difference is (ln P)'' at some point of its stencil.
CURVATURE_SHAPES = {
    "sphere": Sphere((0.0, 0.0, 0.0), 1.0),
    "torus": Torus((0.0, 0.0, 0.0), 2.0, 0.5),
    "ellipsoid": Ellipsoid((0.0, 0.0, 0.0), 1.0, 1.3, 1.7),
}


@pytest.mark.parametrize("name", CURVATURE_SHAPES)
def test_log_p_curvature_stays_within_the_popoviciu_bound(constants, flat, name):
    mesh = build_surface(CURVATURE_SHAPES[name], order=16)
    bound = (constants.kappa_factor * mesh.diameter_ambient) ** 2 / 4
    # the top of the grid, nu + h, stays inside the self-integral's range
    for nu in np.geomspace(0.01, 0.75 * quad._SELF_NU_CEIL / mesh.scale, 25):
        h = nu / 4
        ln = [math.log(pair_integral(mesh, mesh, flat, constants, x)) for x in (nu - h, nu, nu + h)]
        assert 0.0 <= (ln[0] - 2.0 * ln[1] + ln[2]) / (h * h) <= bound


def _bisected_root(mesh, flat, constants, lam):
    """The nu with lambda P(nu) = 1 by bisection on P over the
    self-integral's range [0, _SELF_NU_CEIL / s], halved until no float
    lies between the ends."""
    lo, hi = 0.0, quad._SELF_NU_CEIL / mesh.scale
    while lo < (mid := lo + (hi - lo) / 2) < hi:
        if lam * quad.double_sum(mesh, mesh, flat, constants, mid, 0)[0] > 1.0:
            lo = mid
        else:
            hi = mid
    return lo


@pytest.mark.parametrize("ratio", [1.001, 2.0, 50.0])
def test_ellipsoid_lambda_roots_match_bisection(constants, flat, ratio):
    mesh = build_surface(CURVATURE_SHAPES["ellipsoid"], order=16)
    lam = ratio / quad.double_sum(mesh, mesh, flat, constants, 0.0, 0)[0]
    nu = energy_from_coupling(mesh, flat, constants, lam)
    want = _bisected_root(mesh, flat, constants, lam)
    # the search's own tolerance, relative above 1 and absolute below: at
    # 1.001 the root is 7.6e-4 and the two differ by 3.7e-15
    assert abs(nu - want) <= 1e-13 * max(1.0, want)


@pytest.mark.parametrize("case", NEWTON_LAMBDA_SYSTEMS)
def test_newton_lambda_systems_start_at_the_gauss_level(constants, flat, monkeypatch, case):
    order, centers, lams, before, n_evals = NEWTON_LAMBDA_SYSTEMS[case]
    meshes = _spheres(order, *centers)
    seen = []
    inner = principal.assemble_phi

    def recorded(*args):
        pm = inner(*args)
        seen.append((pm.nu, pm.omega_min()))
        return pm

    monkeypatch.setattr(principal, "assemble_phi", recorded)
    result = solve_ground_state(meshes, CouplingSpec.from_lambdas(*lams), flat, constants)
    assert result.iterations == len(seen) == n_evals
    levels = [principal._gauss_level(m, constants, lam) for m, lam in zip(meshes, lams)]
    assert seen[0][0] == max(levels) > 0.0
    assert abs(result.nu_star - before) <= 0.5e-12 * (1.0 + before)
    # every evaluation but the last stays below the zero
    assert max(omega for _, omega in seen[:-1]) <= 0.0
    assert result.converged


# The Gauss level against the root: lambda P(nu_G) >= 1 holds for the rule
# in exact arithmetic, and the level's rounding margin keeps it below the
# float root of the computed P next to the threshold, where the rule's
# error is below rounding (there it lies 2e-9 below, relative).
@pytest.mark.parametrize("ratio", [1.0 + 1e-6, 1.05, 2.0, 10.0, 40.0])
@pytest.mark.parametrize("name", CURVATURE_SHAPES)
def test_gauss_level_is_at_most_the_bisected_root(constants, flat, name, ratio):
    mesh = build_surface(CURVATURE_SHAPES[name], order=16)
    lam = ratio / quad.double_sum(mesh, mesh, flat, constants, 0.0, 0)[0]
    level = principal._gauss_level(mesh, constants, lam)
    assert 0.0 < level <= _bisected_root(mesh, flat, constants, lam)


# The same against the returned root at order 24, from next to the
# threshold, where the five-point rule equals P to rounding and the level
# can equal the root bit for bit, up to 40 lambda_c.  Where the search reads
# the threshold, the level lies within its width.
LEVEL_RATIOS = [1.0 + eps for eps in (1e-13, 1e-12, 1e-11, 1e-10, 1e-8, 1e-6, 1e-4, 1e-2)]
LEVEL_RATIOS += [1.05, 1.5, 2.0, 5.0, 10.0, 20.0, 40.0]


@pytest.mark.parametrize("name", CURVATURE_SHAPES)
def test_gauss_level_is_at_most_the_returned_root(constants, flat, name):
    mesh = build_surface(CURVATURE_SHAPES[name], order=24)
    p0 = quad.double_sum(mesh, mesh, flat, constants, 0.0, 0)[0]
    for ratio in LEVEL_RATIOS:
        lam = ratio / p0
        level = principal._gauss_level(mesh, constants, lam)
        nu = energy_from_coupling(mesh, flat, constants, lam)
        if nu is None:
            assert level <= principal._THRESHOLD_WIDTH, ratio
        else:
            assert 0.0 < level <= nu, ratio


def _inflate_the_rule(monkeypatch, ulps):
    """Scale the form rule's weights up by ulps units of roundoff, which
    moves each Gauss level up by about ulps eps / (kappa_f <d>)."""
    inner = quad._rule

    def inflated(a, b):
        nodes, weights = inner(a, b)
        if a is not b:  # a pair's or a point's rule
            return nodes, weights
        return nodes, tuple(w * (1.0 + ulps * math.ulp(1.0)) for w in weights)

    monkeypatch.setattr(quad, "_rule", inflated)


# The rounding guard: a level that rounding puts past the root is an
# evaluated point with f > 0, never a left point.  Next to the threshold
# the rule is exact to rounding, so 64 ulps more weight, past the level's
# margin, puts it there.
@pytest.mark.parametrize("fixture", ["sphere24", "torus24"])
def test_a_level_past_the_root_brackets_it(constants, flat, request, monkeypatch, fixture):
    mesh = request.getfixturevalue(fixture)
    lam = (1.0 + 1e-6) / quad.double_sum(mesh, mesh, flat, constants, 0.0, 0)[0]
    spec = CouplingSpec.from_lambdas(lam)
    nu_before = energy_from_coupling(mesh, flat, constants, lam)
    ground_before = solve_ground_state([mesh], spec, flat, constants).nu_star
    _inflate_the_rule(monkeypatch, 64)
    level = principal._gauss_level(mesh, constants, lam)
    assert lam * quad.double_sum(mesh, mesh, flat, constants, level, 0)[0] < 1.0
    nu = energy_from_coupling(mesh, flat, constants, lam)
    assert abs(nu - nu_before) <= 1e-13 * max(1.0, nu_before)
    result = solve_ground_state([mesh], spec, flat, constants)
    assert result.converged
    assert abs(result.nu_star - ground_before) <= 0.5e-12 * (1.0 + ground_before)


def test_a_binding_system_never_fails_on_its_level(constants, flat, monkeypatch):
    # a level far past the zero, from weights doubled, reads omega_min > 0:
    # the search brackets the zero in [0, level] and finds the bound state
    meshes = _spheres(16, (0, 0, 0), (4, 0, 0))
    spec = CouplingSpec.from_lambdas(2.0, 2.5)
    before = solve_ground_state(meshes, spec, flat, constants).nu_star
    _inflate_the_rule(monkeypatch, 1.0 / math.ulp(1.0))
    first = []
    inner = principal.assemble_phi

    def recorded(*args):
        pm = inner(*args)
        first.append(pm.omega_min())
        return pm

    monkeypatch.setattr(principal, "assemble_phi", recorded)
    result = solve_ground_state(meshes, spec, flat, constants)
    assert first[0] > 0.0
    assert result.converged
    assert abs(result.nu_star - before) <= 0.5e-12 * (1.0 + before)
