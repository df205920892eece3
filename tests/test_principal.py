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
    InvalidArgumentError,
    InvalidStateError,
    NoBoundStateError,
    NoConvergenceError,
    Sphere,
    assemble_phi,
    build_surface,
    coupling_from_energy,
    energy_from_coupling,
    flat_point,
    lowest_eigenvalue_flow,
    solve_ground_state,
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
from shellbound.principal import _brent, _monotone_root, pair_integral, surface_potential


@pytest.mark.parametrize("nu", [0.1, 0.5, 1.0, 2.0, 5.0])
def test_pair_integral_matches_oracle(constants, flat, sphere32, nu):
    exact = sphere_pair_integral_exact(SphereOracleInput(R=1.0, nu=nu))
    got = pair_integral(sphere32, sphere32, flat, constants, nu)
    assert abs(got - exact) / exact < 1e-6


def test_pair_integral_validation(constants, flat, hyp, sphere16):
    with pytest.raises(InvalidArgumentError):
        pair_integral(sphere16, sphere16, flat, constants, 0.0)
    with pytest.raises(InvalidArgumentError):
        pair_integral(sphere16, sphere16, hyp, constants, 1.0)


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


def _counting(monkeypatch, name):
    """Replace principal.<name> by a wrapper that records its calls."""
    calls = []
    inner = getattr(principal, name)

    def wrapper(*args):
        calls.append(args)
        return inner(*args)

    monkeypatch.setattr(principal, name, wrapper)
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
    calls = _counting(monkeypatch, "pair_integral")
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


def test_assemble_phi_still_checks_a_sharing_mesh(constants, flat):
    # a mesh of the same form, scale and area whose nodes are not its form's
    # mesh moved gets no shared self-integral: it raises as it would alone.
    # The centres share no coordinate plane, so the pair rule checks no
    # mirror images and only the self-integral's check sees the turn.
    a = build_surface(Sphere((0.0, 0.0, 0.0), 1.0), order=8)
    b = build_surface(Sphere((3.0, 2.5, 1.5), 1.0), order=8)
    u, v = b.params[:, 0], b.params[:, 1]
    turned = dataclasses.replace(b, nodes=b.chart.evaluate(u, v + 0.1)[0])
    with pytest.raises(GeometryViolationError):
        assemble_phi((a, turned), CouplingSpec.from_nu_stars(1.0, 1.0), flat, constants, 1.2)


def test_pair_integral_kernel_calls_per_block(constants, flat, sphere24, monkeypatch):
    # an order-24 collinear pair sums 300 outer rows x 1152 nodes; the block
    # loop makes one kernel call per _BLOCK samples, and every sample once
    other = build_surface(Sphere((4.0, 0.0, 0.0), 1.0), order=24)
    calls = _counting(monkeypatch, "static_kernel_array")
    pair_integral(sphere24, other, flat, constants, 1.0)
    assert sum(args[3].size for args in calls) == 345_600
    assert len(calls) <= -(-345_600 // quad._BLOCK)
    assert len(calls) <= 22


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
    node = sphere16.nodes[0]
    got = surface_potential(
        sphere16, flat, constants, 1.0, flat_point(node[0], node[1], node[2])
    )
    assert got == math.inf


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
    root, evals = _monotone_root(
        lambda x: x**3 - 2.0, 0.0, -2.0, 1.0, 1e4, NoConvergenceError("unused"), 1e-15
    )
    assert abs(root - 2.0 ** (1.0 / 3.0)) < 1e-12
    assert evals < 15


def test_monotone_root_raises_callers_error_past_ceiling():
    calls = []

    def never_positive(x):
        calls.append(x)
        return -1.0

    error = NoBoundStateError("no crossing below the ceiling")
    with pytest.raises(NoBoundStateError) as info:
        _monotone_root(never_positive, 1e-8, -1.0, 1.0, 1e4, error, 1e-12)
    assert info.value is error
    # Doubling from 1 stops at 2**13 = 8192, the last end below the ceiling.
    assert max(calls) == 8192.0


def _monotone_family(rng: random.Random, kind: int):
    """(f, lo, hi): an increasing function and a bracket of its root."""
    if kind == 0:
        p, a = rng.choice([0.5, 1.0, 2.0, 3.0, 5.0]), rng.uniform(0.1, 50.0)
        root = a ** (1.0 / p)
        f = lambda x: x**p - a
        return f, root * rng.uniform(0.0, 0.9), root * rng.uniform(1.1, 20.0)
    if kind == 1:
        c, s = rng.uniform(-3.0, 3.0), rng.uniform(0.1, 10.0)
        f = lambda x: math.tanh(s * (x - c))
        return f, c - rng.uniform(0.1, 5.0), c + rng.uniform(0.1, 5.0)
    if kind == 2:
        a = rng.uniform(0.01, 20.0)
        f = lambda x: math.exp(x) - 1.0 - a
        return f, 0.0, math.log1p(a) + rng.uniform(0.1, 4.0)
    if kind == 3:
        a = rng.uniform(0.01, 100.0)
        f = lambda x: math.log(x) - math.log(a)
        return f, a * rng.uniform(0.01, 0.9), a * rng.uniform(1.1, 30.0)
    # near-flat cubic: the interpolation steps stall and Brent falls back;
    # scaled by 1e-160, the extrapolation denominator underflows to zero
    c, e = rng.uniform(-2.0, 2.0), rng.uniform(1e-6, 1e-1)
    scale = 1.0 if kind == 4 else 1e-160
    f = lambda x: scale * ((x - c) ** 3 + e * (x - c))
    return f, c - rng.uniform(0.1, 3.0), c + rng.uniform(0.1, 3.0)


def _recorded(f, points):
    def g(x):
        points.append(x)
        return f(x)

    return g


@pytest.mark.parametrize("tol", [1e-16, 1e-13, 0.5e-12, 1e-10])
def test_brent_matches_scipy_brentq_bitwise(tol):
    from scipy.optimize import brentq

    rtol = max(tol, 4.0 * np.finfo(float).eps)
    for seed in range(60):
        for kind in range(6):
            f, lo, hi = _monotone_family(random.Random(f"{seed}|{kind}"), kind)
            ref_points = []
            ref = brentq(_recorded(f, ref_points), lo, hi, xtol=tol, rtol=rtol)
            points = [lo, hi]
            got = _brent(_recorded(f, points), lo, f(lo), hi, f(hi), tol, rtol, RuntimeError())
            assert got == ref, (seed, kind)
            assert points == ref_points, (seed, kind)


def test_brent_raises_callers_error_at_iteration_cap():
    from scipy.optimize import brentq

    # A step at 1e-250 with xtol 1e-300 needs far more than 100 halvings.
    step = lambda x: -1.0 if x < 1e-250 else 1.0
    ref_points = []
    with pytest.raises(RuntimeError):
        brentq(_recorded(step, ref_points), -1.0, 1.0, xtol=1e-300)
    points = [-1.0, 1.0]
    rtol = 4.0 * np.finfo(float).eps
    error = NoConvergenceError("no convergence in 100 iterations")
    with pytest.raises(NoConvergenceError) as info:
        _brent(_recorded(step, points), -1.0, -1.0, 1.0, 1.0, 1e-300, rtol, error)
    assert info.value is error
    assert points == ref_points
    assert len(points) == 102
    # brentq raises a bare ValueError on NaN; the port raises the caller's error
    with pytest.raises(NoConvergenceError):
        _brent(lambda x: math.nan, -1.0, -1.0, 1.0, 1.0, 1e-12, 1e-12, error)
    with pytest.raises(NoConvergenceError):
        _brent(lambda x: math.nan, -1.0, math.nan, 1.0, 1.0, 1e-12, 1e-12, error)


def test_lone_nu_star_channel_returns_nu_star_exactly(constants, flat, sphere16):
    result = solve_ground_state([sphere16], CouplingSpec.from_nu_stars(0.7), flat, constants)
    assert result.nu_star == 0.7
    assert result.energy == -0.7 * 0.7
    # omega(nu*) is exactly zero, so only the two bracket ends are evaluated.
    assert result.iterations == 2


def test_two_spheres_solve_takes_few_evaluations(config_dir):
    cfg = load_config(str(config_dir / "two_spheres.json"))
    result = solve_ground_state(cfg.surfaces, cfg.couplings, cfg.space, cfg.constants)
    assert result.converged
    # Brent's method converges superlinearly; bisection to this tolerance
    # needs about 40 evaluations.
    assert result.iterations <= 15
