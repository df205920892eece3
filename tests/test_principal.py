"""Principal-matrix assembly, the monotone eigenvalue flow, and the
bound-state solver."""

import math

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
from shellbound.cli import load_config
from shellbound.principal import _monotone_root, pair_integral, surface_potential


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
