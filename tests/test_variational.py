"""Trial-state energy functional and the time-weighted matrix family."""

import collections
import math

import numpy as np
import pytest

from shellbound import (
    CouplingSpec,
    IllConditionedError,
    InvalidArgumentError,
    NoBoundStateError,
    PhysicalConstants,
    Sphere,
    VariationalMatrices,
    assemble_phi,
    assemble_variational,
    build_surface,
    coupling_from_energy,
    energy_functional,
    schur_gap,
    solve_ground_state,
    solve_variational,
    stationarity_check,
)
from shellbound import _quadrature as quad
from shellbound.jacobi import jacobi_eigh
from shellbound.variational import normalization_Z

# coupling whose standalone sphere level sits at energy -1 (order-32 mesh)
LAM_STAR = 2.313035285680343


def test_matrix_entries_at_unit_alpha(constants, flat, sphere32):
    lam = coupling_from_energy(sphere32, flat, constants, 1.0)
    vm = assemble_variational(
        [sphere32], CouplingSpec.from_lambdas(lam), flat, constants, 1.0
    )
    # at lambda = 1/P(1) the weight-1 entry is exactly critical
    assert vm.K[0, 0] == pytest.approx(1.0, abs=1e-12)
    assert vm.L[0, 0] == pytest.approx(0.343482357246225, rel=1e-9)
    assert vm.S[0, 0] == pytest.approx(0.3587058931303388, rel=1e-9)
    assert schur_gap(vm) == pytest.approx(0.12274563365149208, rel=1e-9)
    assert vm.alpha == 1.0
    assert vm.n == 1


def test_phi_tilde_is_scaled_principal_matrix(constants, flat, sphere24):
    lam = coupling_from_energy(sphere24, flat, constants, 1.0)
    vm = assemble_variational([sphere24], CouplingSpec.from_lambdas(lam), flat, constants, 1.4)
    phi = assemble_phi(
        [sphere24], CouplingSpec.from_lambdas(lam), flat, constants, math.sqrt(1.4)
    )
    drift = float(np.max(np.abs(vm.Phi_tilde - vm.D @ phi.entries @ vm.D)))
    assert drift <= 1e-10
    assert vm.D[0, 0] == pytest.approx(math.sqrt(lam), rel=1e-15)


def test_normalization_Z_value(constants, flat, sphere32):
    # Z(1) = pi (1 - 3 e^{-2}) for the unit sphere
    got = normalization_Z(sphere32, flat, constants, 1.0)
    assert got == pytest.approx(math.pi * (1.0 - 3.0 * math.exp(-2.0)), rel=1e-9)
    with pytest.raises(InvalidArgumentError):
        normalization_Z(sphere32, flat, constants, 0.0)


def test_energy_functional_identity(constants, flat, sphere32):
    # with lambda = 1/P(sqrt(alpha)) the trial energy collapses to -alpha
    lam = coupling_from_energy(sphere32, flat, constants, math.sqrt(2.0))
    assert energy_functional(sphere32, flat, constants, lam, 2.0) == pytest.approx(
        -2.0, abs=1e-12
    )
    dE, d2E = stationarity_check(sphere32, flat, constants, lam, 2.0, 2e-4)
    assert abs(dE) < 1e-6
    assert d2E > 0.0


def test_stationarity_check_step_validation(constants, flat, sphere16):
    with pytest.raises(InvalidArgumentError):
        stationarity_check(sphere16, flat, constants, 2.0, 1.0, 1e-8)
    with pytest.raises(InvalidArgumentError):
        stationarity_check(sphere16, flat, constants, 2.0, 1.0, 0.1)


@pytest.mark.parametrize("bad", [0.0, -1.0, math.nan])
def test_trial_energy_needs_positive_alpha_and_lambda(constants, flat, sphere16, bad):
    with pytest.raises(InvalidArgumentError, match="alpha must be positive"):
        energy_functional(sphere16, flat, constants, 2.0, bad)
    with pytest.raises(InvalidArgumentError, match="lambda must be positive"):
        energy_functional(sphere16, flat, constants, bad, 1.0)
    with pytest.raises(InvalidArgumentError, match="alpha must be positive"):
        stationarity_check(sphere16, flat, constants, 2.0, bad, 1e-4)


def test_schur_gap_rejects_a_singular_k():
    # K = [[1, 1], [1, 1]] has eigenvalues 0 and 2: K^{-1} does not exist
    eye, ones = np.eye(2), np.ones((2, 2))
    vm = VariationalMatrices(alpha=1.0, S=eye, L=eye, K=ones, D=eye)
    with pytest.raises(IllConditionedError, match="numerically singular"):
        schur_gap(vm)


def test_solve_single_sphere(constants, flat, sphere32):
    alpha_star, A = solve_variational(
        [sphere32], CouplingSpec.from_lambdas(LAM_STAR), flat, constants
    )
    assert alpha_star == pytest.approx(1.0, abs=1e-9)
    assert A.shape == (1,)
    assert A[0] == 1.0


def test_solve_matches_principal_route_pair(constants, flat):
    a = build_surface(Sphere((0.0, 0.0, 0.0), 1.0), order=24)
    b = build_surface(Sphere((4.0, 0.0, 0.0), 1.0), order=24)
    lam = coupling_from_energy(a, flat, constants, 1.0)
    spec = CouplingSpec.from_lambdas(lam, lam)
    alpha_star, A = solve_variational([a, b], spec, flat, constants)
    gs = solve_ground_state([a, b], spec, flat, constants)
    assert abs(alpha_star - gs.nu_star**2) / alpha_star < 1e-7
    assert A[0] == pytest.approx(A[1], rel=1e-9)
    assert np.all(A > 0.0)


def test_solve_asymmetric_pair(constants, flat):
    # equal couplings: the R = 1.3 sphere is the more supercritical channel
    # and carries the larger ground-state weight
    small = build_surface(Sphere((0.0, 0.0, 0.0), 1.0), order=16)
    big = build_surface(Sphere((4.0, 0.0, 0.0), 1.3), order=16)
    spec = CouplingSpec.from_lambdas(2.0, 2.0)
    alpha_star, A = solve_variational([small, big], spec, flat, constants)
    gs = solve_ground_state([small, big], spec, flat, constants)
    assert abs(alpha_star - gs.nu_star**2) / alpha_star < 1e-7
    assert A[1] > A[0] > 0.0
    assert np.allclose(A, gs.weights, rtol=1e-7)


@pytest.mark.parametrize("lams", [(2.0, 2.0), (1.5, 3.0), (1.2, 8.0)])
def test_zero_mode_is_the_principal_root_under_d(constants, flat, lams):
    # I - K = D Phi D with D = diag(sqrt(lambda)): alpha* is nu*^2 and the
    # zero mode is D^{-1} v / |D^{-1} v| for the principal null vector v
    small = build_surface(Sphere((0.0, 0.0, 0.0), 1.0), order=16)
    big = build_surface(Sphere((4.0, 0.0, 0.0), 1.3), order=16)
    spec = CouplingSpec.from_lambdas(*lams)
    alpha_star, A = solve_variational([small, big], spec, flat, constants)
    gs = solve_ground_state([small, big], spec, flat, constants)
    w = gs.weights / np.sqrt(lams)
    assert alpha_star == gs.nu_star**2
    assert np.array_equal(A, w / np.linalg.norm(w))


def test_nu_star_matched_pair_favors_smaller_sphere(constants, flat):
    # with each channel tuned to the same standalone level, the larger
    # sphere's diagonal falls faster in alpha, so the zero mode of the
    # scaled matrix puts its larger component on the smaller sphere
    small = build_surface(Sphere((0.0, 0.0, 0.0), 1.0), order=16)
    big = build_surface(Sphere((4.0, 0.0, 0.0), 1.5), order=16)
    spec = CouplingSpec.from_lambdas(
        coupling_from_energy(small, flat, constants, 1.0),
        coupling_from_energy(big, flat, constants, 1.0),
    )
    alpha_star, A = solve_variational([small, big], spec, flat, constants)
    gs = solve_ground_state([small, big], spec, flat, constants)
    assert abs(alpha_star - gs.nu_star**2) / alpha_star < 1e-7
    assert A[0] > A[1] > 0.0
    assert gs.weights[0] > gs.weights[1] > 0.0


def test_matrices_positive_definite_pair(constants, flat):
    a = build_surface(Sphere((0.0, 0.0, 0.0), 1.0), order=16)
    b = build_surface(Sphere((4.0, 0.0, 0.0), 1.0), order=16)
    spec = CouplingSpec.from_lambdas(2.0, 2.0)
    alpha_star, _ = solve_variational([a, b], spec, flat, constants)
    vm = assemble_variational([a, b], spec, flat, constants, alpha_star)
    for M in (vm.K, vm.L, vm.S):
        w, _ = jacobi_eigh(M)
        assert w[0] > 0.0
    assert schur_gap(vm) >= -1e-10


def test_subcritical_raises_and_functional_positive(constants, flat, sphere32):
    with pytest.raises(NoBoundStateError):
        solve_variational([sphere32], CouplingSpec.from_lambdas(0.999), flat, constants)
    for alpha in np.linspace(0.05, 4.0, 12):
        assert energy_functional(sphere32, flat, constants, 0.999, float(alpha)) > 0.0


def test_lambda_form_required(constants, flat, sphere16):
    with pytest.raises(InvalidArgumentError):
        assemble_variational(
            [sphere16], CouplingSpec.from_nu_stars(1.0), flat, constants, 1.0
        )
    with pytest.raises(InvalidArgumentError):
        solve_variational([sphere16], CouplingSpec.from_nu_stars(1.0), flat, constants)
    with pytest.raises(InvalidArgumentError):
        assemble_variational(
            [sphere16], CouplingSpec.from_lambdas(2.0), flat, constants, 0.0
        )


def test_l_matrix_is_minus_the_alpha_slope_of_k(constants, flat):
    a = build_surface(Sphere((0.0, 0.0, 0.0), 1.0), order=16)
    b = build_surface(Sphere((3.0, 0.5, 0.0), 1.2), order=16)
    spec = CouplingSpec.from_lambdas(2.0, 1.5)
    for alpha in (0.3, 1.4):
        h = 1e-5 * alpha
        up, dn = (
            assemble_variational([a, b], spec, flat, constants, x).K for x in (alpha + h, alpha - h)
        )
        L = assemble_variational([a, b], spec, flat, constants, alpha).L
        assert np.allclose(L, -(up - dn) / (2.0 * h), rtol=1e-6, atol=0.0)



# The static kernel's units and a set with kappa_f != 1.
CONSTANTS = [lambda: PhysicalConstants(), lambda: PhysicalConstants(hbar=2.0, mass=0.7)]


@pytest.mark.parametrize("make_constants", CONSTANTS)
def test_s_matrix_is_the_second_alpha_difference_of_k(flat, make_constants):
    # S, built from the static kernel's distance moments, is d^2 K / dalpha^2
    constants = make_constants()
    a = build_surface(Sphere((0.0, 0.0, 0.0), 1.0), order=16)
    b = build_surface(Sphere((3.0, 0.5, 0.0), 1.2), order=16)
    spec = CouplingSpec.from_lambdas(2.0, 1.5)
    for alpha in (0.3, 1.4):
        h = 1e-3 * alpha
        up, mid, dn = (
            assemble_variational([a, b], spec, flat, constants, x)
            for x in (alpha + h, alpha, alpha - h)
        )
        fd = (up.K - 2.0 * mid.K + dn.K) / (h * h)
        assert np.allclose(mid.S, fd, rtol=1e-6, atol=0.0)


def test_s_matrix_finite_for_touching_spheres(constants, flat):
    # the 1/d singularity of G cancels in the moments that S is built from
    a = build_surface(Sphere((0.0, 0.0, 0.0), 1.0), order=16)
    b = build_surface(Sphere((2.0, 0.0, 0.0), 1.0), order=16)
    vm = assemble_variational([a, b], CouplingSpec.from_lambdas(2.0, 2.0), flat, constants, 1.0)
    assert np.all(np.isfinite(vm.S))
    assert np.all(vm.S > 0.0)


def test_k_l_s_take_one_pass_per_distinct_surface_pair(constants, flat, monkeypatch):
    # equal spheres share one self-integral; K, L and S share each pass
    meshes = [build_surface(Sphere((4.0 * k, 0.0, 0.0), 1.0), order=8) for k in range(3)]
    passes = []  # self-integral or not, per double sum
    inner_sum = quad.double_sum

    def counted_sum(mesh_i, mesh_j, *args):
        passes.append(mesh_i is mesh_j)
        return inner_sum(mesh_i, mesh_j, *args)

    monkeypatch.setattr(quad, "double_sum", counted_sum)
    assemble_variational(meshes, CouplingSpec.from_lambdas(2.5, 2.5, 2.5), flat, constants, 1.2)
    assert collections.Counter(passes) == {True: 1, False: 3}
