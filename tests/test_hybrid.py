"""Mixed shell and point-source systems in one principal matrix."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from shellbound import _quadrature
from shellbound import (
    CouplingSpec,
    DegeneratePerturbationError,
    GeometryViolationError,
    HybridSystem,
    InvalidArgumentError,
    NoBoundStateError,
    PhysicalConstants,
    PointSource,
    Sphere,
    ambient_distance,
    assemble_hybrid_phi,
    assemble_phi,
    build_surface,
    flat_point,
    hyperbolic_point,
    hyperbolic_space,
    perturbative_shift,
    point_krein,
    solve_hybrid_ground_state,
    static_kernel_array,
    surface_potential,
)
from shellbound.oracles import SphereOracleInput, sphere_point_potential_exact


def _heat_trace_oracle(constants, mu, nu, K):
    # direct time integral of the subtracted on-diagonal heat kernel
    m, hb = constants.mass, constants.hbar

    def integrand(t):
        base = (m / (2.0 * math.pi * hb * t)) ** 1.5 * math.exp(
            -hb * K * t / (2.0 * m)
        )
        return base * (math.exp(-mu * mu * t / hb) - math.exp(-nu * nu * t / hb)) / hb

    val, _ = quad(integrand, 0.0, np.inf, epsabs=0.0, epsrel=1e-12)
    return val


def test_point_krein_flat_closed_form(constants, flat):
    assert point_krein(constants, 1.0, 2.0, flat) == pytest.approx(
        1.0 / (4.0 * math.pi), abs=1e-15
    )


def test_point_krein_against_time_integral(flat):
    c2 = PhysicalConstants(hbar=2.0, mass=1.0)
    mu, nu = 0.4, 1.1
    assert point_krein(c2, mu, nu, flat) == pytest.approx(
        _heat_trace_oracle(c2, mu, nu, 0.0), rel=1e-8
    )
    hyp = hyperbolic_space(0.7)
    assert point_krein(c2, mu, nu, hyp) == pytest.approx(
        _heat_trace_oracle(c2, mu, nu, 0.7), rel=1e-8
    )


def test_point_krein_validation(constants, flat):
    with pytest.raises(InvalidArgumentError):
        point_krein(constants, 0.0, 1.0, flat)
    with pytest.raises(InvalidArgumentError):
        point_krein(constants, 1.0, -2.0, flat)


def test_phi_shell_point_coupling_entry(constants, flat, sphere16):
    sys = HybridSystem(
        (sphere16,),
        CouplingSpec.from_nu_stars(1.0),
        (PointSource(flat_point(3.0, 0.0, 0.0), 0.8),),
        flat,
        constants,
    )
    A = assemble_hybrid_phi(sys, 0.8).entries
    exact = sphere_point_potential_exact(
        SphereOracleInput(R=1.0, nu=0.8, constants=constants, s=3.0)
    )
    assert A[0, 1] == pytest.approx(-exact, rel=1e-9)
    assert A[1, 0] == A[0, 1]
    with pytest.raises(InvalidArgumentError):
        assemble_hybrid_phi(sys, 0.0)


def test_phi_point_point_entry_is_static_kernel(constants, flat):
    pts = (
        PointSource(flat_point(0.0, 0.0, 0.0), 0.6),
        PointSource(flat_point(2.0, 0.0, 0.0), 0.6),
    )
    sys = HybridSystem((), CouplingSpec.from_lambdas(), pts, flat, constants)
    A = assemble_hybrid_phi(sys, 0.9).entries
    g = static_kernel_array(flat, constants, 0.9, np.array([2.0]))[0]
    assert A[0, 1] == -g
    assert A[0, 0] == point_krein(constants, 0.6, 0.9, flat)


def test_phi_point_point_entry_hyperbolic(constants):
    # the one package path through the hyperbolic static kernel
    K, nu = 0.8, 0.9
    space = hyperbolic_space(K)
    pts = (
        PointSource(hyperbolic_point(space, 0.0, 0.0, 0.0), 0.6),
        PointSource(hyperbolic_point(space, 1.5, 0.5, 0.0), 0.7),
    )
    sys = HybridSystem((), CouplingSpec.from_lambdas(), pts, space, constants)
    A = assemble_hybrid_phi(sys, nu).entries
    d = ambient_distance(space, pts[0].position, pts[1].position)
    m, hbar = constants.mass, constants.hbar
    gamma = math.sqrt(K + 2.0 * m * nu * nu / (hbar * hbar))
    closed = (
        m / (2.0 * math.pi * hbar * hbar)
        * math.sqrt(K) / math.sinh(math.sqrt(K) * d)
        * math.exp(-gamma * d)
    )
    assert A[0, 1] == pytest.approx(-closed, rel=1e-14)
    assert A[0, 1] == -static_kernel_array(space, constants, nu, np.array([d]))[0]
    assert A[1, 0] == A[0, 1]


def test_single_point_recovers_its_own_level(constants, flat):
    sys = HybridSystem(
        (),
        CouplingSpec.from_lambdas(),
        (PointSource(flat_point(0.0, 0.0, 0.0), 0.7),),
        flat,
        constants,
    )
    gs = solve_hybrid_ground_state(sys)
    assert gs.nu_star == pytest.approx(0.7, abs=1e-9)
    assert gs.energy == pytest.approx(-0.49, abs=1e-9)
    assert gs.weights.tolist() == [1.0]
    assert gs.converged


def test_two_point_level_satisfies_transcendental(constants, flat):
    # defaults: the symmetric two-point level solves nu - mu = e^{-nu d} / d
    d, mu = 2.0, 0.6
    pts = (
        PointSource(flat_point(0.0, 0.0, 0.0), mu),
        PointSource(flat_point(d, 0.0, 0.0), mu),
    )
    sys = HybridSystem((), CouplingSpec.from_lambdas(), pts, flat, constants)
    gs = solve_hybrid_ground_state(sys)
    assert abs((gs.nu_star - mu) - math.exp(-gs.nu_star * d) / d) < 1e-10
    assert gs.weights[0] == pytest.approx(gs.weights[1], rel=1e-9)


def test_shell_point_level_below_both_channels(constants, flat, sphere16):
    sys = HybridSystem(
        (sphere16,),
        CouplingSpec.from_nu_stars(1.0),
        (PointSource(flat_point(3.0, 0.0, 0.0), 1.0),),
        flat,
        constants,
    )
    gs = solve_hybrid_ground_state(sys)
    assert gs.energy < -1.0
    assert np.all(gs.weights > 0.0)


def test_perturbative_shift_accuracy_improves_with_distance(constants, flat, sphere16):
    rels = []
    for s in (5.0, 10.0, 15.0):
        sys = HybridSystem(
            (sphere16,),
            CouplingSpec.from_lambdas(1.5),
            (PointSource(flat_point(s, 0.0, 0.0), 0.5),),
            flat,
            constants,
        )
        pred = perturbative_shift(sys)
        gs = solve_hybrid_ground_state(sys)
        exact = gs.nu_star**2 - 0.25
        assert pred > 0.0 and exact > 0.0
        rels.append(abs(pred - exact) / exact)
    assert rels[0] > rels[1] > rels[2]
    assert rels[1] < 0.1


def test_perturbative_shift_level_slope_is_the_point_diagonal_slope(flat, sphere16):
    # hbar = 2, m = 1 puts kappa_f at 1/sqrt(2), so a misplaced kappa_f shows;
    # the level slope is d/d(nu^2) of the point diagonal at nu = mu
    c2 = PhysicalConstants(hbar=2.0, mass=1.0)
    mu = 0.5
    spec = CouplingSpec.from_lambdas(1.5)
    point = PointSource(flat_point(6.0, 0.0, 0.0), mu)
    sys = HybridSystem((sphere16,), spec, (point,), flat, c2)
    h = 1e-4 * mu * mu
    up, dn = (point_krein(c2, mu, math.sqrt(mu * mu + s), flat) for s in (h, -h))
    slope = (up - dn) / (2.0 * h)
    diag = assemble_phi((sphere16,), spec, flat, c2, mu).entries[0, 0]
    off = surface_potential(sphere16, flat, c2, mu, point.position)
    assert perturbative_shift(sys) == pytest.approx(off * off / (slope * diag), rel=1e-7)


def test_perturbative_shift_sums_the_self_integral_once(constants, flat, sphere16, monkeypatch):
    # P_ii(mu), the shell diagonal and the point-shell entry come from one
    # assembly at nu = mu: one self-integral pass, then the point's sum
    passes = []
    inner = _quadrature.double_sum

    def counted(a, b, *args):
        passes.append("self" if a is b else "point")
        return inner(a, b, *args)

    monkeypatch.setattr(_quadrature, "double_sum", counted)
    point = PointSource(flat_point(5.0, 0.0, 0.0), 0.5)
    sys = HybridSystem((sphere16,), CouplingSpec.from_lambdas(1.5), (point,), flat, constants)
    assert perturbative_shift(sys) > 0.0
    assert passes == ["self", "point"]


def test_point_rows_go_through_the_traced_pair_sum(constants, flat):
    # every point-shell entry is one offdiag_weighted_sum call, the layer a
    # trace counts, and no kernel sum bypasses the diag and offdiag sums
    meshes = [build_surface(Sphere((4.0 * k, 0.0, 0.0), 1.0), order=8) for k in (0, 1)]
    points = (
        PointSource(flat_point(2.0, 3.0, 0.0), 0.6),
        PointSource(flat_point(2.0, -3.0, 1.0), 0.7),
    )
    system = HybridSystem(meshes, CouplingSpec.from_nu_stars(1.0, 1.1), points, flat, constants)
    calls = {"offdiag": [], "diag": 0, "kernel_sum": 0}
    offdiag, diag, kernel_sum = (
        _quadrature.offdiag_weighted_sum, _quadrature.diag_weighted_sum,
        _quadrature.weighted_kernel_sum,
    )

    def counted_offdiag(a, b, *args):
        calls["offdiag"].append((type(a).__name__, type(b).__name__))
        return offdiag(a, b, *args)

    def counted(name, inner):
        def wrapper(*args):
            calls[name] += 1
            return inner(*args)
        return wrapper

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_quadrature, "offdiag_weighted_sum", counted_offdiag)
        mp.setattr(_quadrature, "diag_weighted_sum", counted("diag", diag))
        mp.setattr(_quadrature, "weighted_kernel_sum", counted("kernel_sum", kernel_sum))
        assemble_hybrid_phi(system, 1.2)
    assert sorted(calls["offdiag"]) == (
        [("Point3", "Point3")] + [("SurfaceMesh", "Point3")] * 4 + [("SurfaceMesh", "SurfaceMesh")]
    )
    # nu* = 1.0 and 1.1 are two more self-integrals beside P_ii(1.2)
    assert calls["diag"] == 3
    assert calls["kernel_sum"] == calls["diag"] + len(calls["offdiag"])


def test_perturbative_shift_resonant_channel(constants, flat, sphere16):
    # coupling tuned so the shell is critical exactly at the point level
    sys = HybridSystem(
        (sphere16,),
        CouplingSpec.from_lambdas(2.313035285680343),
        (PointSource(flat_point(10.0, 0.0, 0.0), 1.0),),
        flat,
        constants,
    )
    with pytest.raises(DegeneratePerturbationError):
        perturbative_shift(sys)


def test_perturbative_shift_arity(constants, flat):
    pts = (
        PointSource(flat_point(0.0, 0.0, 0.0), 0.6),
        PointSource(flat_point(2.0, 0.0, 0.0), 0.6),
    )
    sys = HybridSystem((), CouplingSpec.from_lambdas(), pts, flat, constants)
    with pytest.raises(InvalidArgumentError):
        perturbative_shift(sys)


def test_system_validation(constants, flat, sphere16):
    with pytest.raises(GeometryViolationError):
        HybridSystem(
            (sphere16,),
            CouplingSpec.from_nu_stars(1.0),
            (PointSource(flat_point(1.0, 0.0, 0.0), 0.5),),
            flat,
            constants,
        )
    with pytest.raises(GeometryViolationError):
        HybridSystem(
            (),
            CouplingSpec.from_lambdas(),
            (
                PointSource(flat_point(0.0, 0.0, 0.0), 0.6),
                PointSource(flat_point(0.0, 0.0, 0.0), 0.9),
            ),
            flat,
            constants,
        )
    with pytest.raises(InvalidArgumentError):
        HybridSystem((sphere16,), CouplingSpec.from_nu_stars(1.0, 1.0), (), flat, constants)
    with pytest.raises(InvalidArgumentError):
        HybridSystem((), CouplingSpec.from_lambdas(), (), flat, constants)
    hyp = hyperbolic_space(0.5)
    with pytest.raises(InvalidArgumentError):
        HybridSystem(
            (),
            CouplingSpec.from_lambdas(),
            (PointSource(hyperbolic_point(hyp, 0.3, 0.0, 0.0), 0.5),),
            flat,
            constants,
        )
    # surfaces are flat-only; the point-on-surface check never sees the
    # hyperbolic point's four coordinates
    with pytest.raises(InvalidArgumentError, match="flat ambient space"):
        HybridSystem(
            (sphere16,),
            CouplingSpec.from_lambdas(2.0),
            (PointSource(hyperbolic_point(hyp, 3.0, 0.0, 0.0), 0.5),),
            hyp,
            constants,
        )
    with pytest.raises(InvalidArgumentError):
        PointSource(flat_point(0.0, 0.0, 0.0), 0.0)


def _interior_potential_exact(constants, nu, s, R=1.0):
    # V^{-1/2} integral of the flat static kernel over a sphere of radius R
    # from a point s < R from its centre
    kappa = constants.kappa_factor * nu
    return (
        constants.mass * math.sinh(kappa * s) * math.exp(-kappa * R)
        / (math.sqrt(math.pi) * constants.hbar**2 * kappa * s)
    )


# the largest relative error of a point's potential inside an order-16 unit
# sphere against the interior closed form, at nu = 0.8 with the point on the
# x axis (measured: 0 at s = 0.3, 7.5e-12 at s = 0.5)
INTERIOR_ERRORS = {0.3: 7e-16, 0.5: 2.2e-11}


@pytest.mark.parametrize("s", INTERIOR_ERRORS)
def test_point_inside_a_shell(constants, flat, sphere16, s):
    # a point may sit inside a shell: its sums never meet the pair rule's
    # overlap check, and the system solves
    nu = 0.8
    point = PointSource(flat_point(s, 0.0, 0.0), 0.8)
    sys = HybridSystem((sphere16,), CouplingSpec.from_nu_stars(1.0), (point,), flat, constants)
    exact = _interior_potential_exact(constants, nu, s)
    got = surface_potential(sphere16, flat, constants, nu, point.position)
    entry = -assemble_hybrid_phi(sys, nu).entries[0, 1]
    for value in (got, entry):
        assert abs(value - exact) <= INTERIOR_ERRORS[s] * exact
    gs = solve_hybrid_ground_state(sys)
    assert gs.converged and gs.energy < -1.0


def test_subcritical_shell_only_system(constants, flat, sphere16):
    sys = HybridSystem(
        (sphere16,), CouplingSpec.from_lambdas(0.9), (), flat, constants
    )
    with pytest.raises(NoBoundStateError):
        solve_hybrid_ground_state(sys)


def _hybrid_fd(sys, nu, h):
    up = assemble_hybrid_phi(sys, nu + h).entries
    dn = assemble_hybrid_phi(sys, nu - h).entries
    return (up - dn) / (2.0 * h)


def test_hybrid_slope_matches_central_difference_flat(flat, sphere16):
    # point-shell, point-point and point diagonal entries, with non-unit
    # constants so kappa_f != 1
    constants = PhysicalConstants(hbar=1.3, mass=0.8)
    pts = (
        PointSource(flat_point(3.0, 0.0, 0.0), 0.6),
        PointSource(flat_point(0.0, 2.5, 1.0), 0.9),
    )
    sys = HybridSystem((sphere16,), CouplingSpec.from_nu_stars(0.7), pts, flat, constants)
    for nu in (0.95, 1.4):
        slope = assemble_hybrid_phi(sys, nu).slope
        assert np.allclose(slope, _hybrid_fd(sys, nu, 1e-5 * nu), rtol=1e-6, atol=0.0)


def test_hybrid_slope_matches_central_difference_hyperbolic():
    constants = PhysicalConstants(hbar=1.3, mass=0.8)
    space = hyperbolic_space(0.8)
    pts = (
        PointSource(hyperbolic_point(space, 0.0, 0.0, 0.0), 0.6),
        PointSource(hyperbolic_point(space, 1.5, 0.5, 0.0), 0.7),
        PointSource(hyperbolic_point(space, -0.5, 1.0, 0.3), 0.5),
    )
    sys = HybridSystem((), CouplingSpec.from_lambdas(), pts, space, constants)
    for nu in (0.75, 1.2):
        slope = assemble_hybrid_phi(sys, nu).slope
        assert np.allclose(slope, _hybrid_fd(sys, nu, 1e-5 * nu), rtol=1e-6, atol=0.0)


def test_hyperbolic_point_only_search_passes_the_root_and_converges(constants, monkeypatch):
    # the hyperbolic point diagonal is convex in nu, so a Newton step from
    # the left passes the root; the search keeps the bracket from there and
    # still lands on the zero of omega_min
    from shellbound import hybrid

    space = hyperbolic_space(0.8)
    pts = (
        PointSource(hyperbolic_point(space, 0.0, 0.0, 0.0), 0.6),
        PointSource(hyperbolic_point(space, 1.5, 0.5, 0.0), 0.7),
    )
    sys = HybridSystem((), CouplingSpec.from_lambdas(), pts, space, constants)
    omegas = []
    inner = hybrid.assemble_hybrid_phi

    def recorded(*args):
        pm = inner(*args)
        omegas.append(pm.omega_min())
        return pm

    monkeypatch.setattr(hybrid, "assemble_hybrid_phi", recorded)
    gs = solve_hybrid_ground_state(sys)
    assert max(omegas) > 0.0
    assert gs.converged
    assert gs.nu_star > 0.7
    omega = lambda nu: inner(sys, nu).omega_min()
    assert omega(gs.nu_star - 1e-11) < 0.0 < omega(gs.nu_star + 1e-11)


# A lambda shell beside a point starts its search at the shell's Gauss
# level, not at the point's level mu far below it: (lambda, the point's x,
# the root found when the search started at mu, which took 9 and 6
# evaluations, and exactly this many evaluations of omega_min now).
HYBRID_LAMBDA_STARTS = {
    "lambda 10, point at x = 10": (10.0, 10.0, 4.999772897218809, 3),
    "lambda 2.5, point at x = 6": (2.5, 6.0, 1.115806334384211, 2),
}


@pytest.mark.parametrize("case", HYBRID_LAMBDA_STARTS)
def test_a_lambda_shell_beside_a_point_starts_at_its_gauss_level(
    constants, flat, sphere16, monkeypatch, case
):
    from shellbound import hybrid, principal

    lam, x, before, n_evals = HYBRID_LAMBDA_STARTS[case]
    point = PointSource(flat_point(x, 0.0, 0.0), 0.5)
    sys = HybridSystem((sphere16,), CouplingSpec.from_lambdas(lam), (point,), flat, constants)
    seen = []
    inner = hybrid.assemble_hybrid_phi

    def recorded(*args):
        pm = inner(*args)
        seen.append(pm.nu)
        return pm

    monkeypatch.setattr(hybrid, "assemble_hybrid_phi", recorded)
    gs = solve_hybrid_ground_state(sys)
    assert seen[0] == principal._gauss_level(sphere16, constants, lam) > point.mu
    assert gs.iterations == len(seen) == n_evals
    # within the search's stop width of the root found from mu
    assert abs(gs.nu_star - before) <= 0.5e-12 * (1.0 + before)
    assert gs.converged
