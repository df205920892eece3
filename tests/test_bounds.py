"""Closed-form threshold bounds, spectral-floor disk bound, and the
split finiteness certificate."""

import math

import numpy as np
import pytest

from shellbound import (
    InvalidArgumentError,
    KernelBoundConstants,
    NoConvergenceError,
    OutOfChartError,
    Sphere,
    SurfaceCurvatureMeta,
    Torus,
    UnsupportedRegimeError,
    build_surface,
    coupling_bound_diameter,
    coupling_bound_model,
    coupling_from_energy,
    critical_coupling_exact,
    deformation_lower_bound,
    diagonal_lower_envelope,
    finiteness_certificate,
    flat_space,
    gersgorin_energy_bound,
    heat_kernel_upper_bound,
    hyperbolic_space,
    offdiagonal_upper_envelope,
    solve_ground_state,
    space_form_jacobian,
)
from shellbound import bounds, principal
from shellbound.principal import CouplingSpec, pair_integral
from shellbound.oracles import SphereOracleInput, sphere_pair_integral_exact

MH2 = 0.5  # m / hbar^2 at default constants
ROOT_PI = math.sqrt(math.pi)


def _closed_forms(H, K, rho):
    """Zero-energy values of all six curvature regimes, written from scratch."""
    rK, rH = math.sqrt(K), math.sqrt(H)
    rate = rK * (1.0 + 1.0 / ROOT_PI)
    return {
        "NN/zero": MH2 * rho,
        "NN/pos": MH2 / (2.0 * rH) * (rH * rho + math.sin(rH * rho)),
        "NN/neg": 2.0 * MH2 / rH * math.sinh(rH * rho / 2.0),
        "NR/zero": MH2 * math.pi / (1.0 + ROOT_PI) * math.exp(-rK * (1.0 + ROOT_PI) * rho / ROOT_PI),
        "NR/pos": MH2 * (ROOT_PI / 2.0) * (1.0 - math.exp(-rate * rho)) / rate
        * (rho + math.sin(rH * rho) / rH),
        "NR/neg": MH2 * ROOT_PI * (1.0 - math.exp(-(rH + rate) * rho)) / (rH + rate),
    }


def _cases(H, K, rho, nu=0.0):
    """(space, signed H, rho_star, nu) of each regime."""
    flat, hyp = flat_space(), hyperbolic_space(K)
    return {
        "NN/zero": (flat, 0.0, rho, nu),
        "NN/pos": (flat, H, rho, nu),
        "NN/neg": (flat, -H, rho, nu),
        "NR/zero": (hyp, 0.0, rho, nu),
        "NR/pos": (hyp, H, rho, nu),
        "NR/neg": (hyp, -H / 2.0, rho, nu),
    }


def test_model_bounds_zero_energy_closed_forms(constants):
    H, K, rho = 1.0, 1.0, 1.0
    forms = _closed_forms(H, K, rho)
    forms["NR/neg"] = (
        MH2 * ROOT_PI
        * (1.0 - math.exp(-(math.sqrt(H / 2.0) + math.sqrt(K) * (1.0 + 1.0 / ROOT_PI)) * rho))
        / (math.sqrt(H / 2.0) + math.sqrt(K) * (1.0 + 1.0 / ROOT_PI))
    )
    for name, case in _cases(H, K, rho).items():
        got = coupling_bound_model(*case, constants)
        assert got == pytest.approx(forms[name], rel=1e-12), name


def test_model_bounds_continuous_at_zero_except_volume_case(constants):
    # five regimes are continuous as nu -> 0; the negative-Ricci flat regime
    # deliberately switches to its zero-energy branch at nu = 0
    H, K, rho = 1.0, 1.0, 1.0
    at0 = _cases(H, K, rho, 0.0)
    tiny = _cases(H, K, rho, 1e-7)
    for name in ("NN/zero", "NN/pos", "NN/neg", "NR/pos", "NR/neg"):
        a = coupling_bound_model(*at0[name], constants)
        b = coupling_bound_model(*tiny[name], constants)
        assert abs(a - b) / a < 1e-6, name
    jump0 = coupling_bound_model(*at0["NR/zero"], constants)
    jump1 = coupling_bound_model(*tiny["NR/zero"], constants)
    assert abs(jump0 - jump1) / jump0 > 0.5


def test_model_bound_unit_sphere_value(constants, flat):
    # H = 1, rho = pi/2: (m/2 hbar^2)(pi/2 + 1) = 0.642699...
    case = (flat, 1.0, math.pi / 2.0, 0.0)
    assert coupling_bound_model(*case, constants) == pytest.approx(
        0.25 * (math.pi / 2.0 + 1.0), rel=1e-14
    )


def test_model_bound_domain_errors(constants, flat):
    with pytest.raises(OutOfChartError):
        coupling_bound_model(flat, 1.0, math.pi, 0.0, constants)
    with pytest.raises(UnsupportedRegimeError):
        coupling_bound_model(hyperbolic_space(1.0), -1.5, 0.5, 0.0, constants)


def test_model_bound_validation(constants, flat, hyp):
    for space in (flat, hyp):
        for rho_star, nu in ((0.0, 0.0), (1.0, -1.0), (math.inf, 0.0), (1.0, math.nan)):
            with pytest.raises(InvalidArgumentError):
                coupling_bound_model(space, 0.0, rho_star, nu, constants)
        for H in (math.nan, math.inf, -math.inf):
            with pytest.raises(InvalidArgumentError):
                coupling_bound_model(space, H, 1.0, 0.0, constants)
    # the space carries K, and a space-form regime needs K > 0
    with pytest.raises(InvalidArgumentError):
        hyperbolic_space(0.0)


def test_critical_coupling_richardson(constants, flat, sphere32):
    # P(nu) = 2mR/hbar^2 - O(nu), so the floor error halves with the floor
    e1 = abs(critical_coupling_exact(sphere32, flat, constants, 1e-4) - 1.0)
    e2 = abs(critical_coupling_exact(sphere32, flat, constants, 5e-5) - 1.0)
    assert e1 < 1e-3
    assert e1 / e2 == pytest.approx(2.0, rel=1e-2)
    with pytest.raises(InvalidArgumentError):
        critical_coupling_exact(sphere32, flat, constants, 0.0)
    with pytest.raises(InvalidArgumentError):
        critical_coupling_exact(sphere32, flat, constants, 0.1)


def test_diameter_bound(constants, flat, sphere16, torus16):
    # m * area / (2 pi hbar^2 D) = 0.5 for the unit sphere
    assert coupling_bound_diameter(sphere16, constants, 0.0) == pytest.approx(0.5, rel=1e-14)
    damped = coupling_bound_diameter(sphere16, constants, 1.0)
    assert damped == pytest.approx(0.5 * math.exp(-2.0), rel=1e-14)
    with pytest.raises(InvalidArgumentError):
        coupling_bound_diameter(sphere16, constants, -1.0)
    # both shapes: the floor stays below the exact threshold
    for mesh in (sphere16, torus16):
        exact = critical_coupling_exact(mesh, flat, constants, 1e-4)
        assert coupling_bound_diameter(mesh, constants, 0.0) <= exact


def test_deformation_lower_bound(constants):
    got = deformation_lower_bound(1.0, 1.0, 0.5, constants)
    assert got == pytest.approx(math.sqrt(0.5) / math.sin(0.5), rel=1e-14)
    with pytest.raises(InvalidArgumentError):
        deformation_lower_bound(0.0, 1.0, 0.5, constants)
    with pytest.raises(InvalidArgumentError):
        deformation_lower_bound(1.0, -1.0, 0.5, constants)
    with pytest.raises(InvalidArgumentError):
        deformation_lower_bound(1.0, 1.0, 1.5, constants)
    with pytest.raises(InvalidArgumentError):
        deformation_lower_bound(1.0, 2.0 * math.pi, 0.5, constants)


def test_diagonal_envelope_below_sphere_diagonal(constants):
    nu_star = 1.0
    for nu in (1.2, 1.7, 2.5, 4.0):
        env = diagonal_lower_envelope(1.0, math.pi / 2.0, nu_star, nu, constants)
        diag = sphere_pair_integral_exact(
            SphereOracleInput(R=1.0, nu=nu_star)
        ) - sphere_pair_integral_exact(SphereOracleInput(R=1.0, nu=nu))
        assert 0.0 < env <= diag


def test_diagonal_envelope_below_torus_diagonal(constants, flat, torus16):
    meta = torus16.meta
    nu_star = 1.0
    base = pair_integral(torus16, torus16, flat, constants, nu_star)
    for nu in (1.2, 2.0, 3.5):
        env = diagonal_lower_envelope(meta.H_lower, meta.rho_min, nu_star, nu, constants)
        diag = base - pair_integral(torus16, torus16, flat, constants, nu)
        assert 0.0 < env <= diag


def test_diagonal_envelope_monotone_and_flat_regime(constants):
    vals = [diagonal_lower_envelope(0.0, 1.0, 0.5, nu, constants) for nu in (0.6, 1.0, 2.0, 5.0)]
    assert all(b > a for a, b in zip(vals, vals[1:]))
    with pytest.raises(InvalidArgumentError):
        diagonal_lower_envelope(1.0, 0.0, 0.5, 1.0, constants)
    with pytest.raises(InvalidArgumentError):
        diagonal_lower_envelope(1.0, 1.0, 2.0, 1.0, constants)  # nu < nu_star
    with pytest.raises(OutOfChartError):
        diagonal_lower_envelope(4.0, 1.5, 0.5, 1.0, constants)  # tan blowup range


def test_offdiagonal_envelope_caps_pair_integral(constants, flat):
    a = build_surface(Sphere((0.0, 0.0, 0.0), 1.0), order=16)
    b = build_surface(Sphere((4.0, 0.0, 0.0), 1.0), order=16)
    kc = KernelBoundConstants(1.0, 1.0, 1.0)
    prev = math.inf
    for nu in (0.5, 1.0, 2.0):
        p12 = pair_integral(a, b, flat, constants, nu)
        env = offdiagonal_upper_envelope(a.area, b.area, 2.0, nu, constants, kc)
        env_vol = offdiagonal_upper_envelope(a.area, b.area, 2.0, nu, constants, kc, V_M=100.0)
        assert p12 <= env <= env_vol
        assert env < prev  # decreasing in nu
        prev = env
    # at C2 = C3 = 1 and infinite volume the cap is sqrt(A_i A_j) G_nu(s)
    nu, s = 1.0, 2.0
    g = constants.mass / (2.0 * math.pi * constants.hbar**2) * math.exp(-nu * s) / s
    got = offdiagonal_upper_envelope(a.area, b.area, s, nu, constants, kc)
    assert got == pytest.approx(math.sqrt(a.area * b.area) * g, rel=1e-14)
    with pytest.raises(InvalidArgumentError):
        offdiagonal_upper_envelope(a.area, b.area, 0.0, 1.0, constants, kc)
    with pytest.raises(InvalidArgumentError):
        offdiagonal_upper_envelope(a.area, b.area, 2.0, 0.0, constants, kc)


def test_gersgorin_single_surface_exact(constants, flat, sphere16):
    got = gersgorin_energy_bound([sphere16], CouplingSpec.from_nu_stars(1.3), flat, constants)
    assert got == -(1.3**2)


def test_gersgorin_bounds_ground_state(constants, flat, sphere16):
    other = build_surface(Sphere((4.0, 0.0, 0.0), 1.0), order=16)
    spec = CouplingSpec.from_nu_stars(1.0, 1.0)
    e_star = gersgorin_energy_bound([sphere16, other], spec, flat, constants)
    e_gr = solve_ground_state([sphere16, other], spec, flat, constants).energy
    assert e_star <= e_gr + 1e-10
    # for an identical pair the 2x2 disk bound is tight
    assert e_star == pytest.approx(e_gr, abs=1e-8)
    # a tolerance below machine precision runs to full precision, not an error
    tight = gersgorin_energy_bound([sphere16, other], spec, flat, constants, tol=1e-16)
    assert tight == pytest.approx(e_star, abs=1e-9)


def test_gersgorin_touching_spheres(constants, flat):
    a = build_surface(Sphere((0.0, 0.0, 0.0), 1.0), order=12)
    b = build_surface(Sphere((2.0, 0.0, 0.0), 1.0), order=12)
    spec = CouplingSpec.from_nu_stars(1.0, 1.0)
    e_star = gersgorin_energy_bound([a, b], spec, flat, constants)
    e_gr = solve_ground_state([a, b], spec, flat, constants).energy
    assert math.isfinite(e_star)
    assert e_star <= e_gr + 1e-10


def test_gersgorin_sums_each_nu_star_self_integral_once(constants, flat, monkeypatch):
    a = build_surface(Sphere((0.0, 0.0, 0.0), 1.0), order=8)
    b = build_surface(Sphere((4.0, 0.0, 0.0), 1.0), order=8)
    at = []
    for module in (bounds, principal):
        inner = module.pair_integral

        def counted(*args, inner=inner):
            at.append(args[-1])
            return inner(*args)

        monkeypatch.setattr(module, "pair_integral", counted)
    gersgorin_energy_bound([a, b], CouplingSpec.from_nu_stars(0.8, 1.1), flat, constants)
    assert sorted(at) == [0.8, 1.1]


def test_gersgorin_validation(constants, flat, sphere16):
    with pytest.raises(InvalidArgumentError):
        gersgorin_energy_bound([sphere16], CouplingSpec.from_lambdas(2.0), flat, constants)
    with pytest.raises(InvalidArgumentError):
        gersgorin_energy_bound([], CouplingSpec(()), flat, constants)
    with pytest.raises(InvalidArgumentError):
        gersgorin_energy_bound([sphere16], CouplingSpec.from_nu_stars(1.0, 1.0), flat, constants)


# The disk-separation search on four systems: (order, surfaces as
# (shape, centre, size), nu*, at most this many gap evaluations, f(lo)
# included).
GERSGORIN_CASES = {
    "two spheres D=4 n24": (24, (("s", (0, 0, 0)), ("s", (4, 0, 0))), (1.0, 1.0), 4),
    "touching n16": (16, (("s", (0, 0, 0)), ("s", (2, 0, 0))), (1.0, 1.0), 5),
    "three n16": (
        16, (("s", (0, 0, 0)), ("s", (4, 0, 0)), ("s", (8, 0, 0))), (1.0, 0.8, 1.2), 4
    ),
    "sphere torus n16": (16, (("s", (0, 0, 0)), ("t", (5, 0, 0))), (1.0, 1.0), 4),
}


def _gersgorin_system(case):
    order, shapes, stars, max_evals = GERSGORIN_CASES[case]
    build = {"s": lambda c: Sphere(c, 1.0), "t": lambda c: Torus(c, 2.0, 0.5)}
    meshes = [build_surface(build[kind](c), order=order) for kind, c in shapes]
    return meshes, CouplingSpec.from_nu_stars(*stars), max_evals


def _pair_integral_gap(meshes, stars, flat, constants):
    """The disk-separation gap summed entry by entry from pair_integral."""
    n = len(meshes)
    base = [pair_integral(m, m, flat, constants, ns) for m, ns in zip(meshes, stars)]

    def gap(nu):
        p = [pair_integral(m, m, flat, constants, nu) for m in meshes]
        radius = max(
            min(pair_integral(meshes[i], meshes[j], flat, constants, nu), math.sqrt(p[i] * p[j]))
            for i in range(n) for j in range(i + 1, n)
        )
        return min(b - q for b, q in zip(base, p)) - (n - 1) * radius

    return gap


def _recorded_gap(monkeypatch):
    """Patch bounds._monotone_root to keep the gap function it is given."""
    gaps = []
    inner = bounds._monotone_root

    def recorded(f, *args):
        gaps.append(f)
        return inner(f, *args)

    monkeypatch.setattr(bounds, "_monotone_root", recorded)
    return gaps


@pytest.mark.parametrize("case", GERSGORIN_CASES)
def test_gersgorin_matches_brentq_on_pair_integrals(constants, flat, monkeypatch, case):
    from scipy.optimize import brentq

    meshes, spec, max_evals = _gersgorin_system(case)
    stars = [cp.nu_star for cp in spec.items]
    gap = _pair_integral_gap(meshes, stars, flat, constants)
    lo = max(stars)
    hi = max(2.0 * lo, 1.0)
    while gap(hi) <= 0.0:
        lo, hi = hi, 2.0 * hi
    nu_ref = brentq(gap, lo, hi, xtol=1e-14)

    calls = []
    inner = bounds._kernel_matrices

    def counted(*args):
        calls.append(args)
        return inner(*args)

    monkeypatch.setattr(bounds, "_kernel_matrices", counted)
    e_star = gersgorin_energy_bound(meshes, spec, flat, constants)
    assert len(calls) <= max_evals
    # the search tolerance, tol (1 + nu) at tol = 1e-10
    assert abs(math.sqrt(-e_star) - nu_ref) <= 1e-10 * (1.0 + nu_ref)


@pytest.mark.parametrize(
    "case, piece",
    [("touching n16", "direct"), ("three n16", "direct"), ("touching n16", "cap")],
)
def test_gersgorin_gap_slope_matches_central_differences(constants, flat, monkeypatch, case, piece):
    # Equal surfaces with equal nu* tie their diagonals with equal slopes;
    # the sphere-torus pair would tie two slopes at nu*, a kink.
    meshes, spec, _ = _gersgorin_system(case)
    if piece == "cap":
        # The cap sqrt(P_ii P_jj) lies above every direct entry of these
        # disjoint surfaces (Cauchy-Schwarz), so off-diagonals scaled by 10
        # stand in for a quadrature that overestimates them.
        inner = bounds._kernel_matrices

        def inflated(*args):
            scale = np.where(np.eye(len(meshes), dtype=bool), 1.0, 10.0)
            return inner(*args) * scale  # P and dP/dnu alike

        monkeypatch.setattr(bounds, "_kernel_matrices", inflated)
    gaps = _recorded_gap(monkeypatch)
    gersgorin_energy_bound(meshes, spec, flat, constants)
    (gap,) = gaps
    stars = [cp.nu_star for cp in spec.items]
    for nu in (max(stars), 1.5 * max(stars)):
        P = bounds._kernel_matrices(meshes, flat, constants, nu)[0]
        p = [pair_integral(m, m, flat, constants, nu) for m in meshes]
        n = len(meshes)
        # every pair's radius, and so the largest, is the named piece
        assert {
            P[i, j] < math.sqrt(p[i] * p[j])
            for i in range(n) for j in range(i + 1, n)
        } == {piece == "direct"}
        h = 1e-5 * nu
        fd = (gap(nu + h)[0] - gap(nu - h)[0]) / (2.0 * h)
        assert gap(nu)[1] == pytest.approx(fd, rel=1e-6)


def test_finiteness_certificate_torus(constants, flat, torus16):
    kc = KernelBoundConstants(1.0, 1.0, 1.0)
    nu_star = 1.0
    base = pair_integral(torus16, torus16, flat, constants, nu_star)
    totals = []
    for nu in (1.5, 2.5, 4.0):
        cert = finiteness_certificate(torus16, flat, constants, kc, math.inf, nu_star, nu)
        diag = base - pair_integral(torus16, torus16, flat, constants, nu)
        assert cert.term_I == 0.0  # infinite ambient volume drops term I
        assert cert.term_II > 0.0
        assert cert.total == cert.term_I + cert.term_II
        assert diag <= cert.total * (1.0 + 1e-12)
        totals.append(cert.total)
    assert all(b > a for a, b in zip(totals, totals[1:]))
    with_vol = finiteness_certificate(torus16, flat, constants, kc, 50.0, nu_star, 2.0)
    assert with_vol.term_I > 0.0


def test_finiteness_certificate_validation(constants, flat, torus16, sphere16):
    kc = KernelBoundConstants(1.0, 1.0, 1.0)
    with pytest.raises(InvalidArgumentError):
        finiteness_certificate(torus16, flat, constants, kc, math.inf, 2.0, 1.0)
    with pytest.raises(InvalidArgumentError):
        # spheres have no negative sectional floor
        finiteness_certificate(sphere16, flat, constants, kc, math.inf, 1.0, 2.0)


@pytest.mark.parametrize(
    "V_M", [math.nan, -1.0, 0.0, -math.inf], ids=["nan", "negative", "zero", "-inf"]
)
def test_bounds_with_a_volume_term_reject_a_bad_volume(constants, flat, V_M):
    # every evaluator with a C1 / V_M term takes V_M > 0, or inf for a
    # noncompact manifold, and nothing else
    kc = KernelBoundConstants(1.0, 1.0, 1.0)
    torus = build_surface(Torus((0.0, 0.0, 0.0), 2.0, 0.5), order=8)
    area = 4.0 * math.pi
    with pytest.raises(InvalidArgumentError, match="V_M"):
        heat_kernel_upper_bound(kc, V_M, constants, 1.0, 1.0)
    with pytest.raises(InvalidArgumentError, match="V_M"):
        offdiagonal_upper_envelope(area, area, 2.0, 1.0, constants, kc, V_M)
    with pytest.raises(InvalidArgumentError, match="V_M"):
        finiteness_certificate(torus, flat, constants, kc, V_M, 1.0, 2.0)


def test_space_form_jacobian():
    assert space_form_jacobian(0.0, 0.7) == 0.7
    assert space_form_jacobian(4.0, 0.5) == pytest.approx(math.sin(1.0) / 2.0, rel=1e-15)
    assert space_form_jacobian(-4.0, 0.5) == pytest.approx(math.sinh(1.0) / 2.0, rel=1e-15)
    with pytest.raises(InvalidArgumentError):
        space_form_jacobian(1.0, 0.0)
    with pytest.raises(OutOfChartError):
        space_form_jacobian(1.0, math.pi)


@pytest.mark.parametrize(
    "call",
    [
        lambda c, mesh: coupling_bound_diameter(mesh, c, math.nan),
        lambda c, mesh: diagonal_lower_envelope(-1.0, math.inf, 1.0, 2.0, c),
        lambda c, mesh: diagonal_lower_envelope(math.nan, 1.0, 1.0, 2.0, c),
        lambda c, mesh: diagonal_lower_envelope(math.inf, 1.0, 1.0, 2.0, c),
        lambda c, mesh: space_form_jacobian(math.nan, 1.0),
        lambda c, mesh: space_form_jacobian(-math.inf, 1.0),
    ],
    ids=[
        "diameter-nan-nu",
        "envelope-inf-rho",
        "envelope-nan-H",
        "envelope-inf-H",
        "jacobian-nan-K",
        "jacobian-inf-K",
    ],
)
def test_closed_form_bounds_reject_non_finite_input(constants, sphere16, call):
    with pytest.raises(InvalidArgumentError):
        call(constants, sphere16)


def _steep_torus():
    """A torus whose curvature data claim a floor of -1e6 over radius 1e3."""
    meta = SurfaceCurvatureMeta(0.4, -1e6, 1e3, 1e3, 0.5, 1.0)
    return build_surface(Torus((0.0, 0.0, 0.0), 2.0, 0.5), order=8, meta=meta)


@pytest.mark.parametrize(
    "call",
    [
        lambda c: coupling_bound_model(flat_space(), -1e6, 1e3, 0.0, c),
        lambda c: space_form_jacobian(-1e6, 1e3),
        lambda c: diagonal_lower_envelope(-1e6, 1e3, 1.0, 2.0, c),
        lambda c: finiteness_certificate(
            _steep_torus(), flat_space(), c, KernelBoundConstants(1.0, 1.0, 1.0),
            math.inf, 1.0, 2.0,
        ),
    ],
    ids=["model", "jacobian", "envelope", "certificate"],
)
def test_closed_forms_past_the_float_range_are_unsupported(constants, call):
    # sqrt(1e6) * 1e3 sets exponents far past the ~710 where expm1, sinh
    # and cosh overflow: an unsupported regime, not an OverflowError
    with pytest.raises(UnsupportedRegimeError, match="exponent"):
        call(constants)
