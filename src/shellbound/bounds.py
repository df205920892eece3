"""Closed-form coupling thresholds, spectral floors, and finiteness caps.

Everything in this module is an explicit scalar formula except the
Gersgorin root search, which works with the actual entries of the principal
matrix and their nu-slopes: each P_ii(nu*) summed once, and the P_ij(nu)
with their slopes from principal._kernel_matrices, one kernel pass per
surface pair.  Its gap is a minimum of diagonals minus a maximum of radii,
each radius a minimum of two convex curves, so it is increasing but not
concave in nu; the Newton search of the ground state (_monotone_root)
takes it with the slope of its active piece, and the search's bracket
safeguard covers the non-concave stretches.  The closed-form envelope
evaluators are kept alongside it so the two routes can be compared; they
must never be merged into one code path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import (
    InvalidArgumentError,
    InvalidStateError,
    NoConvergenceError,
    OutOfChartError,
    UnsupportedRegimeError,
)
from .geometry import AmbientSpace, PhysicalConstants, SurfaceMesh
from .kernels import KernelBoundConstants, _check_volume, _decay_rate
from .principal import (
    _NU_CEIL,
    CouplingSpec,
    _kernel_matrices,
    _monotone_root,
    _validate_system,
    pair_integral,
)


@dataclass(frozen=True)
class FinitenessCertificate:
    """Split upper cap I + II on a diagonal principal-matrix entry."""

    term_I: float
    term_II: float

    def __post_init__(self):
        for name, val in (("term_I", self.term_I), ("term_II", self.term_II)):
            if not (math.isfinite(val) and val >= 0.0):
                raise InvalidStateError(
                    f"{name} must be finite and nonnegative, got {val}"
                )

    @property
    def total(self) -> float:
        return self.term_I + self.term_II


def _one_minus_exp_over(a: float, x: float) -> float:
    # (1 - exp(-a x)) / x, continued by its limit a at x = 0.
    if x == 0.0:
        return a
    return -math.expm1(-a * x) / x


def _expm1_over(y: float, rho: float) -> float:
    # (exp(y rho) - 1) / y, continued by its limit rho at y = 0.
    if y == 0.0:
        return rho
    return _growing(math.expm1, y * rho) / y


def _growing(fn, x: float) -> float:
    """fn(x) for math.expm1, sinh or cosh; an exponent past the float range
    (about 710) is an unsupported regime, not an OverflowError."""
    try:
        return fn(x)
    except OverflowError:
        raise UnsupportedRegimeError(f"{fn.__name__} overflows at exponent {x}") from None


def _check_conjugate(root_H: float, rho: float) -> None:
    if root_H * rho >= math.pi:
        raise OutOfChartError(
            f"rho_star={rho} reaches the conjugate locus at {math.pi / root_H}"
        )


def space_form_jacobian(K_signed: float, r: float) -> float:
    """Volume element of the exponential map in the constant-curvature model."""
    if not math.isfinite(K_signed):
        raise InvalidArgumentError(f"K_signed must be finite, got {K_signed}")
    if not r > 0.0:
        raise InvalidArgumentError(f"r must be positive, got {r}")
    if K_signed > 0.0:
        root = math.sqrt(K_signed)
        _check_conjugate(root, r)
        return math.sin(root * r) / root
    if K_signed < 0.0:
        root = math.sqrt(-K_signed)
        return _growing(math.sinh, root * r) / root
    return r


# The nu that stands in for nu -> 0 in critical_coupling_exact
_THRESHOLD_NU = 1e-4


def critical_coupling_exact(
    mesh: SurfaceMesh, space: AmbientSpace, constants: PhysicalConstants
) -> float:
    """Coupling threshold of a lone surface: the pair integral at nu -> 0.

    The integrand is continuous at nu = 0 for a compact surface, so the
    pair integral at the small positive _THRESHOLD_NU stands in for the
    limit, with a first-order bias (1e-4 relative for the unit sphere).
    """
    return pair_integral(mesh, mesh, space, constants, _THRESHOLD_NU)


def coupling_bound_diameter(
    mesh: SurfaceMesh, constants: PhysicalConstants, nu: float
) -> float:
    """Diameter-based floor on the coupling threshold of one surface."""
    if not nu >= 0.0:
        raise InvalidArgumentError(f"nu must be nonnegative, got {nu}")
    m, hbar = constants.mass, constants.hbar
    d = mesh.diameter_ambient
    damp = math.exp(-constants.kappa_factor * nu * d)
    return m * mesh.area * damp / (2.0 * math.pi * hbar * hbar * d)


def coupling_bound_model(
    space: AmbientSpace,
    H: float,
    rho_star: float,
    nu: float,
    constants: PhysicalConstants,
) -> float:
    """Closed-form floor on the coupling threshold for one curvature regime.

    Flat space stands for ambient Ricci curvature bounded below by zero,
    hyperbolic space for a space form of curvature -K. H is the surface
    sectional curvature, sign included; its sign selects the zero, positive
    or negative surface regime. rho_star is the geodesic radius entering
    the volume-comparison step and nu the spectral parameter; nu = 0
    returns the zero-energy value of the bound.
    """
    if not math.isfinite(H):
        raise InvalidArgumentError(f"H must be finite, got {H}")
    if not 0.0 < rho_star < math.inf:
        raise InvalidArgumentError(
            f"rho_star must be positive and finite, got {rho_star}"
        )
    if not nu >= 0.0:
        raise InvalidArgumentError(f"nu must be nonnegative, got {nu}")
    m, hbar = constants.mass, constants.hbar
    rho = rho_star
    kappa = constants.kappa_factor * nu
    mh2 = m / (hbar * hbar)

    if space.is_flat:
        if H == 0.0:
            return mh2 * _one_minus_exp_over(rho, kappa)
        if H > 0.0:
            root_H = math.sqrt(H)
            _check_conjugate(root_H, rho)
            shape = _one_minus_exp_over(rho, kappa) / rho
            return (
                mh2 / (2.0 * root_H) * shape * (root_H * rho + math.sin(root_H * rho))
            )
        b = 0.5 * math.sqrt(-H)
        return 0.5 * mh2 * (
            _expm1_over(b - kappa, rho) + _expm1_over(-(b + kappa), rho)
        )

    K = space.curvature_K
    root_K = math.sqrt(K)
    root_pi = math.sqrt(math.pi)
    q = _decay_rate(space, constants, nu)[0] / root_pi
    if H == 0.0:
        if nu == 0.0:
            # Zero-energy value of this regime; note it is not the nu -> 0
            # limit of the branch below, which keeps a 1 - exp factor.
            return (mh2 * math.pi / (1.0 + root_pi)) * math.exp(
                -root_K * (1.0 + root_pi) * rho / root_pi
            )
        return mh2 * root_pi * root_K * _one_minus_exp_over(rho, root_K + q)
    if H > 0.0:
        root_H = math.sqrt(H)
        _check_conjugate(root_H, rho)
        return (
            mh2
            * (root_pi / 2.0)
            * _one_minus_exp_over(rho, root_K + q)
            * (rho + math.sin(root_H * rho) / root_H)
        )
    if -H >= K:
        raise UnsupportedRegimeError(
            f"negative surface curvature H={H} must stay above the "
            f"ambient curvature -K={-K}"
        )
    root_H = math.sqrt(-H)
    return mh2 * root_pi * _one_minus_exp_over(rho, root_H + root_K + q)


def deformation_lower_bound(
    L: float,
    rho_sup: float,
    chord_arc_factor: float,
    constants: PhysicalConstants,
) -> float:
    """Floor on the critical coupling of a surface with curvature floor -L."""
    if not L > 0.0:
        raise InvalidArgumentError(f"L must be positive, got {L}")
    if not rho_sup > 0.0:
        raise InvalidArgumentError(f"rho_sup must be positive, got {rho_sup}")
    if not 0.0 < chord_arc_factor <= 1.0:
        raise InvalidArgumentError(
            f"chord_arc_factor must lie in (0, 1], got {chord_arc_factor}"
        )
    root_L = math.sqrt(L)
    if not root_L * rho_sup < 2.0 * math.pi:
        raise InvalidArgumentError(
            f"sqrt(L) * rho_sup = {root_L * rho_sup} must stay below 2*pi"
        )
    m, hbar = constants.mass, constants.hbar
    return (
        (hbar * hbar / (2.0 * m))
        * math.sqrt(chord_arc_factor * L)
        / math.sin(0.5 * root_L * rho_sup)
    )


def diagonal_lower_envelope(
    H_signed: float,
    rho_star: float,
    nu_star: float,
    nu: float,
    constants: PhysicalConstants,
) -> float:
    """Closed-form floor for a diagonal entry at spectral parameter nu.

    H_signed is the surface sectional curvature (sign included); rho_star
    the geodesic radius of the volume-comparison step. Increasing in nu on
    [nu_star, inf) in every regime, which is what makes the monotone root
    search in gersgorin_energy_bound legitimate against this envelope.
    """
    if not math.isfinite(H_signed):
        raise InvalidArgumentError(f"H_signed must be finite, got {H_signed}")
    if not 0.0 < rho_star < math.inf:
        raise InvalidArgumentError(
            f"rho_star must be positive and finite, got {rho_star}"
        )
    if not 0.0 <= nu_star <= nu:
        raise InvalidArgumentError(
            f"need 0 <= nu_star <= nu, got nu_star={nu_star}, nu={nu}"
        )
    if not nu > 0.0:
        raise InvalidArgumentError(f"nu must be positive, got {nu}")
    m, hbar = constants.mass, constants.hbar
    kf = constants.kappa_factor
    if H_signed == 0.0:
        a = kf * rho_star
        return (0.5 * kf) * (
            _one_minus_exp_over(a, nu_star) - _one_minus_exp_over(a, nu)
        )
    root_H = math.sqrt(abs(H_signed))
    x = root_H * rho_star
    if H_signed > 0.0:
        _check_conjugate(root_H, rho_star)
        X = x - 0.5 * math.tan(0.5 * x)
        if not X > 0.0:
            raise OutOfChartError(
                f"rho_star={rho_star} exceeds the convexity range for "
                f"H={H_signed}"
            )
        hump = 1.0 - math.cos(x)
    else:
        X = x - 0.5 * math.tanh(0.5 * x)
        hump = _growing(math.cosh, x) - 1.0
    c = kf / root_H
    return (
        (m / (hbar * hbar))
        * (hump / root_H)
        * (math.exp(-c * nu_star * X) - math.exp(-c * nu * X))
        / X
    )


def offdiagonal_upper_envelope(
    area_i: float,
    area_j: float,
    separation: float,
    nu: float,
    constants: PhysicalConstants,
    kc: KernelBoundConstants,
    V_M: float = math.inf,
) -> float:
    """Closed-form cap for an off-diagonal entry from the minimum separation.

    Decreasing in nu. Diverges as separation -> 0; the Cauchy-Schwarz cap
    inside gersgorin_energy_bound covers that regime instead.
    """
    if not (area_i > 0.0 and area_j > 0.0):
        raise InvalidArgumentError("surface areas must be positive")
    if not separation > 0.0:
        raise InvalidArgumentError(
            f"separation must be positive, got {separation}"
        )
    if not nu > 0.0:
        raise InvalidArgumentError(f"nu must be positive, got {nu}")
    _check_volume(V_M)
    m, hbar = constants.mass, constants.hbar
    decay = math.sqrt(2.0 * m / (kc.C3 * hbar * hbar))
    vol = 0.0
    if not math.isinf(V_M):
        vol = (kc.C1 / V_M) * (decay * separation / nu + 1.0 / (nu * nu))
    tail = kc.C2 * math.sqrt(kc.C3) * m / (
        2.0 * math.pi * hbar * hbar * separation
    )
    return math.sqrt(area_i * area_j) * (vol + tail) * math.exp(
        -decay * nu * separation
    )


def gersgorin_energy_bound(
    surfaces,
    couplings: CouplingSpec,
    space: AmbientSpace,
    constants: PhysicalConstants,
) -> float:
    """Certified floor E_* <= E_gr from disk separation of the matrix entries.

    Finds the nu where min_i diag = (N-1) max_ij offdiag, where each
    off-diagonal radius is the smaller of the direct quadrature entry and
    its Cauchy-Schwarz cap sqrt(P_ii P_jj). The cap is a guard in case
    quadrature overestimates a near-contact entry; on every accepted system
    measured, touching spheres included, the direct entry was at most 0.46
    of it. Diagonals increase and radii decrease in nu, so the crossing is
    unique, and the search resolves it to 1e-10 (1 + nu). One surface's
    gap is exactly 0 at its nu*, so the search returns -nu*^2 there.
    """
    _validate_system(surfaces, couplings)
    surfaces = tuple(surfaces)
    stars = []
    for cp in couplings.items:
        if cp.nu_star is None:
            raise InvalidArgumentError(
                "the disk bound needs every coupling in nu*-form"
            )
        stars.append(cp.nu_star)
    n = len(surfaces)

    # P_ii(nu*), once: the diagonal of the principal matrix is
    # P_ii(nu*) - P_ii(nu), with slope -dP_ii/dnu.
    base = [
        pair_integral(s, s, space, constants, ns)
        for s, ns in zip(surfaces, stars)
    ]
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]

    def gap(nu: float) -> tuple[float, float]:
        """The gap and its nu-slope, the slope of its active min/max piece."""
        p, dp = _kernel_matrices(surfaces, space, constants, nu).tolist()
        k = min(range(n), key=lambda i: base[i] - p[i][i])
        radius = d_radius = 0.0
        for i, j in pairs:
            r, dr = p[i][j], dp[i][j]
            cs = math.sqrt(p[i][i] * p[j][j])
            if cs < r:
                r = cs  # d sqrt(P_ii P_jj)
                dr = (dp[i][i] * p[j][j] + p[i][i] * dp[j][j]) / (2.0 * cs)
            if r > radius:
                radius, d_radius = r, dr
        return base[k] - p[k][k] - (n - 1) * radius, -dp[k][k] - (n - 1) * d_radius

    # gap(max nu*) <= 0: the coupling attaining max nu* has zero diagonal.
    lo = max(stars)
    nu_g, _ = _monotone_root(
        gap, lo, gap(lo), _NU_CEIL,
        NoConvergenceError(f"no disk separation found with nu up to {_NU_CEIL}"),
        1e-10,
    )
    return -(nu_g * nu_g)


def finiteness_certificate(
    mesh: SurfaceMesh,
    space: AmbientSpace,
    constants: PhysicalConstants,
    kc: KernelBoundConstants,
    V_M: float,
    nu_star: float,
    nu: float,
) -> FinitenessCertificate:
    """Closed-form cap I + II on a diagonal entry, checked against quadrature.

    Applies to surfaces whose curvature metadata records a negative
    sectional floor H_lower = -L; the chord-arc product delta * kappa
    stays below one, which keeps the arc-length substitution monotone.
    """
    if not nu > nu_star > 0.0:
        raise InvalidArgumentError(
            f"need nu > nu_star > 0, got nu={nu}, nu_star={nu_star}"
        )
    _check_volume(V_M)
    meta = mesh.meta
    if not meta.H_lower < 0.0:
        raise InvalidArgumentError(
            "certificate needs a negative sectional-curvature floor, got "
            f"H_lower={meta.H_lower}"
        )
    dk = meta.delta_kappa  # in (0, 1), which SurfaceCurvatureMeta checks
    L = -meta.H_lower
    rho = meta.rho_max
    m, hbar = constants.mass, constants.hbar
    alpha = math.sqrt(2.0 * m * (1.0 - dk) / (kc.C3 * hbar * hbar))
    root_L = math.sqrt(L)
    stretch = _growing(math.sinh, root_L * rho)

    def tri(x: float) -> float:
        # [2 (1 - e^{-alpha x rho}) - alpha x rho e^{-alpha x rho}] / x^3
        ax = alpha * x * rho
        return (-2.0 * math.expm1(-ax) - ax * math.exp(-ax)) / (x * x * x)

    vol = 0.0 if math.isinf(V_M) else 2.0 * math.pi * kc.C1 / V_M
    term_I = (
        vol
        * math.sqrt(kc.C3 * hbar * hbar / (2.0 * m))
        * stretch
        / (root_L * (1.0 - dk))
        * (tri(nu_star) - tri(nu))
    )
    a = alpha * rho
    term_II = (
        (kc.C2 * kc.C3 / (1.0 - dk))
        * math.sqrt(m / (2.0 * hbar * hbar))
        * (stretch / (root_L * rho))
        * (_one_minus_exp_over(a, nu_star) - _one_minus_exp_over(a, nu))
    )
    cert = FinitenessCertificate(term_I=term_I, term_II=term_II)
    phi_ii = pair_integral(mesh, mesh, space, constants, nu_star) - pair_integral(
        mesh, mesh, space, constants, nu
    )
    if phi_ii > cert.total * (1.0 + 1e-12) + 1e-15:
        raise InvalidStateError(
            f"diagonal entry {phi_ii} exceeds the certificate total {cert.total}"
        )
    return cert
