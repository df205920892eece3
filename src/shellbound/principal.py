"""Principal (Krein) matrix assembly and bound-state solving.

For surfaces Sigma_i carrying the rank-one attractive interaction
-(lambda_i/V_i)|Gamma_i><Gamma_i|, the bound-state energies E = -nu**2 are
the zeros of the lowest eigenvalue of the symmetric matrix

    Phi_ii(nu) = 1/lambda_i - P_ii(nu)            (lambda form)
               = P_ii(nu_i*) - P_ii(nu)           (nu* form)
    Phi_ij(nu) = -P_ij(nu)   (i != j)

with P_ij the kernel pair integral (V_i V_j)^{-1/2} int int G_nu, each
summed by _quadrature.double_sum, the one sum entry, which also refuses a
surface outside flat space.  Every P_ij is convex and decreasing in nu and
the off-diagonals are nonpositive, so by Perron-Frobenius the lowest
eigenvalue omega(nu) is a minimum of concave increasing functions
v^T Phi(nu) v over v >= 0: concave and increasing.  Its zero is found by
Newton's method from the left (_monotone_root), which on a concave
increasing function never passes the root.  The slope omega' =
v^T Phi'(nu) v (Hellmann-Feynman) comes from the eigenvector already
solved for omega and from Phi' = dPhi/dnu, which the kernel pass sums
beside Phi.  The same finder serves every crossing in the package: the
Gersgorin gap in bounds and the CLI's area match bring their own exact
slopes, and its bracket safeguard covers their non-concave stretches.
The zero-mode search around it, _ground_state, is the package's only
one: hybrid systems call it with their points' levels as starts, and the
variational zero mode is the lambda-form root (see variational).

A lone surface's coupling solve (energy_from_coupling) runs the same
Newton search in a better variable: the root of g(nu) = -ln(lambda P(nu))
instead of 1/lambda - P(nu).  P is log-convex, so g is concave and
increasing, with the free slope -P'/P, and fewer steps reach the root.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import _quadrature as quad
from .errors import (
    InvalidArgumentError,
    InvalidStateError,
    NoBoundStateError,
    NoConvergenceError,
    UnsupportedRegimeError,
)
from .geometry import AmbientSpace, PhysicalConstants, Point3, SurfaceMesh
from .jacobi import jacobi_eigh
from .kernels import _decay_rate

__all__ = [
    "Coupling",
    "CouplingSpec",
    "PrincipalMatrix",
    "BoundStateResult",
    "pair_integral",
    "assemble_phi",
    "coupling_from_energy",
    "energy_from_coupling",
    "lowest_eigenvalue_flow",
    "solve_ground_state",
    "wavefunction",
]

_NU_FLOOR = 1e-8
_NU_CEIL = 1e4


@dataclass(frozen=True)
class Coupling:
    """Interaction strength of one surface: coupling constant or its
    standalone bound-state parameter, never both."""

    lam: float | None = None
    nu_star: float | None = None

    def __post_init__(self):
        if (self.lam is None) == (self.nu_star is None):
            raise InvalidArgumentError("give exactly one of lam or nu_star")
        if self.lam is not None and not self.lam > 0.0:
            raise InvalidArgumentError(f"coupling must be positive, got {self.lam}")
        if self.nu_star is not None and not self.nu_star > 0.0:
            raise InvalidArgumentError(f"nu_star must be positive, got {self.nu_star}")


@dataclass(frozen=True)
class CouplingSpec:
    items: tuple[Coupling, ...]

    def __post_init__(self):
        # May be empty: point-only hybrid systems carry no surface couplings.
        for it in self.items:
            if not isinstance(it, Coupling):
                raise InvalidArgumentError(f"expected Coupling, got {type(it).__name__}")

    @staticmethod
    def from_lambdas(*lams: float) -> "CouplingSpec":
        return CouplingSpec(tuple(Coupling(lam=float(x)) for x in lams))

    @staticmethod
    def from_nu_stars(*stars: float) -> "CouplingSpec":
        return CouplingSpec(tuple(Coupling(nu_star=float(x)) for x in stars))

    def __len__(self) -> int:
        return len(self.items)


@dataclass(frozen=True, eq=False)
class PrincipalMatrix:
    """Phi at nu, with its slope dPhi/dnu and its eigenpairs eigh = (w, V).

    Construction solves the eigenpairs with jacobi_eigh (LAPACK), whose
    input check, nonempty, square, finite and symmetric to 1e-12 max|Phi|,
    is the matrix's one validation.
    """

    nu: float
    entries: np.ndarray
    slope: np.ndarray
    eigh: tuple[np.ndarray, np.ndarray] = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "eigh", jacobi_eigh(self.entries))

    @property
    def n(self) -> int:
        return self.entries.shape[0]

    def omega_min(self) -> float:
        """Lowest eigenvalue, solved at construction."""
        return float(self.eigh[0][0])

    def omega_slope(self) -> float:
        """d omega_min / dnu = v^T slope v for the lowest eigenvector v
        (Hellmann-Feynman), from the eigenpairs omega_min solves."""
        v = self.eigh[1][:, 0]
        return float(v @ self.slope @ v)


@dataclass(frozen=True)
class BoundStateResult:
    energy: float
    nu_star: float
    weights: np.ndarray
    converged: bool
    iterations: int
    residual: float


# double_sum's flat-space check, which HybridSystem makes when it is built
_check_flat = quad._check_flat


def _kernel_matrices(channels, space, constants, nu, order=1):
    """P and its nu-derivatives up to order over the channels, surfaces
    first and then points (Point3), stacked as an (order + 1, n, n) array:
    entry (i, j) of the k-th is d^k P_ij / dnu^k (quad.double_sum), with
    a point one node of weight 1 and V = 1.  A point's own entry is 0.

    Each distinct self-integral is summed once.  Surfaces of one form at
    one scale share their cached self-integral geometry (see _quadrature),
    so with equal areas their sums are bitwise equal, and the first one's
    serve the others.
    """
    n = len(channels)
    mats = np.zeros((order + 1, n, n))
    passes = {}
    for i, a in enumerate(channels):
        for j in range(i, n):
            if i == j and isinstance(a, Point3):
                continue
            # a self-integral is keyed by what fixes its value, a pair by place
            key = (a.form, a.scale, a.area) if j == i else (i, j)
            if key not in passes:
                passes[key] = quad.double_sum(a, channels[j], space, constants, nu, order)
            mats[:, i, j] = mats[:, j, i] = passes[key]
    return mats


def pair_integral(
    mesh_i: SurfaceMesh,
    mesh_j: SurfaceMesh,
    space: AmbientSpace,
    constants: PhysicalConstants,
    nu: float,
) -> float:
    """(V_i V_j)^{-1/2} double surface integral of the static kernel."""
    return quad.double_sum(mesh_i, mesh_j, space, constants, nu, 0)[0]


def _monotone_root(f, lo, f_lo, ceil, error, tol):
    """Crossing of an increasing f in [lo, ceil] by Newton's method from the
    left, given f_lo = f(lo) with f_lo[0] <= 0.

    f(x) returns (f(x), f'(x)).  On a concave f each Newton step from a
    point with f <= 0 lands at or below the root, so the iterates rise to
    it monotonically and quadratically (Ortega & Rheinboldt 1970, ch. 13).
    A step that would reach ceil evaluates ceil instead and raises error if
    f(ceil) <= 0.  Once some point has f > 0, which a concave f gives only
    by rounding next to the root, the search keeps the bracket between the
    last point with f <= 0 and the least with f > 0, steps from the latest
    point, and bisects when a step would leave the bracket (Numerical
    Recipes' rtsafe); a convex f, whose step from the left passes the root,
    converges from the right this way.  Stops at the first evaluated point
    whose step is at most (tol + rtol |x|) / 2, with rtol = max(tol, 4 eps)
    since no step resolves much below one ulp of the root, and returns
    (that point, number of evaluations, the caller's f(lo) included).
    Raises error on a NaN value or after 100 evaluations of its own.
    """
    rtol = max(tol, 4.0 * np.finfo(float).eps)
    x, (f_x, slope) = lo, f_lo
    a, b = lo, None  # last point with f <= 0, least with f > 0
    for evals in range(1, 101):
        delta = (tol + rtol * abs(x)) / 2
        step = -f_x / slope if slope > 0.0 else -math.copysign(math.inf, f_x)
        if f_x == 0.0 or abs(step) <= delta:
            return x, evals
        if b is None:
            x = min(x + step, ceil)
        elif a < x + step < b:
            x += step
        elif (b - a) / 2 <= delta:
            return x, evals
        else:
            x = a + (b - a) / 2
        f_x, slope = f(x)
        if math.isnan(f_x):
            raise error
        if f_x > 0.0:
            b = x
        elif x == ceil:
            raise error
        else:
            a = x
    raise error


def _validate_system(surfaces, couplings: CouplingSpec) -> None:
    if len(surfaces) == 0:
        raise InvalidArgumentError("need at least one surface")
    if len(couplings) != len(surfaces):
        raise InvalidArgumentError(
            f"{len(surfaces)} surfaces but {len(couplings)} couplings"
        )


def assemble_phi(
    surfaces,
    couplings: CouplingSpec,
    space: AmbientSpace,
    constants: PhysicalConstants,
    nu: float,
) -> PrincipalMatrix:
    """Principal matrix at spectral parameter nu (energy -nu**2), with its
    slope dPhi/dnu, -dP/dnu from the same kernel pass off the diagonal.

    A nu*-form diagonal's P_ii(nu*) is a constant of nu, summed without its
    slope, once per call for each distinct surface and nu*; at nu* = nu it
    is the pass's own P_ii(nu).
    """
    _validate_system(surfaces, couplings)
    A, slope, _ = _phi_arrays(tuple(surfaces), couplings, space, constants, nu)
    return PrincipalMatrix(nu, A, slope)


def _point_diagonal(constants: PhysicalConstants, space: AmbientSpace, mu: float, nu: float):
    """The point diagonal c (gamma(nu) - gamma(mu)) and its nu-slope
    c gamma'(nu), with c = 2 sqrt(pi) (m / 2 pi hbar^2)^{3/2} / kappa_f."""
    m, hbar = constants.mass, constants.hbar
    c = 2.0 * math.sqrt(math.pi) * (m / (2.0 * math.pi * hbar * hbar)) ** 1.5
    c = c / constants.kappa_factor
    gamma_nu, rate_slope = _decay_rate(space, constants, nu)
    return c * (gamma_nu - _decay_rate(space, constants, mu)[0]), c * rate_slope


def _phi_arrays(surfaces, couplings, space, constants, nu, points=()):
    """(entries, slope, P) at nu, P the kernel matrix, without the eigen
    solve: surfaces first, then points (hybrid.PointSource).  Off the
    diagonal, entries are -P and slopes -dP/dnu; a diagonal is
    1/lambda_i - P_ii, P_ii(nu_i*) - P_ii, or a point's c (gamma(nu) -
    gamma(mu)).  Points alone may sit in hyperbolic space, surfaces not
    (quad.double_sum checks).
    """
    P, dP = _kernel_matrices((*surfaces, *(p.position for p in points)), space, constants, nu)
    A, B = -P, -dP
    stars = {}
    for i, (mesh, cp) in enumerate(zip(surfaces, couplings.items)):
        if cp.lam is not None:
            A[i, i] += 1.0 / cp.lam
            continue
        key = (mesh.form, mesh.scale, mesh.area, cp.nu_star)
        if key not in stars:
            at = cp.nu_star
            stars[key] = P[i, i] if at == nu else pair_integral(mesh, mesh, space, constants, at)
        A[i, i] += stars[key]
    for k, p in enumerate(points, len(surfaces)):
        A[k, k], B[k, k] = _point_diagonal(constants, space, p.mu, nu)
    return A, B, P


def coupling_from_energy(
    mesh: SurfaceMesh,
    space: AmbientSpace,
    constants: PhysicalConstants,
    nu_star: float,
) -> float:
    """Coupling whose standalone bound state sits at energy -nu_star**2,
    1 / P(nu_star); a P that underflows to 0 is an unsupported regime."""
    if not nu_star > 0.0:
        raise InvalidArgumentError(f"nu_star must be positive, got {nu_star}")
    p = pair_integral(mesh, mesh, space, constants, nu_star)
    if p == 0.0:
        raise UnsupportedRegimeError(f"the pair integral underflows at nu_star = {nu_star}")
    return 1.0 / p


def energy_from_coupling(
    mesh: SurfaceMesh,
    space: AmbientSpace,
    constants: PhysicalConstants,
    lam: float,
) -> float | None:
    """Standalone bound-state parameter nu* for one surface, or None.

    Returns None when the coupling is at or below the critical value (the
    pair integral at nu -> 0 caps 1/lambda for a bound state to form).

    nu* is the root of g(nu) = -ln(lambda P(nu)), P = P_ii.  P is a positive
    sum of decaying exponentials in nu, so it is log-convex, and g is
    concave and increasing: Newton's method from the left (_monotone_root)
    rises to the root, with the slope g' = -P'/P from the same kernel pass.
    Its first step from the floor is the Jensen bound nu_0 + ln(lambda P) /
    (kappa_f <d>), <d> the mean distance under the weights of P, which
    lands at or past a Newton step on 1/lambda - P.  Where P underflows to
    0, g reads +inf, a point past the root; where lambda P overflows, g
    reads -inf and the step goes to the ceiling.
    """
    if not lam > 0.0:
        raise InvalidArgumentError(f"coupling must be positive, got {lam}")

    def f(nu: float) -> tuple[float, float]:
        p, dp = quad.double_sum(mesh, mesh, space, constants, nu, 1)
        if p == 0.0:
            return math.inf, 0.0
        return -math.log(lam * p), -dp / p

    f_lo = f(_NU_FLOOR)
    if f_lo[0] >= 0.0:
        return None
    nu, _ = _monotone_root(
        f, _NU_FLOOR, f_lo, _NU_CEIL,
        NoConvergenceError(f"no sign change for coupling {lam} with nu up to {_NU_CEIL}"),
        1e-13,
    )
    return nu


def lowest_eigenvalue_flow(
    surfaces,
    couplings: CouplingSpec,
    space: AmbientSpace,
    constants: PhysicalConstants,
    nu_grid,
) -> list[tuple[float, float]]:
    """(nu, omega_min) samples of the monotone eigenvalue flow."""
    grid = [float(x) for x in nu_grid]
    if any(b <= a for a, b in zip(grid, grid[1:])) or (grid and grid[0] <= 0.0):
        raise InvalidArgumentError("nu_grid must be positive and strictly increasing")
    out = []
    for nu in grid:
        pm = assemble_phi(surfaces, couplings, space, constants, nu)
        out.append((nu, pm.omega_min()))
    return out


def _ground_state(phi, starts, tol: float) -> BoundStateResult:
    """Zero of the lowest-eigenvalue flow of phi(nu), searched in [lo,
    _NU_CEIL] from lo = max(starts), or _NU_FLOOR when there are none.

    phi maps nu to the principal matrix with its slope; starts are the
    channels' standalone levels (nu*-form couplings and points), and the
    diagonal of the channel at the highest one is 0 there, so
    omega_min(lo) <= 0.  The returned weights are the unit null
    eigenvector at the crossing, sign-fixed to a nonnegative sum
    (ground-state positivity).  iterations counts the evaluations of
    omega_min made by the root finder.  The matrices it evaluates are
    kept, so the null vector at the root needs no further assembly, and
    its eigenpairs, solved for omega_min, also give the slope.
    """
    lo = max(starts, default=_NU_FLOOR)
    seen = {}

    def omega(nu: float) -> tuple[float, float]:
        pm = seen[nu] = phi(nu)
        return pm.omega_min(), pm.omega_slope()

    f_lo = omega(lo)
    if f_lo[0] > 0.0:
        raise NoBoundStateError(
            f"omega_min({lo}) = {f_lo[0]} > 0: no bound state at or below the bracket start"
        )
    nu_sol, evals = _monotone_root(
        omega, lo, f_lo, _NU_CEIL,
        NoBoundStateError(f"no bound state in bracket [{lo}, {_NU_CEIL}]"),
        0.5e-12,
    )
    w, V = seen[nu_sol].eigh
    vec = V[:, 0]
    if float(np.sum(vec)) < 0.0:
        vec = -vec
    residual = abs(float(w[0]))
    return BoundStateResult(
        energy=-nu_sol * nu_sol,
        nu_star=nu_sol,
        weights=vec,
        converged=bool(residual < tol),
        iterations=evals,
        residual=residual,
    )


def solve_ground_state(
    surfaces,
    couplings: CouplingSpec,
    space: AmbientSpace,
    constants: PhysicalConstants,
    tol: float = 1e-10,
) -> BoundStateResult:
    """Ground state: the zero of the lowest-eigenvalue flow, found by
    Newton's method from the left with the Hellmann-Feynman slope.

    The returned weights are the unit null eigenvector at the crossing,
    sign-fixed to be componentwise nonnegative (ground-state positivity).
    """
    _validate_system(surfaces, couplings)
    surfaces = tuple(surfaces)
    return _ground_state(
        lambda nu: assemble_phi(surfaces, couplings, space, constants, nu),
        [cp.nu_star for cp in couplings.items if cp.nu_star is not None],
        tol,
    )


def surface_potential(
    mesh: SurfaceMesh,
    space: AmbientSpace,
    constants: PhysicalConstants,
    nu: float,
    x: Point3,
) -> float:
    """V^{-1/2} integral of the static kernel from a point to one surface:
    the point-surface entry of _kernel_matrices, inf for a point on a node."""
    if not x.is_flat:
        raise InvalidArgumentError("need a flat-space point")
    with np.errstate(divide="ignore"):  # G(0) = inf
        return quad.double_sum(mesh, x, space, constants, nu, 0)[0]


def wavefunction(
    result: BoundStateResult,
    surfaces,
    space: AmbientSpace,
    constants: PhysicalConstants,
    x: Point3,
) -> float:
    """Ground-state amplitude sum_i A_i V_i^{-1/2} int_Sigma_i G_nu*."""
    if not result.converged:
        raise InvalidStateError("wavefunction needs a converged bound-state result")
    surfaces = tuple(surfaces)
    if len(surfaces) != result.weights.shape[0]:
        raise InvalidArgumentError("surface count does not match result weights")
    total = 0.0
    for mesh, a in zip(surfaces, result.weights):
        total += float(a) * surface_potential(mesh, space, constants, result.nu_star, x)
    return total
