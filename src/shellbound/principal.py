"""Principal (Krein) matrix assembly and bound-state solving.

For surfaces Sigma_i carrying the rank-one attractive interaction
-(lambda_i/V_i)|Gamma_i><Gamma_i|, the bound-state energies E = -nu**2 are
the zeros of the lowest eigenvalue of the symmetric matrix

    Phi_ii(nu) = 1/lambda_i - P_ii(nu)            (lambda form)
               = P_ii(nu_i*) - P_ii(nu)           (nu* form)
    Phi_ij(nu) = -P_ij(nu)   (i != j)

with P_ij the kernel pair integral (V_i V_j)^{-1/2} int int G_nu.  Every
P_ij decreases strictly in nu and the off-diagonals are nonpositive, so the
lowest eigenvalue increases in nu and its zero is found by bracket expansion
plus Brent's method.  The same monotone root finder serves every crossing
search in the package; its Brent step, _brent, is an in-repo port of SciPy's
Zeros/brentq.c that makes the same evaluations and returns the same roots,
so importing the package does not load scipy.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import _quadrature as quad
from .errors import (
    InvalidArgumentError,
    InvalidStateError,
    NoBoundStateError,
    NoConvergenceError,
)
from .geometry import AmbientSpace, PhysicalConstants, Point3, SurfaceMesh
from .jacobi import jacobi_eigh
from .kernels import static_kernel_array

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


def _check_symmetric(name: str, A: np.ndarray) -> None:
    """Raise unless A is square, finite and symmetric to 1e-12 * max|A|."""
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise InvalidArgumentError(f"{name} must be square")
    scale = float(np.max(np.abs(A)))  # NaN or inf if any entry is
    if not math.isfinite(scale):  # the symmetry test below passes NaN
        raise InvalidArgumentError(f"{name} entries must be finite")
    scale = max(scale, 1e-300)
    if float(np.max(np.abs(A - A.T))) > 1e-12 * scale:
        raise InvalidArgumentError(f"{name} must be symmetric")


@dataclass(frozen=True, eq=False)
class PrincipalMatrix:
    nu: float
    entries: np.ndarray

    def __post_init__(self):
        _check_symmetric("principal matrix", self.entries)

    @property
    def n(self) -> int:
        return self.entries.shape[0]

    @functools.cached_property
    def eigh(self) -> tuple[np.ndarray, np.ndarray]:
        """(w, V) of jacobi_eigh(entries), solved once per matrix."""
        return jacobi_eigh(self.entries)

    def omega_min(self) -> float:
        """Lowest eigenvalue (cyclic Jacobi)."""
        if self.n == 1:
            return float(self.entries[0, 0])
        return float(self.eigh[0][0])


@dataclass(frozen=True)
class BoundStateResult:
    energy: float
    nu_star: float
    weights: np.ndarray
    converged: bool
    iterations: int
    residual: float


def _check_flat(space: AmbientSpace) -> None:
    if not space.is_flat:
        raise InvalidArgumentError(
            "surface meshes are embedded in flat ambient space; hyperbolic "
            "systems are served by the closed-form bound evaluators"
        )


def pair_integral(
    mesh_i: SurfaceMesh,
    mesh_j: SurfaceMesh,
    space: AmbientSpace,
    constants: PhysicalConstants,
    nu: float,
) -> float:
    """(V_i V_j)^{-1/2} double surface integral of the static kernel."""
    _check_flat(space)
    if not nu > 0.0:
        raise InvalidArgumentError(f"pair integral needs nu > 0, got {nu}")
    kernel = lambda d: static_kernel_array(space, constants, nu, d)
    # on the diagonal sqrt(V * V) is V exactly
    return quad.double_sum(mesh_i, mesh_j, kernel) / math.sqrt(mesh_i.area * mesh_j.area)


def _brent(f, a, f_a, b, f_b, xtol, rtol, error):
    """Root of f in [a, b], given f_a = f(a) and f_b = f(b) of opposite signs.

    A line-for-line port of SciPy's Zeros/brentq.c (Brent 1973, ch. 4):
    the same contrapoint swap, inverse quadratic or secant step and
    bisection fallback, stopping once the bracket half-width is below
    (xtol + rtol * |x|) / 2, so it evaluates f at the same points and
    returns the same root bitwise.  Raises error when f is NaN or after
    100 iterations without convergence.
    """
    xpre, fpre, xcur, fcur = a, f_a, b, f_b
    xblk = fblk = spre = scur = 0.0
    if math.isnan(fpre) or math.isnan(fcur):
        raise error
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    for _ in range(100):
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                # interpolate
                num, den = -fcur * (xcur - xpre), fcur - fpre
            else:
                # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                num, den = -fcur * (fblk * dblk - fpre * dpre), dblk * dpre * (fblk - fpre)
            # An underflowed den gives C an infinite or NaN step, which bisects.
            stry = num / den if den != 0.0 else math.inf
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                # good short step
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = f(xcur)
        if math.isnan(fcur):
            raise error
    raise error


def _monotone_root(f, lo, f_lo, hi, ceil, error, tol):
    """Crossing of a nondecreasing f above lo, given f_lo = f(lo) <= 0.

    Doubles hi until f(hi) > 0, moving lo up to the last nonpositive point,
    and raises error once hi passes ceil.  Brent's method (Brent 1973, ch. 4;
    _brent, the in-repo port of SciPy's brentq) then refines the bracket to
    about tol * max(1, root), reusing the end values already computed.
    Returns (root, number of evaluations of f, the caller's f(lo) included).
    """
    f_hi = f(hi)
    evals = 2
    while f_hi <= 0.0:
        lo, f_lo = hi, f_hi
        hi *= 2.0
        if hi > ceil:
            raise error
        f_hi = f(hi)
        evals += 1

    def counted(x: float) -> float:
        nonlocal evals
        evals += 1
        return f(x)

    # brentq's floor of four machine epsilons: the bracket cannot shrink
    # much below one ulp of the root.
    rtol = max(tol, 4.0 * np.finfo(float).eps)
    return _brent(counted, lo, f_lo, hi, f_hi, tol, rtol, error), evals


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
    """Principal matrix at spectral parameter nu (energy -nu**2).

    Each distinct self-integral P_ii is summed once per call.  Surfaces of
    one form at one scale share their cached self-integral geometry (see
    _quadrature), so with equal areas their P_ii at one nu are bitwise
    equal, and the first one's value serves the others.  Each sharing mesh
    is still checked against its form.
    """
    _validate_system(surfaces, couplings)
    surfaces = tuple(surfaces)
    n = len(surfaces)
    A = np.zeros((n, n))
    selves = {}

    def self_integral(mesh: SurfaceMesh, at: float) -> float:
        key = (mesh.form, mesh.scale, mesh.area, at)
        if key in selves:
            quad._diag_geometry(mesh)  # raises unless mesh is its form's mesh
        else:
            selves[key] = pair_integral(mesh, mesh, space, constants, at)
        return selves[key]

    for i, (mesh, cp) in enumerate(zip(surfaces, couplings.items)):
        p_nu = self_integral(mesh, nu)
        if cp.lam is not None:
            A[i, i] = 1.0 / cp.lam - p_nu
        else:
            A[i, i] = self_integral(mesh, cp.nu_star) - p_nu
    for i in range(n):
        for j in range(i + 1, n):
            val = -pair_integral(surfaces[i], surfaces[j], space, constants, nu)
            A[i, j] = A[j, i] = val
    return PrincipalMatrix(nu=nu, entries=A)


def coupling_from_energy(
    mesh: SurfaceMesh,
    space: AmbientSpace,
    constants: PhysicalConstants,
    nu_star: float,
) -> float:
    """Coupling whose standalone bound state sits at energy -nu_star**2."""
    if not nu_star > 0.0:
        raise InvalidArgumentError(f"nu_star must be positive, got {nu_star}")
    return 1.0 / pair_integral(mesh, mesh, space, constants, nu_star)


def energy_from_coupling(
    mesh: SurfaceMesh,
    space: AmbientSpace,
    constants: PhysicalConstants,
    lam: float,
) -> float | None:
    """Standalone bound-state parameter nu* for one surface, or None.

    Returns None when the coupling is at or below the critical value (the
    pair integral at nu -> 0 caps 1/lambda for a bound state to form).
    """
    if not lam > 0.0:
        raise InvalidArgumentError(f"coupling must be positive, got {lam}")
    target = 1.0 / lam
    f = lambda nu: target - pair_integral(mesh, mesh, space, constants, nu)
    f_lo = f(_NU_FLOOR)
    if f_lo >= 0.0:
        return None
    nu, _ = _monotone_root(
        f, _NU_FLOOR, f_lo, 1.0, _NU_CEIL,
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


def _ground_state(phi, lo: float, tol: float, ceil: float = _NU_CEIL) -> BoundStateResult:
    """Zero of the lowest-eigenvalue flow of phi(nu), searched in [lo, ceil].

    phi maps nu to the principal matrix, or to any symmetric matrix family
    whose lowest eigenvalue rises in its parameter (the variational I - K);
    the returned weights are its unit null eigenvector at the crossing,
    sign-fixed to a nonnegative sum (ground-state positivity).  iterations
    counts the evaluations of omega_min made by the root finder.  The
    matrices it evaluates are kept, so the null vector at the root needs no
    further assembly, and its eigenpairs, solved for omega_min, are reused.
    """
    seen = {}

    def omega(nu: float) -> float:
        seen[nu] = phi(nu)
        return seen[nu].omega_min()

    f_lo = omega(lo)
    if f_lo > 0.0:
        raise NoBoundStateError(
            f"omega_min({lo}) = {f_lo} > 0: no bound state at or below the bracket start"
        )
    nu_sol, evals = _monotone_root(
        omega, lo, f_lo, max(2.0 * lo, 1.0), ceil,
        NoBoundStateError(f"no bound state in bracket [{lo}, {ceil}]"),
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
    bracket expansion plus Brent's method.

    The returned weights are the unit null eigenvector at the crossing,
    sign-fixed to be componentwise nonnegative (ground-state positivity).
    """
    _validate_system(surfaces, couplings)
    surfaces = tuple(surfaces)
    stars = [cp.nu_star for cp in couplings.items if cp.nu_star is not None]
    return _ground_state(
        lambda nu: assemble_phi(surfaces, couplings, space, constants, nu),
        max(stars) if stars else _NU_FLOOR,
        tol,
    )


def surface_potential(
    mesh: SurfaceMesh,
    space: AmbientSpace,
    constants: PhysicalConstants,
    nu: float,
    x: Point3,
) -> float:
    """V^{-1/2} integral of the static kernel from a point to one surface."""
    _check_flat(space)
    if not x.is_flat:
        raise InvalidArgumentError("need a flat-space point")
    diff = mesh.nodes - x.as_array()
    d = np.sqrt(np.einsum("ij,ij->i", diff, diff))
    if np.any(d == 0.0):
        return math.inf
    kernel = lambda dd: static_kernel_array(space, constants, nu, dd)
    return quad.weighted_kernel_sum(mesh.weights, d, kernel) / math.sqrt(mesh.area)


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
