"""Trial-state energy functional and the time-weighted matrix family.

The single-surface functional E(alpha) and the multi-surface matrices K, L,
S share one ingredient: double surface integrals of the static kernel and
its first two derivatives with respect to the trial parameter alpha (the
time weights 1, t, t^2 under the integral). They are the flat ones only:
every entry point here requires flat space. With nu = sqrt(alpha),
dP/dalpha = P' / (2 nu) and d^2P/dalpha^2 = (P'' - P' / nu) / (4 nu^2), so
the weight-t integrals (L and the norm Z) and S come from the nu-derivatives
P' and P'' that the kernel pass returns beside P: K, L and S come from one
kernel pass per surface pair, through principal._kernel_matrices, the
assembly the principal matrix uses.  The zero mode of I - K is found by
principal._ground_state, the Newton search the principal matrices use,
with -dK/dnu = 2 nu L as its slope.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import IllConditionedError, InvalidArgumentError
from .geometry import AmbientSpace, PhysicalConstants, SurfaceMesh
from .jacobi import jacobi_eigh
from .principal import (
    _NU_FLOOR,
    CouplingSpec,
    PrincipalMatrix,
    _check_flat,
    _ground_state,
    _kernel_matrices,
    _pair_terms,
    _validate_system,
)

__all__ = [
    "VariationalMatrices",
    "normalization_Z",
    "energy_functional",
    "stationarity_check",
    "assemble_variational",
    "schur_gap",
    "solve_variational",
]


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
class VariationalMatrices:
    """Time-weighted kernel matrices at one trial parameter alpha.

    K, L, S carry the time weights 1, t, t^2 and absorb sqrt(lambda_i /
    V_i) into each index; D = diag(sqrt(lambda_i)).
    """

    alpha: float
    S: np.ndarray
    L: np.ndarray
    K: np.ndarray
    D: np.ndarray

    def __post_init__(self):
        for name in ("S", "L", "K"):
            _check_symmetric(name, getattr(self, name))

    @property
    def n(self) -> int:
        return self.K.shape[0]

    @property
    def Phi_tilde(self) -> np.ndarray:
        """I - K, which is D Phi D for the principal matrix Phi at
        nu = sqrt(alpha)."""
        return np.eye(self.n) - self.K


def normalization_Z(
    mesh: SurfaceMesh,
    space: AmbientSpace,
    constants: PhysicalConstants,
    alpha: float,
) -> float:
    """Squared norm of the trial state: the t-weighted double integral.

    Equals minus the alpha-derivative of the unnormalized pair integral.
    """
    _check_flat(space)
    if not alpha > 0.0:
        raise InvalidArgumentError(f"alpha must be positive, got {alpha}")
    return _self_terms(mesh, space, constants, alpha)[1]


def _self_terms(
    mesh: SurfaceMesh, space: AmbientSpace, constants: PhysicalConstants, alpha: float
) -> tuple[float, float]:
    """The weight-1 and weight-t self-integrals (W, Z) at alpha, one pass."""
    nu = math.sqrt(alpha)
    p, dp = _pair_terms(mesh, mesh, space, constants, nu)
    return p * mesh.area, -dp * mesh.area / (2.0 * nu)


def energy_functional(
    mesh: SurfaceMesh,
    space: AmbientSpace,
    constants: PhysicalConstants,
    lam: float,
    alpha: float,
) -> float:
    """Trial energy E(alpha) = W/Z - alpha - (lambda/V) W^2/Z."""
    _check_flat(space)
    if not alpha > 0.0:
        raise InvalidArgumentError(f"alpha must be positive, got {alpha}")
    if not lam > 0.0:
        raise InvalidArgumentError(f"lambda must be positive, got {lam}")
    W, Z = _self_terms(mesh, space, constants, alpha)
    return W / Z - alpha - (lam / mesh.area) * W * W / Z


def stationarity_check(
    mesh: SurfaceMesh,
    space: AmbientSpace,
    constants: PhysicalConstants,
    lam: float,
    alpha: float,
    h: float,
) -> tuple[float, float]:
    """Central-difference (dE/dalpha, d2E/dalpha2) of the trial energy."""
    if not alpha > 0.0:
        raise InvalidArgumentError(f"alpha must be positive, got {alpha}")
    if not 1e-6 * alpha <= h <= 1e-2 * alpha:
        raise InvalidArgumentError(
            f"step h={h} must lie in [1e-6, 1e-2] * alpha = "
            f"[{1e-6 * alpha}, {1e-2 * alpha}]"
        )
    e_mid = energy_functional(mesh, space, constants, lam, alpha)
    e_lo = energy_functional(mesh, space, constants, lam, alpha - h)
    e_hi = energy_functional(mesh, space, constants, lam, alpha + h)
    dE = (e_hi - e_lo) / (2.0 * h)
    d2E = (e_hi - 2.0 * e_mid + e_lo) / (h * h)
    return dE, d2E


def _require_lambda_form(couplings: CouplingSpec) -> list[float]:
    lams = []
    for cp in couplings.items:
        if cp.lam is None:
            raise InvalidArgumentError(
                "the time-weighted matrices need every coupling in lambda form"
            )
        lams.append(cp.lam)
    return lams


def assemble_variational(
    surfaces,
    couplings: CouplingSpec,
    space: AmbientSpace,
    constants: PhysicalConstants,
    alpha: float,
) -> VariationalMatrices:
    """Build K, L, S and D at one alpha, one kernel pass per surface pair."""
    _check_flat(space)
    if not alpha > 0.0:
        raise InvalidArgumentError(f"alpha must be positive, got {alpha}")
    _validate_system(surfaces, couplings)
    surfaces = tuple(surfaces)
    lams = _require_lambda_form(couplings)
    nu = math.sqrt(alpha)
    root = np.sqrt(lams)  # each index absorbs sqrt(lam_i)
    K, dK, d2K = np.outer(root, root) * _kernel_matrices(surfaces, space, constants, nu, 2)
    L = (-0.5 / nu) * dK  # -dK/dalpha
    S = (1.0 / (4.0 * nu * nu)) * (d2K - dK / nu)  # d^2K/dalpha^2
    return VariationalMatrices(alpha=alpha, S=S, L=L, K=K, D=np.diag(root))


def schur_gap(vm: VariationalMatrices) -> float:
    """Minimum eigenvalue of S - 2 L K^{-1} L (nonnegative in exact arithmetic)."""
    w, Q = jacobi_eigh(vm.K)
    if w[0] <= 1e-12 * max(abs(w[-1]), 1e-300):
        raise IllConditionedError(
            f"K is numerically singular: eigenvalue range [{w[0]}, {w[-1]}]"
        )
    B = Q.T @ vm.L
    M = vm.S - 2.0 * B.T @ (B / w[:, None])
    M = 0.5 * (M + M.T)
    gap, _ = jacobi_eigh(M)
    return float(gap[0])


def solve_variational(
    surfaces,
    couplings: CouplingSpec,
    space: AmbientSpace,
    constants: PhysicalConstants,
) -> tuple[float, np.ndarray]:
    """Trial parameter alpha* where I - K(alpha) develops a zero mode.

    K's entries are convex and decreasing in nu = sqrt(alpha), so the
    smallest eigenvalue of I - K is concave and increasing in nu, and
    principal._ground_state finds its zero by Newton's method from the left
    in nu over [_NU_FLOOR, _NU_CEIL], the principal matrices' interval,
    with the slope -dK/dnu = 2 nu L from K's own kernel pass.  (In alpha
    the flow is concave too, but its slope diverges like 1 / sqrt(alpha)
    at the floor, and Newton's steps from there need about twice the
    evaluations.)
    Returns (alpha*, A) with A the unit zero mode, sign-fixed to
    nonnegative sum.
    """
    _check_flat(space)
    _validate_system(surfaces, couplings)
    surfaces = tuple(surfaces)
    root = np.sqrt(_require_lambda_form(couplings))
    scale = np.outer(root, root)
    eye = np.eye(len(surfaces))

    def phi(nu: float) -> PrincipalMatrix:
        P, dP = _kernel_matrices(surfaces, space, constants, nu)
        return PrincipalMatrix(nu, eye - scale * P, slope=-(scale * dP))

    # the tolerance only sets the result's converged flag, which is dropped
    result = _ground_state(phi, _NU_FLOOR, 1e-10)
    return result.nu_star**2, result.weights
