"""Trial-state energy functional and the time-weighted matrix family.

The single-surface functional E(alpha) and the multi-surface matrices K, L,
S share one ingredient: double surface integrals of the static kernel and
its first two derivatives with respect to the trial parameter alpha (the
time weights 1, t, t^2 under the integral). The derivative kernels are
closed forms, so no time quadrature happens here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _quadrature as quad
from .errors import (
    IllConditionedError,
    InvalidArgumentError,
    InvalidStateError,
    NoBoundStateError,
)
from .geometry import AmbientSpace, PhysicalConstants, SurfaceMesh
from .jacobi import jacobi_eigh
from .kernels import (
    static_kernel_array,
    static_kernel_d2alpha_array,
    static_kernel_dalpha_array,
)
from .principal import (
    CouplingSpec,
    _check_flat,
    _monotone_root,
    _validate_system,
    assemble_phi,
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

_ALPHA_FLOOR = 1e-16
_ALPHA_CEIL = 1e8


@dataclass(frozen=True, eq=False)
class VariationalMatrices:
    """Time-weighted kernel matrices at one trial parameter alpha.

    K, L, S carry the time weights 1, t, t^2 and absorb sqrt(lambda_i /
    V_i) into each index; Phi_tilde = I - K and D = diag(sqrt(lambda_i)).
    """

    alpha: float
    S: np.ndarray
    L: np.ndarray
    K: np.ndarray
    Phi_tilde: np.ndarray
    D: np.ndarray

    def __post_init__(self):
        for name in ("S", "L", "K", "Phi_tilde"):
            A = getattr(self, name)
            if A.ndim != 2 or A.shape[0] != A.shape[1]:
                raise InvalidArgumentError(f"{name} must be square")
            scale = max(float(np.max(np.abs(A))), 1e-300)
            if float(np.max(np.abs(A - A.T))) > 1e-12 * scale:
                raise InvalidArgumentError(f"{name} must be symmetric")

    @property
    def n(self) -> int:
        return self.K.shape[0]


def _entry(mesh_i, mesh_j, kernel) -> float:
    """Unnormalized double integral of kernel(distance) over mesh_i x mesh_j."""
    if mesh_i is mesh_j:
        return quad.diag_weighted_sum(mesh_i, kernel)
    return quad.offdiag_weighted_sum(mesh_i, mesh_j, kernel)


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
    nu = math.sqrt(alpha)
    kernel = lambda d: -static_kernel_dalpha_array(space, constants, nu, d)
    return quad.diag_weighted_sum(mesh, kernel)


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
    nu = math.sqrt(alpha)
    W = quad.diag_weighted_sum(mesh, lambda d: static_kernel_array(space, constants, nu, d))
    Z = normalization_Z(mesh, space, constants, alpha)
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


def _k_matrix(surfaces, lams, space, constants, alpha: float) -> np.ndarray:
    """Weight-1 matrix: K_ij = sqrt(lam_i lam_j / V_i V_j) * double integral."""
    nu = math.sqrt(alpha)
    kernel = lambda d: static_kernel_array(space, constants, nu, d)
    n = len(surfaces)
    K = np.zeros((n, n))
    for i in range(n):
        for j in range(i, n):
            raw = _entry(surfaces[i], surfaces[j], kernel)
            norm = math.sqrt(
                lams[i] * lams[j] / (surfaces[i].area * surfaces[j].area)
            )
            K[i, j] = K[j, i] = norm * raw
    return K


def assemble_variational(
    surfaces,
    couplings: CouplingSpec,
    space: AmbientSpace,
    constants: PhysicalConstants,
    alpha: float,
) -> VariationalMatrices:
    """Build K, L, S, Phi_tilde, D at one alpha and verify Phi_tilde = D Phi D."""
    _check_flat(space)
    if not alpha > 0.0:
        raise InvalidArgumentError(f"alpha must be positive, got {alpha}")
    _validate_system(surfaces, couplings)
    surfaces = tuple(surfaces)
    lams = _require_lambda_form(couplings)
    nu = math.sqrt(alpha)
    n = len(surfaces)

    k_first = lambda d: -static_kernel_dalpha_array(space, constants, nu, d)
    k_second = lambda d: static_kernel_d2alpha_array(space, constants, nu, d)
    K = _k_matrix(surfaces, lams, space, constants, alpha)
    L = np.zeros((n, n))
    S = np.zeros((n, n))
    for i in range(n):
        for j in range(i, n):
            norm = math.sqrt(
                lams[i] * lams[j] / (surfaces[i].area * surfaces[j].area)
            )
            L[i, j] = L[j, i] = norm * _entry(surfaces[i], surfaces[j], k_first)
            S[i, j] = S[j, i] = norm * _entry(surfaces[i], surfaces[j], k_second)

    phi_tilde = np.eye(n) - K
    D = np.diag([math.sqrt(x) for x in lams])
    phi = assemble_phi(surfaces, couplings, space, constants, nu).entries
    drift = float(np.max(np.abs(phi_tilde - D @ phi @ D)))
    if drift > 1e-10:
        raise InvalidStateError(
            f"scaled principal matrix deviates from I - K by {drift}"
        )
    return VariationalMatrices(
        alpha=alpha, S=S, L=L, K=K, Phi_tilde=phi_tilde, D=D
    )


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
    if M.shape[0] == 1:
        return float(M[0, 0])
    gap, _ = jacobi_eigh(M)
    return float(gap[0])


def solve_variational(
    surfaces,
    couplings: CouplingSpec,
    space: AmbientSpace,
    constants: PhysicalConstants,
) -> tuple[float, np.ndarray]:
    """Trial parameter alpha* where I - K(alpha) develops a zero mode.

    K's entries shrink as alpha grows, so the smallest eigenvalue of
    I - K(alpha) increases and bracket expansion plus Brent's method finds
    its zero. Returns (alpha*, A) with A the unit zero mode, sign-fixed to
    nonnegative sum.
    """
    _check_flat(space)
    _validate_system(surfaces, couplings)
    surfaces = tuple(surfaces)
    lams = _require_lambda_form(couplings)

    def gap(alpha: float) -> float:
        K = _k_matrix(surfaces, lams, space, constants, alpha)
        if K.shape[0] == 1:
            return 1.0 - float(K[0, 0])
        w, _ = jacobi_eigh(K)
        return 1.0 - float(w[-1])

    g_lo = gap(_ALPHA_FLOOR)
    if g_lo >= 0.0:
        raise NoBoundStateError(
            "I - K has no zero mode: couplings are at or below critical"
        )
    alpha_star, _ = _monotone_root(
        gap, _ALPHA_FLOOR, g_lo, 1.0, _ALPHA_CEIL,
        NoBoundStateError(f"no zero mode with alpha up to {_ALPHA_CEIL}"),
        0.5e-12,
    )
    K = _k_matrix(surfaces, lams, space, constants, alpha_star)
    if K.shape[0] == 1:
        A = np.array([1.0])
    else:
        _, V = jacobi_eigh(np.eye(K.shape[0]) - K)
        A = V[:, 0]
        if float(np.sum(A)) < 0.0:
            A = -A
    return alpha_star, A
