"""Trial-state energy functional and the time-weighted matrix family.

The single-surface functional E(alpha) and the multi-surface matrices K, L,
S share one ingredient: double surface integrals of the static kernel and
its first two derivatives with respect to the trial parameter alpha (the
time weights 1, t, t^2 under the integral). They are the flat ones only:
the kernel sums refuse a surface in any other space. With nu = sqrt(alpha),
dP/dalpha = P' / (2 nu) and d^2P/dalpha^2 = (P'' - P' / nu) / (4 nu^2), so
the weight-t integrals (L and the norm Z) and S come from the nu-derivatives
P' and P'' that the kernel pass returns beside P: K, L and S come from one
kernel pass per surface pair, through principal._kernel_matrices, the
assembly the principal matrix uses.

The zero mode of I - K needs no search of its own.  With D =
diag(sqrt(lambda_i)), I - K = D Phi D for the lambda-form principal matrix
Phi at nu = sqrt(alpha), a congruence, so by Sylvester's law of inertia
(Horn & Johnson, Matrix Analysis, Thm 4.5.8) I - K is singular exactly
where Phi is, and (I - K) A = 0 exactly when Phi (D A) = 0.  So alpha* is
the square of the principal root nu* and A is D^{-1} v, normalized, for
the principal null vector v.

K, L and S are symmetric by construction, and VariationalMatrices checks
them with jacobi._symmetric_rows, the package's one square-finite-symmetric
check.  schur_gap symmetrises S - 2 L K^{-1} L itself before its eigen
solve: that difference can cancel, so its rounding asymmetry is not bounded
by 1e-12 of its own largest entry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import IllConditionedError, InvalidArgumentError
from .geometry import AmbientSpace, PhysicalConstants, SurfaceMesh
from .jacobi import _symmetric_rows, jacobi_eigh
from .principal import (
    CouplingSpec,
    _check_lambda,
    _kernel_matrices,
    _validate_system,
    solve_ground_state,
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
            _symmetric_rows(getattr(self, name), name)

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
    if not alpha > 0.0:
        raise InvalidArgumentError(f"alpha must be positive, got {alpha}")
    return _self_terms(mesh, space, constants, alpha)[1]


def _self_terms(
    mesh: SurfaceMesh, space: AmbientSpace, constants: PhysicalConstants, alpha: float
) -> tuple[float, float]:
    """The weight-1 and weight-t self-integrals (W, Z) at alpha, one pass."""
    nu = math.sqrt(alpha)
    p, dp = _kernel_matrices((mesh,), space, constants, nu)[:, 0, 0].tolist()
    return p * mesh.area, -dp * mesh.area / (2.0 * nu)


def energy_functional(
    mesh: SurfaceMesh,
    space: AmbientSpace,
    constants: PhysicalConstants,
    lam: float,
    alpha: float,
) -> float:
    """Trial energy E(alpha) = W/Z - alpha - (lambda/V) W^2/Z."""
    if not alpha > 0.0:
        raise InvalidArgumentError(f"alpha must be positive, got {alpha}")
    _check_lambda(lam)
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

    By the congruence I - K = D Phi D (module docstring), alpha* = nu*^2
    for the lambda-form ground state nu* of solve_ground_state, and the
    zero mode is D^{-1} v for its null vector v.  Returns (alpha*, A) with
    A that zero mode at unit length, componentwise nonnegative as v is.
    """
    root = np.sqrt(_require_lambda_form(couplings))
    result = solve_ground_state(surfaces, couplings, space, constants)
    A = result.weights / root
    return result.nu_star**2, A / np.linalg.norm(A)
