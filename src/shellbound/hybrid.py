"""Mixed systems of delta shells and point sources.

Point interactions carry no finite coupling constant; each point channel
enters through a subtracted diagonal pinned to its standalone level -mu^2,
and couples to the shells through the static kernel. The combined matrix
extends the pure-shell one by the point rows and has the same monotone
lowest-eigenvalue flow, so the ground state falls out of the identical
bracket expansion plus Brent's method.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _quadrature as quad
from .errors import (
    DegeneratePerturbationError,
    GeometryViolationError,
    InvalidArgumentError,
)
from .geometry import (
    AmbientSpace,
    PhysicalConstants,
    Point3,
    SurfaceMesh,
    ambient_distance,
    implicit_value,
)
from .kernels import StaticKernelQuery, static_kernel
from .principal import (
    _NU_FLOOR,
    BoundStateResult,
    CouplingSpec,
    PrincipalMatrix,
    _ground_state,
    assemble_phi,
    pair_integral,
    surface_potential,
)

__all__ = [
    "PointSource",
    "HybridSystem",
    "point_krein",
    "assemble_hybrid_phi",
    "solve_hybrid_ground_state",
    "perturbative_shift",
]

@dataclass(frozen=True)
class PointSource:
    """A point channel pinned to the standalone bound state at energy -mu^2."""

    position: Point3
    mu: float

    def __post_init__(self):
        if not self.mu > 0.0:
            raise InvalidArgumentError(f"mu must be positive, got {self.mu}")


@dataclass(frozen=True)
class HybridSystem:
    """Shells with couplings plus point sources in one ambient space."""

    surfaces: tuple[SurfaceMesh, ...]
    couplings: CouplingSpec
    points: tuple[PointSource, ...]
    space: AmbientSpace
    constants: PhysicalConstants

    def __post_init__(self):
        object.__setattr__(self, "surfaces", tuple(self.surfaces))
        object.__setattr__(self, "points", tuple(self.points))
        if len(self.couplings) != len(self.surfaces):
            raise InvalidArgumentError(
                f"{len(self.surfaces)} surfaces but {len(self.couplings)} couplings"
            )
        if len(self.surfaces) + len(self.points) == 0:
            raise InvalidArgumentError("need at least one channel")
        for p in self.points:
            if p.position.is_flat != self.space.is_flat:
                raise InvalidArgumentError(
                    "point source and ambient space disagree on flatness"
                )
        for mesh in self.surfaces:
            for p in self.points:
                val = implicit_value(mesh.shape, p.position.as_array())
                if abs(val) <= 1e-9 * quad._shape_scale(mesh.shape):
                    raise GeometryViolationError(
                        f"point source at {p.position.coords} lies on a surface"
                    )
        for i in range(len(self.points)):
            for j in range(i + 1, len(self.points)):
                d = ambient_distance(
                    self.space, self.points[i].position, self.points[j].position
                )
                if d == 0.0:
                    raise GeometryViolationError(
                        f"point sources {i} and {j} coincide"
                    )

    def min_point_surface_distance(self) -> float:
        """Smallest node distance between any point source and any shell."""
        best = math.inf
        for mesh in self.surfaces:
            for p in self.points:
                diff = mesh.nodes - p.position.as_array()
                d = float(np.min(np.sqrt(np.einsum("ij,ij->i", diff, diff))))
                best = min(best, d)
        return best


def point_krein(
    constants: PhysicalConstants,
    mu: float,
    nu: float,
    space: AmbientSpace | None = None,
) -> float:
    """Subtracted point diagonal: int dt/hbar K_t(a,a)(e^{-mu^2 t/h} - e^{-nu^2 t/h}).

    Flat closed form 2 sqrt(pi) (m / 2 pi hbar^2)^{3/2} (nu - mu); the
    hyperbolic one replaces nu, mu by hbar gamma / sqrt(2m) with gamma the
    curvature-shifted decay rate.
    """
    if not (mu > 0.0 and nu > 0.0):
        raise InvalidArgumentError(
            f"mu and nu must be positive, got mu={mu}, nu={nu}"
        )
    m, hbar = constants.mass, constants.hbar
    pref = 2.0 * math.sqrt(math.pi) * (m / (2.0 * math.pi * hbar * hbar)) ** 1.5
    if space is None or space.is_flat:
        return pref * (nu - mu)
    K = space.curvature_K
    kf2 = 2.0 * m / (hbar * hbar)
    gamma_nu = math.sqrt(K + kf2 * nu * nu)
    gamma_mu = math.sqrt(K + kf2 * mu * mu)
    return pref * (hbar / math.sqrt(2.0 * m)) * (gamma_nu - gamma_mu)


def _point_level_slope(
    constants: PhysicalConstants, mu: float, space: AmbientSpace
) -> float:
    """d/d(nu^2) of the point diagonal at nu = mu: the t-moment integral."""
    m, hbar = constants.mass, constants.hbar
    pref = math.sqrt(math.pi) * (m / (2.0 * math.pi * hbar * hbar)) ** 1.5
    if space.is_flat:
        return pref / mu
    kf2 = 2.0 * m / (hbar * hbar)
    mu_eff = math.sqrt(mu * mu + space.curvature_K / kf2)
    return pref / mu_eff


def assemble_hybrid_phi(sys: HybridSystem, nu: float) -> PrincipalMatrix:
    """Principal matrix of the combined system, shells first, points after."""
    if not nu > 0.0:
        raise InvalidArgumentError(f"nu must be positive, got {nu}")
    n, m_pts = len(sys.surfaces), len(sys.points)
    size = n + m_pts
    A = np.zeros((size, size))
    if n:
        A[:n, :n] = assemble_phi(
            sys.surfaces, sys.couplings, sys.space, sys.constants, nu
        ).entries
    for p_idx, p in enumerate(sys.points):
        k = n + p_idx
        A[k, k] = point_krein(sys.constants, p.mu, nu, sys.space)
        for i in range(n):
            A[i, k] = A[k, i] = -surface_potential(
                sys.surfaces[i], sys.space, sys.constants, nu, p.position
            )
        for q_idx in range(p_idx + 1, m_pts):
            d = ambient_distance(
                sys.space, p.position, sys.points[q_idx].position
            )
            val = -static_kernel(
                StaticKernelQuery(
                    nu=nu, distance=d, space=sys.space, constants=sys.constants
                )
            )
            A[k, n + q_idx] = A[n + q_idx, k] = val
    return PrincipalMatrix(
        nu=nu, entries=A, surfaces=sys.surfaces, couplings=sys.couplings
    )


def solve_hybrid_ground_state(
    sys: HybridSystem, tol: float = 1e-10
) -> BoundStateResult:
    """Ground state of the combined system: the zero of omega_min, found by
    bracket expansion plus Brent's method as for pure shells."""
    stars = [cp.nu_star for cp in sys.couplings.items if cp.nu_star is not None]
    stars.extend(p.mu for p in sys.points)
    return _ground_state(
        lambda nu: assemble_hybrid_phi(sys, nu),
        max(stars) if stars else _NU_FLOOR,
        tol,
    )


def perturbative_shift(sys: HybridSystem) -> float:
    """Second-order level shift of a lone far point against one shell.

    Returns delta(mu^2) > 0 for a shell channel that is off-resonance and
    repulsive-free at the point level (positive diagonal); the combined
    level then sits near -(mu^2 + delta). Valid when hbar^2/(2 m d_*^2) is
    small against mu^2.
    """
    if len(sys.surfaces) != 1 or len(sys.points) != 1:
        raise InvalidArgumentError(
            "perturbative shift needs exactly one surface and one point"
        )
    mesh, cp, point = sys.surfaces[0], sys.couplings.items[0], sys.points[0]
    mu = point.mu
    p_mu = pair_integral(mesh, mesh, sys.space, sys.constants, mu)
    shell = assemble_phi((mesh,), CouplingSpec((cp,)), sys.space, sys.constants, mu)
    diag = float(shell.entries[0, 0])
    if abs(diag) <= 1e-10 * max(p_mu, abs(diag + p_mu)):
        raise DegeneratePerturbationError(
            f"shell channel is resonant at mu={mu}: diagonal {diag}"
        )
    off = surface_potential(mesh, sys.space, sys.constants, mu, point.position)
    slope = _point_level_slope(sys.constants, mu, sys.space)
    return off * off / (slope * diag)
