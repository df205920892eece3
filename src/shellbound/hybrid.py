"""Mixed systems of delta shells and point sources.

Point interactions carry no finite coupling constant; each point channel
enters through a subtracted diagonal pinned to its standalone level -mu^2,
and couples to the shells through the static kernel. The combined matrix
extends the pure-shell one by the point rows, and its slope by their
closed-form nu-derivatives, so the ground state falls out of the same
Newton search from the left.  The point diagonal is a multiple of the
static kernel's decay rate gamma(nu) (kernels._decay_rate), and every point
slope is a multiple of gamma'(nu).  In flat space every point entry is
concave in nu, so the lowest eigenvalue stays concave.  Surfaces are
flat-only, so a hyperbolic system has points alone; its point diagonal is
convex in nu (gamma is), so there a Newton step may pass the root, and the
search goes on inside the bracket that step closes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

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
    _is_normal,
    ambient_distance,
    implicit_value,
)
from .kernels import _decay_rate, static_kernel_array
from .principal import (
    _NU_FLOOR,
    BoundStateResult,
    CouplingSpec,
    PrincipalMatrix,
    _check_flat,
    _ground_state,
    _phi_arrays,
    _surface_potential_terms,
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
        if not (self.mu > 0.0 and _is_normal(self.mu * self.mu)):  # energy -mu**2
            raise InvalidArgumentError(
                f"mu must be positive with a normal float square, got {self.mu}"
            )


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
        if self.surfaces:
            _check_flat(self.space)
        for mesh in self.surfaces:
            for p in self.points:
                val = implicit_value(mesh.shape, p.position.as_array())
                if abs(val) <= 0.5e-9 * mesh.diameter_ambient:
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


def _point_diagonal(
    constants: PhysicalConstants, space: AmbientSpace, mu: float, nu: float
) -> tuple[float, float]:
    """The point diagonal c (gamma(nu) - gamma(mu)) and its nu-slope
    c gamma'(nu), with c = 2 sqrt(pi) (m / 2 pi hbar^2)^{3/2} / kappa_f."""
    m, hbar = constants.mass, constants.hbar
    c = 2.0 * math.sqrt(math.pi) * (m / (2.0 * math.pi * hbar * hbar)) ** 1.5
    c = c / constants.kappa_factor
    gamma_nu, rate_slope = _decay_rate(space, constants, nu)
    return c * (gamma_nu - _decay_rate(space, constants, mu)[0]), c * rate_slope


def point_krein(
    constants: PhysicalConstants,
    mu: float,
    nu: float,
    space: AmbientSpace,
) -> float:
    """Subtracted point diagonal: int dt/hbar K_t(a,a)(e^{-mu^2 t/h} - e^{-nu^2 t/h}).

    Closed form c (gamma(nu) - gamma(mu)), gamma the static kernel's decay
    rate: 2 sqrt(pi) (m / 2 pi hbar^2)^{3/2} (nu - mu) in flat space.
    """
    if not (mu > 0.0 and nu > 0.0):
        raise InvalidArgumentError(
            f"mu and nu must be positive, got mu={mu}, nu={nu}"
        )
    return _point_diagonal(constants, space, mu, nu)[0]


def assemble_hybrid_phi(sys: HybridSystem, nu: float) -> PrincipalMatrix:
    """Principal matrix of the combined system, shells first, points after,
    with its slope dPhi/dnu.

    The point entries' slopes are closed forms in the decay rate's slope
    gamma'(nu): the point diagonal c (gamma(nu) - gamma(mu)) has slope
    c gamma'(nu), the point-point entry -G_nu(d) has slope
    d G_nu(d) gamma'(nu); the point-shell entry's slope comes from its
    kernel pass.
    """
    if not nu > 0.0:
        raise InvalidArgumentError(f"nu must be positive, got {nu}")
    n, m_pts = len(sys.surfaces), len(sys.points)
    size = n + m_pts
    A = np.zeros((size, size))
    B = np.zeros((size, size))
    if n:
        A[:n, :n], B[:n, :n] = _phi_arrays(
            sys.surfaces, sys.couplings, sys.space, sys.constants, nu
        )
    rate_slope = _decay_rate(sys.space, sys.constants, nu)[1]
    for p_idx, p in enumerate(sys.points):
        k = n + p_idx
        A[k, k], B[k, k] = _point_diagonal(sys.constants, sys.space, p.mu, nu)
        for i in range(n):
            val, slope = _surface_potential_terms(
                sys.surfaces[i], sys.space, sys.constants, nu, p.position
            )
            A[i, k] = A[k, i] = -val
            B[i, k] = B[k, i] = -slope
        for q_idx in range(p_idx + 1, m_pts):
            d = ambient_distance(
                sys.space, p.position, sys.points[q_idx].position
            )
            val, d_val = static_kernel_array(
                sys.space, sys.constants, nu, np.array([d]), moment=True
            )
            A[k, n + q_idx] = A[n + q_idx, k] = -val[0]
            B[k, n + q_idx] = B[n + q_idx, k] = d_val[0] * rate_slope
    return PrincipalMatrix(nu=nu, entries=A, slope=B)


def solve_hybrid_ground_state(
    sys: HybridSystem, tol: float = 1e-10
) -> BoundStateResult:
    """Ground state of the combined system: the zero of omega_min, found by
    the Newton search from the left that pure shells use, which keeps a
    bracket where the hyperbolic point diagonal makes a step pass the root."""
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
    shell = _phi_arrays((mesh,), CouplingSpec((cp,)), sys.space, sys.constants, mu)[0]
    diag = float(shell[0, 0])
    if abs(diag) <= 1e-10 * max(p_mu, abs(diag + p_mu)):
        raise DegeneratePerturbationError(
            f"shell channel is resonant at mu={mu}: diagonal {diag}"
        )
    off = surface_potential(mesh, sys.space, sys.constants, mu, point.position)
    # d/d(nu^2) of the point diagonal at nu = mu
    slope = _point_diagonal(sys.constants, sys.space, mu, mu)[1] / (2.0 * mu)
    return off * off / (slope * diag)
