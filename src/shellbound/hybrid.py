"""Mixed systems of delta shells and point sources.

Point interactions carry no finite coupling constant; each point channel
enters through a subtracted diagonal pinned to its standalone level -mu^2,
a multiple of gamma(nu) - gamma(mu), gamma the static kernel's decay rate.
A point is one more channel of the principal assembly (principal._phi_arrays)
with V = 1 and a one-node rule, so the ground state falls out of the same
zero-mode search (principal._ground_state), which starts at the highest
standalone level, mu or nu*; two points' entry is the kernel at their
distance in their own space.  In flat space every point entry is concave
in nu, so the lowest eigenvalue stays concave.  Surfaces are flat-only, so
a hyperbolic system has points alone; its point diagonal is convex in nu
(gamma is), so there a Newton step may pass the root, and the search goes
on inside the bracket that step closes.
"""

from __future__ import annotations

from dataclasses import dataclass

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
from .principal import (
    BoundStateResult,
    CouplingSpec,
    PrincipalMatrix,
    _check_flat,
    _ground_state,
    _phi_arrays,
    _point_diagonal,
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
        for i, p in enumerate(self.points):
            for j in range(i + 1, len(self.points)):
                if ambient_distance(self.space, p.position, self.points[j].position) == 0.0:
                    raise GeometryViolationError(f"point sources {i} and {j} coincide")


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
    return _point_diagonal(constants, space, mu, nu)[0]


def assemble_hybrid_phi(sys: HybridSystem, nu: float) -> PrincipalMatrix:
    """Principal matrix of the combined system, shells first, points after,
    with its slope dPhi/dnu: -dP/dnu from the kernel pass off the diagonal,
    c gamma'(nu) on a point's diagonal c (gamma(nu) - gamma(mu))."""
    A, slope, _ = _phi_arrays(
        sys.surfaces, sys.couplings, sys.space, sys.constants, nu, sys.points
    )
    return PrincipalMatrix(nu, A, slope)


def solve_hybrid_ground_state(sys: HybridSystem) -> BoundStateResult:
    """Ground state of the combined system: the zero of omega_min, found by
    the Newton search from the left that pure shells use, which keeps a
    bracket where the hyperbolic point diagonal makes a step pass the root."""
    stars = [cp.nu_star for cp in sys.couplings.items if cp.nu_star is not None]
    stars.extend(p.mu for p in sys.points)
    return _ground_state(lambda nu: assemble_hybrid_phi(sys, nu), stars)


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
    mu = sys.points[0].mu
    # P_ii(mu), the shell diagonal and the point-shell entry, one assembly
    A, B, P = _phi_arrays(
        sys.surfaces, sys.couplings, sys.space, sys.constants, mu, sys.points
    )
    diag, p_mu, off = float(A[0, 0]), float(P[0, 0]), float(P[0, 1])
    if abs(diag) <= 1e-10 * max(p_mu, abs(diag + p_mu)):
        raise DegeneratePerturbationError(
            f"shell channel is resonant at mu={mu}: diagonal {diag}"
        )
    # d/d(nu^2) of the point diagonal at nu = mu
    slope = float(B[1, 1]) / (2.0 * mu)
    return off * off / (slope * diag)
