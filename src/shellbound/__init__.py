"""Bound states, coupling thresholds and spectral bounds for delta shells.

The package computes spectra of Schrodinger operators with attractive
singular interactions supported on compact surfaces, via the principal
matrix of the interaction: ground states by Newton's method from the left
on its lowest eigenvalue, with the slope from the same kernel pass,
closed-form threshold and spectral bounds, a weighted variational
reformulation, and hybrid systems with point sources.
"""

from .bounds import (
    FinitenessCertificate,
    coupling_bound_diameter,
    coupling_bound_model,
    critical_coupling_exact,
    deformation_lower_bound,
    diagonal_lower_envelope,
    finiteness_certificate,
    gersgorin_energy_bound,
    offdiagonal_upper_envelope,
    space_form_jacobian,
)
from .errors import (
    ConfigError,
    DegeneratePerturbationError,
    GeometryViolationError,
    IllConditionedError,
    InvalidArgumentError,
    InvalidStateError,
    NoBoundStateError,
    NoConvergenceError,
    OutOfChartError,
    ShellboundError,
    UnsupportedRegimeError,
    UnsupportedShapeError,
)
from .geometry import (
    AmbientSpace,
    Ellipsoid,
    PhysicalConstants,
    Point3,
    Sphere,
    SurfaceCurvatureMeta,
    SurfaceMesh,
    Torus,
    ambient_distance,
    build_surface,
    flat_point,
    flat_space,
    hyperbolic_point,
    hyperbolic_space,
    implicit_value,
)
from .hybrid import (
    HybridSystem,
    PointSource,
    assemble_hybrid_phi,
    perturbative_shift,
    point_krein,
    solve_hybrid_ground_state,
)
from .kernels import (
    KernelBoundConstants,
    heat_kernel,
    heat_kernel_upper_bound,
    static_kernel_array,
)
from .principal import (
    BoundStateResult,
    Coupling,
    CouplingSpec,
    PrincipalMatrix,
    assemble_phi,
    coupling_from_energy,
    energy_from_coupling,
    lowest_eigenvalue_flow,
    pair_integral,
    solve_ground_state,
    surface_potential,
    wavefunction,
)
from .variational import (
    VariationalMatrices,
    assemble_variational,
    energy_functional,
    normalization_Z,
    schur_gap,
    solve_variational,
    stationarity_check,
)

__version__ = "0.1.0"

__all__ = sorted(
    name
    for name, obj in globals().items()
    if not name.startswith("_")
    and getattr(obj, "__module__", "").startswith("shellbound.")
)
