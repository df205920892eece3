"""Exception taxonomy shared by all shellbound modules."""


class ShellboundError(Exception):
    """Base class for every error raised by this package."""


class InvalidArgumentError(ShellboundError, ValueError):
    """An argument violates a documented precondition."""


class ConfigError(ShellboundError, ValueError):
    """Experiment configuration or command line is malformed or inconsistent."""


class UnsupportedShapeError(ShellboundError, ValueError):
    """Requested surface shape is not one of the supported kinds."""


class GeometryViolationError(ShellboundError, ValueError):
    """Surfaces overlap, a point sits on a surface, or a mesh is degenerate."""


class OutOfChartError(ShellboundError, ValueError):
    """Radial coordinate left the validity chart of a space form (r >= pi/sqrt(K))."""


class UnsupportedRegimeError(ShellboundError, ValueError):
    """Parameter combination outside the regime a bound is proved for (e.g. H >= K)."""


class NoBoundStateError(ShellboundError):
    """No spectral crossing inside the search bracket."""


class NoConvergenceError(ShellboundError):
    """Iterative procedure exhausted its budget without meeting tolerance."""


class IllConditionedError(ShellboundError):
    """A matrix required to be invertible is numerically singular."""


class DegeneratePerturbationError(ShellboundError):
    """Perturbative shift requested at a (near-)resonant reference energy."""


class InvalidStateError(ShellboundError):
    """Operation requires a converged result but got an unconverged one."""
