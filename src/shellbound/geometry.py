"""Ambient spaces, points, and quadrature meshes for the supported surface shapes.

Conventions: default units put hbar = 1 and mass = 1/2, so the spectral
parameter nu coincides with the decay rate kappa = sqrt(2*m)*nu/hbar and
bound-state energies read E = -nu**2.  Flat points are Cartesian triples;
hyperbolic points live on the hyperboloid -x0^2 + |x|^2 = -1/K embedded in
Minkowski R^{1,3}.
"""

from __future__ import annotations

import functools
import math
import sys
import weakref
from dataclasses import astuple, dataclass, field

import numpy as np

from .errors import (
    GeometryViolationError,
    InvalidArgumentError,
    UnsupportedShapeError,
)
from .jacobi import _gauss_rule

FLAT = "flat"
HYPERBOLIC = "hyperbolic"


def _is_normal(x: float) -> bool:
    """Whether x is a finite float no smaller in magnitude than the least
    normal one (False for 0, subnormals, inf and NaN)."""
    return sys.float_info.min <= abs(x) <= sys.float_info.max


@dataclass(frozen=True)
class PhysicalConstants:
    """Particle constants. Defaults make kappa = nu and E = -nu^2."""

    hbar: float = 1.0
    mass: float = 0.5

    def __post_init__(self):
        # the kernels divide by hbar**2
        if not (self.hbar > 0.0 and _is_normal(self.hbar * self.hbar)):
            raise InvalidArgumentError(
                f"hbar must be positive with a normal float square, got {self.hbar}"
            )
        if not (self.mass > 0.0 and math.isfinite(self.mass)):
            raise InvalidArgumentError(f"mass must be positive, got {self.mass}")

    @property
    def kappa_factor(self) -> float:
        """kappa = kappa_factor * nu maps spectral parameter to decay rate."""
        return math.sqrt(2.0 * self.mass) / self.hbar


@dataclass(frozen=True)
class AmbientSpace:
    """Flat R^3 or hyperbolic H^3 with constant sectional curvature -K (K > 0)."""

    kind: str
    curvature_K: float = 0.0

    def __post_init__(self):
        if self.kind not in (FLAT, HYPERBOLIC):
            raise InvalidArgumentError(f"unknown space kind {self.kind!r}")
        if self.kind == FLAT and self.curvature_K != 0.0:
            raise InvalidArgumentError("flat space requires curvature_K = 0")
        if self.kind == HYPERBOLIC and not self.curvature_K > 0.0:
            raise InvalidArgumentError("hyperbolic space requires curvature_K > 0")

    @property
    def is_flat(self) -> bool:
        return self.kind == FLAT


def flat_space() -> AmbientSpace:
    return AmbientSpace(kind=FLAT, curvature_K=0.0)


def hyperbolic_space(curvature_K: float) -> AmbientSpace:
    return AmbientSpace(kind=HYPERBOLIC, curvature_K=curvature_K)


@dataclass(frozen=True)
class Point3:
    """A point of an ambient space.

    Flat points carry three Cartesian coordinates.  Hyperbolic points carry
    the four hyperboloid-model coordinates (x0, x1, x2, x3).
    """

    coords: tuple[float, ...]

    def __post_init__(self):
        if len(self.coords) not in (3, 4):
            raise InvalidArgumentError(
                f"Point3 needs 3 (flat) or 4 (hyperbolic) coordinates, got {len(self.coords)}"
            )
        # a finite fourth power, as for surface centres, keeps every
        # distance and its square finite
        if not all(math.isfinite(c * c * c * c) for c in self.coords):
            raise InvalidArgumentError("point coordinates must have a finite fourth power")

    @property
    def is_flat(self) -> bool:
        return len(self.coords) == 3

    def as_array(self) -> np.ndarray:
        return np.asarray(self.coords, dtype=float)


def flat_point(x: float, y: float, z: float) -> Point3:
    return Point3((float(x), float(y), float(z)))


def hyperbolic_point(space: AmbientSpace, x1: float, x2: float, x3: float) -> Point3:
    """Lift spatial coordinates onto the hyperboloid of curvature -K."""
    if space.is_flat:
        raise InvalidArgumentError("hyperbolic_point requires a hyperbolic space")
    K = space.curvature_K
    x0 = math.sqrt(1.0 / K + x1 * x1 + x2 * x2 + x3 * x3)
    return Point3((x0, float(x1), float(x2), float(x3)))


def _check_on_hyperboloid(space: AmbientSpace, p: Point3) -> None:
    K = space.curvature_K
    c = p.coords
    resid = -c[0] * c[0] + c[1] * c[1] + c[2] * c[2] + c[3] * c[3] + 1.0 / K
    if abs(resid) > 1e-9 * (1.0 / K + sum(x * x for x in c)):
        raise InvalidArgumentError(
            f"point does not satisfy the hyperboloid constraint for K={K} (residual {resid:.3e})"
        )
    if c[0] <= 0.0:
        raise InvalidArgumentError("hyperboloid points must lie on the upper sheet (x0 > 0)")


def ambient_distance(space: AmbientSpace, p: Point3, q: Point3) -> float:
    """Geodesic distance between two points of the given space.

    Flat: Euclidean norm.  Hyperbolic: (1/sqrt(K)) * arccosh(-K <p,q>_Minkowski).
    """
    if space.is_flat:
        if not (p.is_flat and q.is_flat):
            raise InvalidArgumentError("flat distance requires 3-coordinate points")
        a = p.as_array() - q.as_array()
        return float(np.sqrt(np.dot(a, a)))
    if p.is_flat or q.is_flat:
        raise InvalidArgumentError("hyperbolic distance requires 4-coordinate points")
    _check_on_hyperboloid(space, p)
    _check_on_hyperboloid(space, q)
    K = space.curvature_K
    pc, qc = p.coords, q.coords
    inner = -pc[0] * qc[0] + pc[1] * qc[1] + pc[2] * qc[2] + pc[3] * qc[3]
    # -K*inner >= 1 exactly; clip round-off below 1 before arccosh.
    arg = max(-K * inner, 1.0)
    return math.acosh(arg) / math.sqrt(K)


@dataclass(frozen=True)
class SurfaceCurvatureMeta:
    """Geometric side data consumed by the bound evaluators.

    H_upper/H_lower bound the Gaussian (= sectional) curvature of the surface,
    rho_min/rho_max are the radii used by the lower/upper polar-coordinate
    comparisons, and (chord_arc_delta, chord_arc_kappa) are the chord-arc
    constants with delta*kappa < 1.
    """

    H_upper: float
    H_lower: float
    rho_min: float
    rho_max: float
    chord_arc_delta: float
    chord_arc_kappa: float

    def __post_init__(self):
        if not all(map(math.isfinite, astuple(self))):
            raise InvalidArgumentError(f"curvature data must be finite, got {self}")
        if self.H_lower > self.H_upper:
            raise InvalidArgumentError("H_lower must not exceed H_upper")
        if not (0.0 < self.rho_min <= self.rho_max):
            raise InvalidArgumentError("need 0 < rho_min <= rho_max")
        dk = self.chord_arc_delta * self.chord_arc_kappa
        if not (0.0 < dk < 1.0):
            raise InvalidArgumentError(f"need 0 < delta*kappa < 1, got {dk}")

    @property
    def delta_kappa(self) -> float:
        return self.chord_arc_delta * self.chord_arc_kappa


@dataclass(frozen=True)
class Sphere:
    center: tuple[float, float, float]
    radius: float


@dataclass(frozen=True)
class Torus:
    """Torus of revolution about the z axis through its center."""

    center: tuple[float, float, float]
    R_major: float
    r_minor: float


@dataclass(frozen=True)
class Ellipsoid:
    """Axis-aligned ellipsoid with semi-axes (a, b, c)."""

    center: tuple[float, float, float]
    a: float
    b: float
    c: float


# A chart maps (u, v) -> R^3 onto one closed surface centred at the origin.  u is the polar-type
# parameter on [u_lo, u_hi] (periodic when u_periodic), v is 2*pi-periodic,
# and every method takes broadcasting arrays.  evaluate gives the points and
# the area element |x_u x x_v| from one pass of sin and cos.  revolution
# says whether rotation about the chart axis maps the surface onto itself.


class _TorusChart:
    u_lo, u_hi, u_periodic = 0.0, 2.0 * math.pi, True
    revolution = True

    def __init__(self, R_major, r_minor):
        self.Rmaj = float(R_major)
        self.rmin = float(r_minor)

    def evaluate(self, u, v):
        u, v = np.broadcast_arrays(np.asarray(u, float), np.asarray(v, float))
        ring = self.Rmaj + self.rmin * np.cos(u)
        x = np.stack([ring * np.cos(v), ring * np.sin(v), self.rmin * np.sin(u)], axis=-1)
        return x, self.rmin * ring

    def tangents(self, u, v):
        u, v = np.broadcast_arrays(np.asarray(u, float), np.asarray(v, float))
        su, cu = np.sin(u), np.cos(u)
        sv, cv = np.sin(v), np.cos(v)
        ring = self.Rmaj + self.rmin * cu
        xu = self.rmin * np.stack([-su * cv, -su * sv, cu], axis=-1)
        xv = np.stack([-ring * sv, ring * cv, np.zeros_like(u)], axis=-1)
        return xu, xv


class _ScaledSphereChart:
    """Unit sphere scaled by per-axis semi-axes, pole along a chosen axis.

    The one chart of spheres (equal axes) and axis-aligned ellipsoids.
    Meshes put the pole on axis 2.  The singular-patch quadrature re-seats
    it onto the axis least aligned with the node under integration, so the
    parametrization stays uniformly regular around the singularity.
    """

    u_lo, u_hi, u_periodic = 0.0, math.pi, False

    def __init__(self, semi_axes, pole_axis: int):
        self.axes = np.asarray(semi_axes, dtype=float)
        self.k = int(pole_axis)
        self.i = (self.k + 1) % 3
        self.j = (self.k + 2) % 3
        self.revolution = bool(self.axes[self.i] == self.axes[self.j])

    def evaluate(self, u, v):
        """Points and |x_u x x_v| from one pass of sin and cos.

        The area element is the closed form, (a, b, c) the semi-axes along
        (i, j, k).
        """
        u, v = np.broadcast_arrays(np.asarray(u, float), np.asarray(v, float))
        su, cu = np.sin(u), np.cos(u)
        sv, cv = np.sin(v), np.cos(v)
        a, b, c = (float(self.axes[n]) for n in (self.i, self.j, self.k))
        # J = su sqrt(c^2 su^2 (b^2 cv^2 + a^2 sv^2) + a^2 b^2 cu^2), then x
        # = (axis * su) * cos v etc., in place but in the order every mesh
        # node and CSV value was built with, so few arrays live at once
        J = b * b * cv * cv
        J += a * a * sv * sv
        J *= c * c * su * su
        J += a * a * b * b * cu * cu
        np.sqrt(J, out=J)
        J *= su
        x = np.empty(u.shape + (3,), dtype=float)
        np.multiply(self.axes[self.k], cu, out=x[..., self.k])
        for n, trig in ((self.i, cv), (self.j, sv)):
            np.multiply(self.axes[n], su, out=x[..., n])
            x[..., n] *= trig
        return x, J

    def tangents(self, u, v):
        u, v = np.broadcast_arrays(np.asarray(u, float), np.asarray(v, float))
        su, cu = np.sin(u), np.cos(u)
        sv, cv = np.sin(v), np.cos(v)
        xu = np.empty(u.shape + (3,), dtype=float)
        xv = np.empty(u.shape + (3,), dtype=float)
        xu[..., self.k] = -self.axes[self.k] * su
        xu[..., self.i] = self.axes[self.i] * cu * cv
        xu[..., self.j] = self.axes[self.j] * cu * sv
        xv[..., self.k] = 0.0
        xv[..., self.i] = -self.axes[self.i] * su * sv
        xv[..., self.j] = self.axes[self.j] * su * cv
        return xu, xv

    def params_of_point(self, x) -> tuple[float, float]:
        """Chart coordinates of an on-surface point."""
        q = np.asarray(x, dtype=float) / self.axes
        u = math.acos(float(np.clip(q[self.k], -1.0, 1.0)))
        v = math.atan2(float(q[self.j]), float(q[self.i]))
        return u, v


@dataclass(frozen=True, eq=False)
class SurfaceForm:
    """A mesh's shape up to translation and scale, with its order and grid.

    shape is the surface moved to the origin and divided by its scale (the
    torus R_major or the ellipsoid a; a sphere's is Ellipsoid(origin, 1,
    1, 1)), and chart is its parametrization there.  The node grid is built
    once, here: params[k] are the (u, v) chart coordinates of node k,
    nodes[k] lies on shape and weights[k] > 0, all three read-only.  area
    is the closed form (torus, and 4 pi for the unit sphere) or None, for
    the math.fsum of the weights.  Equal forms are one instance, interned
    in _FORMS, which hashes by identity (eq=False) and lives as long as
    some mesh of that form.
    """

    shape: object
    order: int
    chart: _ScaledSphereChart | _TorusChart = field(repr=False)
    area: float | None = field(repr=False)
    params: np.ndarray = field(init=False, repr=False)
    nodes: np.ndarray = field(init=False, repr=False)
    weights: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        grid = _node_grid(self.chart, self.order)
        U, V, nodes, W = (a.reshape(-1, *a.shape[2:]) for a in grid)
        _set_read_only(self, params=np.stack([U, V], axis=-1), nodes=nodes, weights=W)
        object.__setattr__(self, "area", math.fsum(W) if self.area is None else self.area)


def _set_read_only(obj, **arrays) -> None:
    """Set each array as a read-only field of a frozen obj."""
    for name, a in arrays.items():
        a.flags.writeable = False
        object.__setattr__(obj, name, a)


_FORMS = weakref.WeakValueDictionary()  # (canonical shape, order) -> its SurfaceForm


@dataclass(frozen=True, eq=False)
class SurfaceMesh:
    """Product quadrature mesh of a Sphere, Torus or Ellipsoid at an order.

    A mesh is its shape, its order and curvature_meta, the user's curvature
    data or None for the shape's own; every other field is derived here,
    so dataclasses.replace on a mesh rebuilds it and no field can disagree
    with the shape.  A Sphere of radius R is built as the Ellipsoid of
    semi-axes (R, R, R), keeping its Sphere shape.  Spheres and ellipsoids
    get Gauss-Legendre in cos(u) times uniform azimuth, tori the uniform
    product rule in both angles.  The form is the shape moved to the
    origin and divided by scale (the torus R_major or the ellipsoid a),
    interned with its chart and node grid; nodes = centre + scale *
    form.nodes and weights = scale^2 * form.weights, read-only.  nodes[k]
    lies on the surface, weights[k] > 0, and area = scale^2 * form.area
    for every shape.  meta is curvature_meta or, when that is None, the
    shape's own:
    - torus: the Gaussian curvature range of the torus of revolution,
      rho_max = pi*(R + 2r) (a covering-radius bound), rho_min = pi*r/2,
      and chord-arc constants with delta*kappa = 0.75 (safe for the worst
      arc/chord ratio ~ pi/2 attained on equatorial half-loops);
    - ellipsoid: Gaussian curvature attains its extrema at the axis
      endpoints, K(axis p) = p^2/(q^2 s^2) for {p,q,s} the semi-axes,
      which fills H_upper/H_lower in closed form (a sphere's H = 1/R^2
      and rho = pi*R/2, up to rounding).
    Instances hash by identity (eq=False), which the quadrature's caches
    key on.
    """

    shape: object
    order: int
    curvature_meta: SurfaceCurvatureMeta | None = None
    form: SurfaceForm = field(init=False, repr=False)
    scale: float = field(init=False)
    area: float = field(init=False)
    diameter_ambient: float = field(init=False)
    meta: SurfaceCurvatureMeta = field(init=False)
    nodes: np.ndarray = field(init=False, repr=False)
    weights: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        shape, meta = self.shape, self.curvature_meta
        if not isinstance(shape, (Sphere, Torus, Ellipsoid)):
            raise UnsupportedShapeError(f"unsupported shape {type(shape).__name__}")
        order = _check_order(self.order)
        center = _check_center(shape.center)
        if isinstance(shape, Torus):
            _check_sizes("torus radii", shape.R_major, shape.r_minor)
            if shape.r_minor >= shape.R_major:
                raise GeometryViolationError(
                    f"torus needs r_minor < R_major, got r={shape.r_minor}, R={shape.R_major}"
                )
            R, r = float(shape.R_major), float(shape.r_minor)
            shape = Torus(center, R, r)
            form_shape = Torus(_ORIGIN, 1.0, r / R)
            scale = R
            _check_sizes("torus r_minor / R_major", form_shape.r_minor)
            chart = _TorusChart(1.0, form_shape.r_minor)
            diameter = 2.0 * (R + r)
            form_area = 4.0 * math.pi * math.pi * form_shape.r_minor
            if meta is None:
                kap = max(1.0 / r, 1.0 / (R - r))
                meta = SurfaceCurvatureMeta(
                    H_upper=1.0 / (r * (R + r)),
                    H_lower=-1.0 / (r * (R - r)),
                    rho_min=math.pi * r / 2.0,
                    rho_max=math.pi * (R + 2.0 * r),
                    chord_arc_delta=0.75 / kap,
                    chord_arc_kappa=kap,
                )
        else:  # a sphere is the ellipsoid of equal semi-axes (R, R, R)
            sphere = isinstance(shape, Sphere)
            sizes = (shape.radius,) if sphere else (shape.a, shape.b, shape.c)
            _check_sizes("sphere radius" if sphere else "ellipsoid semi-axes", *sizes)
            axes = tuple(map(float, sizes * 3 if sphere else sizes))
            shape = Sphere(center, axes[0]) if sphere else Ellipsoid(center, *axes)
            form_shape = Ellipsoid(_ORIGIN, 1.0, axes[1] / axes[0], axes[2] / axes[0])
            scale = axes[0]
            _check_sizes("ellipsoid b / a and c / a", form_shape.b, form_shape.c)
            chart = _ScaledSphereChart((1.0, form_shape.b, form_shape.c), 2)
            diameter = 2.0 * max(axes)
            # the unit sphere's closed form, else none: the weights' math.fsum
            form_area = 4.0 * math.pi if form_shape.b == form_shape.c == 1.0 else None
            if meta is None:
                # p^2/(q^2 s^2) as (p / (q s))^2: the (abc)^2 of p^4/(abc)^2
                # underflows for axes that pass _check_sizes (1e-76 each)
                x, y, z = axes
                curv = [k * k for k in (x / (y * z), y / (z * x), z / (x * y))]
                H_up, H_lo = max(curv), min(curv)
                kap = max(axes) / min(axes) ** 2
                meta = SurfaceCurvatureMeta(
                    H_upper=H_up,
                    H_lower=H_lo,
                    rho_min=(math.pi / 2.0) / math.sqrt(H_up),
                    rho_max=(math.pi / 2.0) / math.sqrt(H_lo),
                    chord_arc_delta=0.75 / kap,
                    chord_arc_kappa=kap,
                )
        if meta.H_lower > 0.0:
            # Bonnet-Myers: ambient diameter cannot exceed the intrinsic one.
            cap = math.pi / math.sqrt(meta.H_lower)
            if diameter > cap * (1.0 + 1e-12):
                raise GeometryViolationError(
                    f"H_lower={meta.H_lower} contradicts diameter {diameter}"
                )
        form = _FORMS.get((form_shape, order))
        if form is None:
            form = _FORMS[form_shape, order] = SurfaceForm(form_shape, order, chart, form_area)
        derived = dict(
            shape=shape, order=order, form=form, scale=scale, area=scale**2 * form.area,
            diameter_ambient=float(diameter), meta=meta,
        )
        for name, value in derived.items():
            object.__setattr__(self, name, value)
        nodes = np.asarray(center) + scale * form.nodes
        _set_read_only(self, nodes=nodes, weights=scale * scale * form.weights)


# Highest quadrature order.  The geometry of a pair that is not two spheres
# grows as order^4: measured peak RSS of `bounds` on a unit sphere and an
# ellipsoid with collinear centres (README) is 48 / 90 MB at orders 32 / 48,
# and order 64 would extrapolate to about 0.2 GB.  Two spheres go on rings
# and peak at 37 MB at order 48.
MAX_ORDER = 48


def _check_order(order: int) -> int:
    if not isinstance(order, (int, np.integer)) or not 4 <= order <= MAX_ORDER:
        raise InvalidArgumentError(
            f"quadrature order must be an integer in [4, {MAX_ORDER}], got {order}"
        )
    return int(order)


@functools.lru_cache(maxsize=64)
def _gauss_legendre(n: int):
    """Gauss-Legendre nodes and weights on [-1, 1], cached read-only: the
    Gauss rule of Legendre's recurrence, alpha_k = 0 and beta_k = k^2 /
    (4 k^2 - 1) with beta_0 = 2, symmetrised and scaled to sum to 2.
    numpy's ``leggauss`` would import all of ``numpy.polynomial`` (about
    1 MB resident) for it.
    """
    k = np.arange(1, n)
    x, w = _gauss_rule(np.zeros(n), [2.0, *(k * k / (4.0 * k * k - 1.0))])
    w = (w + w[::-1]) / 2
    x = (x - x[::-1]) / 2
    w *= 2.0 / w.sum()
    x.flags.writeable = w.flags.writeable = False
    return x, w


def _node_grid(chart, order: int):
    """The (order, 2 order) grids of u, v, nodes and weights of a chart.

    v is uniform.  Polar-type charts take Gauss-Legendre in w = cos(u),
    doubly periodic ones the uniform trapezoid in u.  dA = J(u, v) du dv
    and du = dw / sin(u), so W = (J / s_u) w_u dv with s_u = sin(u) and
    w_u the Gauss-Legendre weights, or s_u = 1 and w_u = 2 pi / order.
    """
    if chart.u_periodic:
        u = 2.0 * math.pi * np.arange(order) / order
        su, wu = 1.0, 2.0 * math.pi / order
    else:
        x, w = _gauss_legendre(order)
        u = np.arccos(x[::-1])  # ascending u
        su, wu = np.sin(u)[:, None], w[::-1, None]
    nv = 2 * order
    v = 2.0 * math.pi * np.arange(nv) / nv
    dv = 2.0 * math.pi / nv
    U, V = np.meshgrid(u, v, indexing="ij")
    nodes, J = chart.evaluate(U, V)
    W = (J / su) * wu * dv
    return U, V, nodes, W


def _check_center(center) -> tuple[float, float, float]:
    # a finite fourth power, the bound _check_sizes puts on sizes, keeps
    # every node distance and its square finite
    center = tuple(float(c) for c in center)
    if not all(math.isfinite(c * c * c * c) for c in center):
        raise InvalidArgumentError(
            f"surface center coordinates must have a finite fourth power, got {center}"
        )
    return center


def _check_sizes(what: str, *sizes: float) -> None:
    # weights scale with a size to the fourth power (the self-integral's
    # form geometry), so that power must neither underflow nor overflow;
    # a form's own sizes, divided by the scale, are checked the same way
    for s in map(float, sizes):
        if not (s > 0.0 and _is_normal(s * s * s * s)):
            raise InvalidArgumentError(
                f"{what} must be positive with a normal float fourth power, got {sizes}"
            )


_ORIGIN = (0.0, 0.0, 0.0)


def build_surface(shape: object, order: int = 16, meta: SurfaceCurvatureMeta | None = None) -> SurfaceMesh:
    """The SurfaceMesh of a Sphere, Torus or Ellipsoid at the given order,
    with meta as its curvature_meta (None for the shape's own)."""
    return SurfaceMesh(shape, order, meta)


def implicit_value(shape: object, x: np.ndarray):
    """Signed implicit function of a shape: ~0 on the surface, <0 inside.

    x is one point, giving a float, or an (N, 3) array of points, giving an
    (N,) array.
    """
    x = np.asarray(x, dtype=float)
    if isinstance(shape, Sphere):
        val = np.linalg.norm(x - np.asarray(shape.center), axis=-1) - shape.radius
    elif isinstance(shape, Torus):
        rel = x - np.asarray(shape.center)
        ring = np.hypot(rel[..., 0], rel[..., 1]) - shape.R_major
        val = np.hypot(ring, rel[..., 2]) - shape.r_minor
    elif isinstance(shape, Ellipsoid):
        rel = x - np.asarray(shape.center)
        q = np.sum((rel / (shape.a, shape.b, shape.c)) ** 2, axis=-1)
        # scaled by the least semi-axis, so the value is a length like the
        # other shapes' (|x - center| - R when a = b = c = R), which the
        # on-surface tolerances, shares of a diameter, assume
        val = (np.sqrt(q) - 1.0) * min(shape.a, shape.b, shape.c)
    else:
        raise UnsupportedShapeError(f"unsupported shape {type(shape).__name__}")
    return float(val) if np.ndim(val) == 0 else val
