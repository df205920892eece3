"""Quadrature engine for surface pair integrals with weakly singular kernels.

Two rules cooperate here:

* Distinct surfaces: product rule over both node sets (the kernel is
  smooth between disjoint surfaces).

* Same surface: for each outer node, the inner integral is evaluated in
  polar coordinates centered at that node, where the area element rho d_rho
  cancels the 1/d kernel singularity.  The parameter rectangle is mapped to
  locally isometric coordinates (a metric shear), fanned into four triangles
  from the center, and integrated by Gauss-Legendre in angle and radius.
  For sphere and ellipsoid charts the patch chart's pole is re-seated onto
  the coordinate axis least aligned with the node, so the parametrization is
  uniformly regular around the singularity.

Orbit rule, for both: a symmetry that maps the node grid onto itself, and
the inner integral's domain onto itself, gives every outer node of one
orbit the same inner integral.  There only the orbit's least node gets an
outer row, weighted by the math.fsum of the orbit's outer weights.

* Self-integrals: on a surface of revolution about its chart axis (every
  sphere and torus, and an ellipsoid with a == b) the orbits are the
  u-rings, so a mesh of order n builds n patch rows instead of 2 n^2.  A
  general ellipsoid has the orbits of the three reflections about its
  centre, (n / 2) (n / 2 + 1) rows for even n (156 instead of 1152 at
  n = 24).  Every mesh gets one of the two.

* Pairs: the frame and the group are the pair's, the rows the orbit
  rule's over the outer mesh's weights, each against every inner node.
  Two spheres (meshes on a sphere-family chart with equal axes, an
  Ellipsoid(R, R, R) among them) revolve about their line of centres, so
  they are summed with it as the z axis, both forms' nodes scaled and the
  centres D apart, and the orbits are the outer form's u-rings: 24 rows
  instead of 1152 at order 24 whatever the direction of the line.  Any
  other pair keeps the user's frame, where a coordinate plane through both
  centres mirrors each mesh onto itself (every form is mirror-symmetric in
  its coordinate planes), and the orbits are those of the shared
  reflections: 300 rows instead of 1152 for an order-24 sphere beside a
  torus or an ellipsoid on the x axis, every node in general position.

All reductions run over fixed _BLOCK = 16384-sample blocks, one kernel
call each, so the kernel's scratch memory stays one block long (128 kB per
array).  Each block is dotted in _DOT = 8192-sample pieces, below the
10 000 samples from which OpenBLAS splits a dot over its threads, and the
pieces' partial sums are combined with math.fsum.  So every sum runs on
the calling thread alone, and its bits do not depend on the BLAS thread
count or on the machine's core count.  Each kernel call
costs fixed Python overhead, so a larger block means fewer calls: an
order-24 mirror-rule pair sum of 345 600 samples makes 22 instead of 85
at 4096 (an order-24 sphere pair, 27 648 samples, makes 2).  Warm
order-24 coupling and pair solves, timed interleaved with thread-free
dots (2 vCPU, numpy 2.4), took 25-35% longer at 4096, 1-10% longer at
8192, and 0-5% less at 32768, which doubles the scratch arrays.

Every double sum takes one path, and only this module knows how the
static kernel G depends on nu: double_sum takes two channels (surfaces, or
points of one node of weight 1 and V = 1), the space, the constants, nu
and a derivative order, and returns P = (V_a V_b)^{-1/2} times the double
integral of G with its nu-derivatives up to that order.  It refuses
nu < 0, and a surface outside flat space, whose node distances it
measures as Euclidean.  The self-integral goes to diag_weighted_sum, the
rest to offdiag_weighted_sum, and their cached (distances, weights) to
weighted_kernel_sum, which sums the distance moments M_k of w d^k G from
one static_kernel_array pass (G, d G) per block.  A self-integral is
summed only up to s nu = _SELF_NU_CEIL, the range its patch rule
resolves.  At nu = 0, where G = pref / d, a surface's M_k is pref sum w
d^(k-1) instead, with no kernel pass: every geometry, a form's
self-integral, a pair or a surface and a point, caches the
_RULE_NODES-point Gauss rule (x, W) of its measure w / d (_rule), whose
sum W x^k is sum w d^(k-1), exactly for k < 2 _RULE_NODES, and which
bounds P from below at every nu >= 0 (principal._gauss_level).
_blocked_dots takes a block's columns one at a time, so a sum holds a
few block arrays at most.  A pair's
weights are the outer product of two vectors, which its geometry keeps
in their place; each block forms its own products (_block_weights).
As dG/dnu = -gamma' d G and d^2G/dnu^2 = gamma'^2 d^2 G in flat space
(gamma'' = 0), the k-th derivative is (-gamma')^k M_k / sqrt(V_a V_b):
a slope costs one more dot per block and no cached array.
_diag_geometry caches per mesh, _pair_geometry per mesh pair and
_point_geometry per (mesh, point), for exactly as long as they live: they
hold them by weak reference, so a sweep that builds a new mesh per point
frees each point's geometry with it, while a mesh a caller keeps gets its
geometry back.  A pair build first checks that neither surface's nodes
lie inside the other and that no two nodes coincide; else it raises
GeometryViolationError and caches nothing.  A point build checks nothing:
a point may sit inside a shell.

Forms: every mesh is its form's node grid scaled by its scale s and moved
to its centre, by construction: geometry.SurfaceMesh derives its nodes and
weights from its geometry.SurfaceForm (the shape at the origin divided by
s, with its order, chart and grid), and equal shapes share one interned
form.  So the self-integral geometry is the form's: _form_geometry builds
the patch rows once per form at s = 1, and _diag_geometry returns those
very arrays at every scale.  In flat space G_nu(s d) = G_{s nu}(d) / s and
the weights scale by s^4, so a self-integral at scale s is its form's at
s nu: P(nu) = s P_form(s nu), P' = s^2 P_form'(s nu), P'' = s^3
P_form''(s nu).  diag_weighted_sum normalizes the form's sums by
form.area before it applies the powers of s, so nothing over- or
underflows at any size the mesh builder accepts.  The form geometry lives
as long as any mesh of its form: the meshes hold the form, the cache holds
it weakly.  So equal spheres share one patch build, and a radius sweep
builds one while the config's own mesh, of the same form, lives.  Sphere
pairs take their u-rings from the orbit rule, building no patch rows.

Every cached geometry is built in bounded blocks, so a build needs at
most 1 MiB besides the arrays it keeps.  A pair's or a point's distances
go a block of outer rows, about _BLOCK distances, at a time (_pair_distances),
straight into the (rows, n) array it keeps; a block's (rows, n, 3) node
difference takes 0.4 MiB.  Patch rows are built _PATCH_CHUNK = 8 at a
time, updated in place: 0.97 MiB of scratch on an order-24 general
ellipsoid, whose rows build about 15% faster than 4 at a time.
"""

from __future__ import annotations

import functools
import math
import weakref
from collections import namedtuple

import numpy as np

from .errors import GeometryViolationError, InvalidArgumentError, UnsupportedRegimeError
from .geometry import (
    AmbientSpace,
    PhysicalConstants,
    Point3,
    SurfaceForm,
    SurfaceMesh,
    _gauss_legendre,
    _ScaledSphereChart,
    ambient_distance,
    implicit_value,
)
from .jacobi import _gauss_rule
from .kernels import _decay_rate, static_kernel_array

_BLOCK = 16384  # samples per kernel call and per pair-distance block; see the module docstring
_DOT = 8192  # samples per dot product, below OpenBLAS's threading threshold
_PATCH_CHUNK = 8  # patch rows built per batch, which caps the scratch arrays
_RULE_NODES = 4  # Gauss points of a geometry's rule (_rule)
_N_PSI = 16  # Gauss-Legendre order in angle, per fan triangle
_N_S = 24  # Gauss-Legendre order in scaled radius
_POLE_TIE = 1e-12  # node alignments this close pick the patch pole by axis order
# The largest s nu at which a self-integral is summed, s the mesh's scale.
# The fixed _N_S radial points set the error, 9.4e-15 / 4.9e-10 / 2.8e-6 /
# 2.4e-3 of the sphere's at s nu = 10 / 30 / 50 / 100: 30 is the last
# within 1e-9, the self-integral tests' tolerance.
_SELF_NU_CEIL = 30.0


def _gl01(n: int):
    """Gauss-Legendre nodes/weights on [0, 1]."""
    x, w = _gauss_legendre(n)
    return 0.5 * (x + 1.0), 0.5 * w


_CacheInfo = namedtuple("CacheInfo", ["hits", "misses", "maxsize", "currsize"])


def _mesh_cache(fn):
    """Cache fn(*meshes) for as long as every one of its meshes lives.

    Results sit in nested weakref.WeakKeyDictionary tables, [mesh_i][mesh_j]
    for a pair, so an entry goes when any of its meshes is collected.
    SurfaceMesh and SurfaceForm (eq=False) hash by identity, a Point3 by its
    coordinates.  The wrapper keeps lru_cache's cache_info() and
    cache_clear().
    """
    depth = fn.__code__.co_argcount
    table = weakref.WeakKeyDictionary()
    hits = misses = 0

    @functools.wraps(fn)
    def cached(*meshes):
        nonlocal hits, misses
        node = table
        try:
            for mesh in meshes:
                node = node[mesh]
        except KeyError:
            pass
        else:
            hits += 1
            return node
        misses += 1
        out = fn(*meshes)
        node = table
        for mesh in meshes[:-1]:
            node = node.setdefault(mesh, weakref.WeakKeyDictionary())
        node[meshes[-1]] = out
        return out

    def cache_info():
        nodes = [table]
        for _ in range(depth - 1):
            nodes = [inner for node in nodes for inner in node.values()]
        return _CacheInfo(hits, misses, None, sum(map(len, nodes)))

    def cache_clear():
        nonlocal hits, misses
        table.clear()
        hits = misses = 0

    cached.cache_info = cache_info
    cached.cache_clear = cache_clear
    return cached


def _block_weights(weights, o: int) -> np.ndarray:
    """Samples o .. o + _BLOCK of weights: a flat array, or a pair's
    (outer, inner) vectors, which stand for their row-major outer product
    and whose block takes the products outer[row] * inner of its rows.
    einsum forms them with a broadcast multiply's bits in 10.7 instead of
    18 us for an order-24 block (2-vCPU Xeon, numpy 2.4)."""
    if isinstance(weights, np.ndarray):
        return weights[o : o + _BLOCK]
    outer, inner = weights
    n = inner.shape[0]
    first = o // n
    skip = o - first * n
    rows = np.einsum("i,j->ij", outer[first : -(-(o + _BLOCK) // n)], inner)
    return rows.reshape(-1)[skip : skip + _BLOCK]


def _blocked_dots(weights, dists: np.ndarray, columns) -> tuple[float, ...]:
    """The sums of w c(d) over the arrays c(d) that columns yields, one at
    a time, per _BLOCK block of d, each dotted per _DOT samples and
    combined by math.fsum; weights as _block_weights reads them."""
    partials = []
    for o in range(0, dists.shape[0], _BLOCK):
        w = _block_weights(weights, o)
        for k, a in enumerate(columns(dists[o : o + _BLOCK])):
            if k == len(partials):
                partials.append([])
            partials[k] += (w[h : h + _DOT].dot(a[h : h + _DOT]) for h in range(0, w.size, _DOT))
        # Free the block's arrays before the next kernel call: with two
        # blocks' arrays alive, glibc trimmed and re-faulted the heap every
        # block, which more than doubled a warm order-24 self-integral.
        del w, a
    return tuple(map(math.fsum, partials))


def weighted_kernel_sum(
    weights,
    dists: np.ndarray,
    space: AmbientSpace,
    constants: PhysicalConstants,
    nu: float,
    order: int,
) -> tuple[float, ...]:
    """The distance moments M_k = sum of w d^k G(d) of the static kernel G at
    nu, k = 0 .. order (at most 2): one static_kernel_array call per block,
    with weights as _block_weights reads them."""

    def columns(d):
        g, dg = static_kernel_array(space, constants, nu, d, moment=True)
        yield from (g, dg)[: order + 1]
        if order == 2:
            yield d * dg

    return _blocked_dots(weights, dists, columns)


def _nu_derivatives(
    moments, space: AmbientSpace, constants: PhysicalConstants, nu: float, norm: float
) -> tuple[float, ...]:
    """P^(k) = (-gamma')^k M_k / norm from the distance moments M_k: dG/dnu
    = -gamma'(nu) d G, and d^2G/dnu^2 = gamma'^2 d^2 G in flat space, where
    gamma'' = 0."""
    rate = -_decay_rate(space, constants, nu)[1]
    return tuple(rate**k * (m / norm) for k, m in enumerate(moments))


def _patch_chart_groups(form: SurfaceForm, rows: np.ndarray):
    """Group the outer rows by the patch chart used for their singular patch.

    Returns (positions into rows, chart) pairs covering every row once.  A
    torus keeps its form's chart; a sphere or ellipsoid row gets the form's
    chart with its pole on the axis least aligned with the row's node.
    Alignments within _POLE_TIE of the least are ties, which go to the
    lowest axis, so a last-bit change in a node cannot switch its chart.
    """
    chart = form.chart
    if not isinstance(chart, _ScaledSphereChart):
        return [(np.arange(rows.size), chart)]
    q = np.abs(form.nodes[rows] / chart.axes)  # |q| = 1
    pole = np.argmax(q <= q.min(axis=1, keepdims=True) + _POLE_TIE, axis=1)
    groups = []
    for k in range(3):
        pos = np.nonzero(pole == k)[0]
        if pos.size:
            groups.append((pos, _ScaledSphereChart(chart.axes, k)))
    return groups


def _orbit_rows(form: SurfaceForm, weights: np.ndarray, mirrors=None):
    """An orbit rule's outer rows, ascending, and the math.fsum of each
    orbit's weights, the form's or those of a mesh of the form.

    The form's nodes form an order x 2*order grid: contiguous blocks of
    equal u, each starting at v = 0.  A symmetry group that maps this grid
    onto itself acts on the u and the v index separately, so the least
    image of a node, its least u image times 2*order plus its least v
    image, is the row that stands for its orbit.

    mirrors lists the coordinate axes a whose reflection x_a -> -x_a about
    the centre to use: x -> -x is v -> pi - v and y -> -y is v -> -v on the
    uniform v nodes; z -> -z is u -> pi - u on the symmetric Gauss-Legendre
    nodes in cos u, and u -> -u (mod 2 pi) on the periodic u nodes of a
    torus.  Every builder form is mirror-symmetric in the three coordinate
    planes (tests/test_quadrature.py checks each).  None asks for the
    form's own group, which the self-integral uses, and a sphere pair on
    its line of centres: the u-rings on a surface of revolution about its
    chart axis (each v's least image is 0), all three reflections otherwise.
    """
    n_u = form.order
    n_v = 2 * n_u
    i, k = np.arange(n_u), np.arange(n_v)
    if mirrors is None and form.chart.revolution:
        u_least, v_least = i, np.zeros_like(k)
    else:
        mirrors = (0, 1, 2) if mirrors is None else mirrors
        h = n_v // 2  # v = pi
        x, y, z = (a in mirrors for a in range(3))
        u_maps = [i, -i % n_u if form.chart.u_periodic else n_u - 1 - i]
        # identity, y -> -y, x -> -x, and both: v, -v, pi - v, pi + v
        v_maps = [k, -k % n_v, (h - k) % n_v, (h + k) % n_v]
        u_least = np.min(u_maps[: 1 + z], axis=0)
        v_least = np.min([m for m, use in zip(v_maps, (True, y, x, x and y)) if use], axis=0)
    least = (u_least[:, None] * n_v + v_least).reshape(-1)
    rows, orbit = np.unique(least, return_inverse=True)
    w = weights[np.argsort(orbit)].tolist()
    ends = np.cumsum(np.bincount(orbit)).tolist()
    return rows, np.array([math.fsum(w[a:b]) for a, b in zip([0, *ends], ends)])


def _build_patch_group(form: SurfaceForm, idx: np.ndarray, chart):
    """Polar-patch quadrature for one batch of nodes sharing a chart.

    Returns (dists, jw) of shape (B, 4*_N_PSI*_N_S): distances from each
    node to its patch points and the matching quadrature weights, whose row
    sums equal the surface area.
    """
    B = idx.shape[0]
    nodes = form.nodes[idx]
    if isinstance(chart, _ScaledSphereChart):
        uv = np.array([chart.params_of_point(x) for x in nodes])
        u0, v0 = uv[:, 0], uv[:, 1]
    else:
        u0, v0 = form.params[idx, 0], form.params[idx, 1]

    xu, xv = chart.tangents(u0, v0)
    E = np.einsum("bi,bi->b", xu, xu)
    F = np.einsum("bi,bi->b", xu, xv)
    G = np.einsum("bi,bi->b", xv, xv)
    a11 = np.sqrt(E)
    a12 = F / a11
    a22 = np.sqrt(np.maximum(G - a12 * a12, 0.0))
    det = a11 * a22  # = sqrt(E G - F^2)

    if chart.u_periodic:
        du_lo = np.full(B, -math.pi)
        du_hi = np.full(B, math.pi)
    else:
        du_lo = chart.u_lo - u0
        du_hi = chart.u_hi - u0
    dv_lo, dv_hi = -math.pi, math.pi

    # Quadrilateral corners around the node, CCW, in sheared coordinates
    # (du, dv) -> (a11 du + a12 dv, a22 dv).  The node is strictly inside,
    # as du_lo < 0 < du_hi (a re-seated pole keeps u0 in (0, pi)), a11 > 0
    # and a22 > 0, so each edge's outward normal has h = <normal, C> > 0.
    corners_uv = np.empty((B, 4, 2))
    corners_uv[:, 0] = np.stack([du_lo, np.full(B, dv_lo)], axis=1)
    corners_uv[:, 1] = np.stack([du_hi, np.full(B, dv_lo)], axis=1)
    corners_uv[:, 2] = np.stack([du_hi, np.full(B, dv_hi)], axis=1)
    corners_uv[:, 3] = np.stack([du_lo, np.full(B, dv_hi)], axis=1)
    C = np.empty_like(corners_uv)
    C[..., 0] = a11[:, None] * corners_uv[..., 0] + a12[:, None] * corners_uv[..., 1]
    C[..., 1] = a22[:, None] * corners_uv[..., 1]

    theta = np.arctan2(C[..., 1], C[..., 0])  # (B, 4)
    g_psi, w_psi = _gl01(_N_PSI)
    g_s, w_s = _gl01(_N_S)

    Q = np.roll(C, -1, axis=1)  # edge end corners; C holds the start corners
    span = np.mod(np.roll(theta, -1, axis=1) - theta, 2.0 * math.pi)  # (B, 4)
    psi = theta[..., None] + span[..., None] * g_psi  # (B, 4, n_psi)
    e = np.stack([np.cos(psi), np.sin(psi)], axis=-1)

    nrm = np.stack([Q[..., 1] - C[..., 1], C[..., 0] - Q[..., 0]], axis=-1)
    h = np.einsum("bki,bki->bk", nrm, C)
    denom = np.einsum("bki,bkji->bkj", nrm, e)
    rho_max = h[..., None] / denom  # (B, 4, n_psi)

    # dv and du become v and u, and Y its node difference, in place, so the
    # most (B, 4, n_psi, n_s) arrays live at once inside chart.evaluate
    rho = rho_max[..., None] * g_s
    v = rho * e[..., 1:2] / a22[:, None, None, None]
    u = (rho * e[..., 0:1] - a12[:, None, None, None] * v) / a11[:, None, None, None]
    del rho
    u += u0[:, None, None, None]
    v += v0[:, None, None, None]

    Y, J = chart.evaluate(u, v)  # (B, 4, n_psi, n_s, 3), (B, 4, n_psi, n_s)
    Y -= nodes[:, None, None, None, :]
    d = np.sqrt(np.einsum("...i,...i->...", Y, Y))

    w_ang = span[..., None] * w_psi  # (B, 4, n_psi)
    jw = (
        J
        * (rho_max * rho_max * w_ang)[..., None]
        * (g_s * w_s)
        / det[:, None, None, None]
    )
    return d.reshape(B, -1), jw.reshape(B, -1)


def _patch_rows(form: SurfaceForm, rows: np.ndarray, row_weights: np.ndarray):
    """Self-integral geometry (d, w) for the given outer rows.

    d holds the distances from each row's node to its patch points and w
    the matching patch weights times the row's outer weight, both flattened
    row by row.  weighted_kernel_sum(w, d, kernel) is the double surface
    integral of a radial kernel (no 1/V normalization applied) whenever the
    rows carry the whole outer rule: the rows of _orbit_rows, which the
    cached _form_geometry uses, or every node with its own weight, which
    the tests use as the reference rule.  Rows are built _PATCH_CHUNK at a
    time; each row is independent of the others, so the chunking changes no
    bit of the result.
    """
    M = 4 * _N_PSI * _N_S
    d = np.empty((rows.size, M))
    w = np.empty((rows.size, M))
    for pos, chart in _patch_chart_groups(form, rows):
        for k in range(0, pos.size, _PATCH_CHUNK):
            chunk = pos[k : k + _PATCH_CHUNK]
            d[chunk], w[chunk] = _build_patch_group(form, rows[chunk], chart)
    w *= row_weights[:, None]
    return d.reshape(-1), w.reshape(-1)


@_mesh_cache
def _form_geometry(form: SurfaceForm):
    """Orbit rows, their weights and the orbit-rule (d, w) of a form: the
    self-integral geometry at the origin with scale 1."""
    rows, row_weights = _orbit_rows(form, form.weights)
    return rows, row_weights, *_patch_rows(form, rows, row_weights)


@_mesh_cache
def _diag_geometry(mesh: SurfaceMesh):
    """Self-integral geometry (d, w) of one surface under the orbit rule:
    its form's arrays at every scale, to which diag_weighted_sum applies
    the scale law."""
    return _form_geometry(mesh.form)[2:]


def patch_weight_residual(mesh: SurfaceMesh) -> float:
    """Max relative defect of per-row patch weights against the area."""
    rows, row_weights, _, w = _form_geometry(mesh.form)
    sums = w.reshape(rows.size, -1).sum(axis=1) / row_weights
    return float(np.max(np.abs(sums - mesh.form.area)) / mesh.form.area)


def _is_sphere(mesh: SurfaceMesh) -> bool:
    """Whether the mesh is a sphere: a sphere-family chart with equal axes,
    which an Ellipsoid(R, R, R) has too."""
    chart = mesh.form.chart
    return isinstance(chart, _ScaledSphereChart) and bool(np.all(chart.axes == chart.axes[0]))


def _pair_distances(outer: np.ndarray, inner: np.ndarray) -> np.ndarray:
    """Distances (rows, n) from each outer node to every inner node.

    Each block of outer rows, about _BLOCK distances, forms its (rows, n,
    3) node differences and writes their norms into the result, so the
    build never holds the differences of all rows, and each distance has
    the bits it has in one difference over all rows.
    """
    d = np.empty((outer.shape[0], inner.shape[0]))
    step = max(1, _BLOCK // inner.shape[0])
    for o in range(0, outer.shape[0], step):
        diff = outer[o : o + step, None, :] - inner[None, :, :]
        block = d[o : o + step]
        np.einsum("ijk,ijk->ij", diff, diff, out=block)
        np.sqrt(block, out=block)
    return d


@_mesh_cache
def _pair_geometry(mesh_i: SurfaceMesh, mesh_j: SurfaceMesh):
    """(d, outer_w, inner_w) of two disjoint surfaces: the flattened
    (rows, n) distances, the outer rows' orbit weights and mesh_j's
    weights, whose row-major outer product weights d (_block_weights).

    Raises GeometryViolationError, caching nothing, when either surface's
    nodes lie inside the other beyond a 0.5e-9 share of the larger diameter,
    or when a node of one is a node of the other (zero distance).
    The branches pick only the frame and the group: two spheres sit on
    their line of centres, the z axis, with the outer form's u-rings as
    orbits (mirrors=None), so the user's nodes serve only the checks; any
    other pair keeps the user's frame and the reflections in the
    coordinate planes through both centres, which mirror each mesh onto
    itself (a pair sharing no plane keeps every node).  One row per orbit
    (_orbit_rows) carries the orbit's summed weight of mesh_i and its
    distances to every node of mesh_j, built a block of rows at a time
    (_pair_distances), so the build's peak is the arrays it keeps plus one
    block.
    """
    tol = -0.5e-9 * max(mesh_i.diameter_ambient, mesh_j.diameter_ambient)
    if np.any(implicit_value(mesh_i.shape, mesh_j.nodes) < tol) or np.any(
        implicit_value(mesh_j.shape, mesh_i.nodes) < tol
    ):
        raise GeometryViolationError(
            f"surfaces {type(mesh_i.shape).__name__} and {type(mesh_j.shape).__name__} overlap"
        )
    if _is_sphere(mesh_i) and _is_sphere(mesh_j):
        outer, inner = mesh_i.scale * mesh_i.form.nodes, mesh_j.scale * mesh_j.form.nodes
        inner[:, 2] += math.dist(mesh_i.shape.center, mesh_j.shape.center)
        mirrors = None
    else:
        outer, inner = mesh_i.nodes, mesh_j.nodes
        mirrors = tuple(a for a in range(3) if mesh_i.shape.center[a] == mesh_j.shape.center[a])
    rows, outer_w = _orbit_rows(mesh_i.form, mesh_i.weights, mirrors)
    d = _pair_distances(outer[rows], inner)
    if not d.min() > 0.0:  # also catches NaN
        raise GeometryViolationError(
            f"surfaces {type(mesh_i.shape).__name__} and {type(mesh_j.shape).__name__} share a node"
        )
    return d.reshape(-1), outer_w, mesh_j.weights


@_mesh_cache
def _point_geometry(mesh: SurfaceMesh, point: Point3):
    """(distances, weights) from a point, one node of weight 1, to a surface."""
    return _pair_distances(mesh.nodes, point.as_array()[None]).reshape(-1), mesh.weights


def _geometry(a: SurfaceMesh, b: SurfaceMesh | Point3):
    """Cached (d, w) of a surface with itself (its form's), a surface or a
    point, a pair's w being (outer_w, inner_w)."""
    if a is b:
        return _diag_geometry(a)
    if isinstance(b, Point3):
        return _point_geometry(a, b)
    d, outer_w, inner_w = _pair_geometry(a, b)
    return d, (outer_w, inner_w)


@_mesh_cache
def _rule(a, b):
    """The _RULE_NODES-point Gauss rule (x, W), x ascending, of the measure
    w / d over the geometry of a with b: a form's self-integral geometry at
    scale 1 as _rule(form, form), else _geometry(a, b) of a pair or of a
    surface and a point.  One pass gives the moments m_k of the monic
    Chebyshev polynomials p_k(t) on [d_min, d_max], well conditioned where
    raw powers are not; Gautschi's modified Chebyshev algorithm turns them
    into the measure's recurrence (alpha_k, beta_k), whose Gauss rule
    jacobi._gauss_rule builds (Gautschi 2004, section 2.1.7).  A measure
    of fewer points to rounding, as from a point at a sphere's centre,
    gets a rule of that many points."""
    d, w = _form_geometry(a)[2:] if a is b else _geometry(a, b)
    n = 2 * _RULE_NODES
    lo, hi = float(d.min()), float(d.max())
    mid, half = (hi + lo) / 2.0, (hi - lo) / 2.0 or hi  # any half if all d are equal
    cheb = [0.0, 0.5] + [0.25] * (n - 2)  # the p_k's recurrence coefficients

    def columns(x):
        t = (x - mid) / half
        prev, cur = 0.0, 1.0 / x
        yield cur
        for b_k in cheb[: n - 1]:
            prev, cur = cur, t * cur - b_k * prev
            yield cur

    m = _blocked_dots(w, d, columns)
    alpha, beta = [m[1] / m[0]], [m[0]]
    sig_prev, sig = [0.0] * n, list(m)  # sigma_(k-1, l), sigma_(k, l) at k = 0
    for k in range(1, _RULE_NODES):
        new = [0.0] * n
        new[k : n - k] = [
            sig[l + 1] - alpha[k - 1] * sig[l] - beta[k - 1] * sig_prev[l] + cheb[l] * sig[l - 1]
            for l in range(k, n - k)
        ]
        # |pi_k|^2 / m_0 = beta_1 .. beta_k reads 0.004 or more at k = 3
        # (0.018 at k = 2) on every surface geometry measured, a (1, 1, 10)
        # spheroid's self-integral the least, and rounding where the
        # distances are one value to rounding (a point at a sphere's
        # centre): there the measure has k points
        if not new[k] > 1e-8 * m[0]:
            break
        alpha.append(new[k + 1] / new[k] - sig[k] / sig[k - 1])
        beta.append(new[k] / sig[k - 1])
        sig_prev, sig = sig, new
    t, W = _gauss_rule(alpha, beta)
    return tuple((mid + half * t).tolist()), tuple(W.tolist())


def _surface_moments(a, b, space, constants, nu, order) -> tuple[float, ...]:
    """M_k up to order of surface a with b at nu: one kernel pass, or at
    nu = 0, where G = pref / d, pref times the sums of w d^(k - 1), which
    the geometry's rule (a form's for a self-integral) integrates
    exactly."""
    if nu == 0.0:
        pref = constants.mass / (2.0 * math.pi * constants.hbar * constants.hbar)
        x, W = _rule(a.form, a.form) if a is b else _rule(a, b)
        return tuple(pref * math.fsum(w * xi**k for xi, w in zip(x, W)) for k in range(order + 1))
    d, w = _geometry(a, b)
    return weighted_kernel_sum(w, d, space, constants, nu, order)


def diag_weighted_sum(
    mesh: SurfaceMesh, space: AmbientSpace, constants: PhysicalConstants, nu: float, order: int
) -> tuple[float, ...]:
    """P_ii and its nu-derivatives up to order over mesh x mesh
    (singularity-safe), by the scale law: at scale s, P^(k)(nu) is
    s^(k + 1) times the form's at s nu, normalized by the form's area."""
    s = mesh.scale
    if s * nu > _SELF_NU_CEIL:
        raise UnsupportedRegimeError(f"s nu = {s * nu} > {_SELF_NU_CEIL}, the self-integral's range")
    moments = _surface_moments(mesh, mesh, space, constants, s * nu, order)
    derivs = _nu_derivatives(moments, space, constants, s * nu, mesh.form.area)
    return tuple(s ** (k + 1) * p for k, p in enumerate(derivs))


def offdiag_weighted_sum(
    a: SurfaceMesh | Point3,
    b: SurfaceMesh | Point3,
    space: AmbientSpace,
    constants: PhysicalConstants,
    nu: float,
    order: int,
) -> tuple[float, ...]:
    """P_ab and its nu-derivatives up to order between two distinct
    channels: two disjoint surfaces, a surface and a point, or two points
    at their distance in space."""
    if isinstance(a, Point3):
        d = np.array([ambient_distance(space, a, b)])
        moments = weighted_kernel_sum(np.ones(1), d, space, constants, nu, order)
    else:
        moments = _surface_moments(a, b, space, constants, nu, order)
    norm = math.sqrt(getattr(a, "area", 1.0) * getattr(b, "area", 1.0))  # a point's V is 1
    return _nu_derivatives(moments, space, constants, nu, norm)


def _check_flat(space: AmbientSpace) -> None:
    if not space.is_flat:
        raise InvalidArgumentError(
            "surface meshes are embedded in flat ambient space; hyperbolic "
            "systems are served by the closed-form bound evaluators"
        )


def double_sum(
    a: SurfaceMesh | Point3,
    b: SurfaceMesh | Point3,
    space: AmbientSpace,
    constants: PhysicalConstants,
    nu: float,
    order: int,
) -> tuple[float, ...]:
    """(P_ab, dP_ab/dnu, ...) up to order (at most 2, and 1 outside flat
    space) of two channels, a surface before a point: the self-integral
    when both are the same mesh, else a pair, point or point-pair sum."""
    if isinstance(a, SurfaceMesh):
        _check_flat(space)
    if not nu >= 0.0:
        raise InvalidArgumentError(f"kernel sums need nu >= 0, got {nu}")
    if a is b:
        return diag_weighted_sum(a, space, constants, nu, order)
    return offdiag_weighted_sum(a, b, space, constants, nu, order)


def clear_caches() -> None:
    for cache in (
        _form_geometry, _diag_geometry, _pair_geometry, _point_geometry, _rule,
    ):
        cache.cache_clear()
