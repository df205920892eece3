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
orbit the same inner integral.  There only the orbit's first node gets an
outer row, weighted by the orbit's total outer weight.

* Self-integrals: on a surface of revolution about its chart axis (every
  sphere and torus, and an ellipsoid with a == b) the orbits are the
  u-rings, so a mesh of order n builds n patch rows instead of 2 n^2.  A
  general ellipsoid has the orbits of the three reflections about its
  centre, (n / 2) (n / 2 + 1) rows for even n (156 instead of 1152 at
  n = 24).  Every mesh gets one of the two.

* Pairs: every mesh is mirror-symmetric in the coordinate planes through
  its centre, so a plane through both centres mirrors the inner mesh onto
  itself.  The outer rows are the orbits of the reflections in the shared
  planes: 300 rows instead of 1152 for two collinear spheres at order 24,
  every node for a pair in general position.

All reductions run over fixed _BLOCK = 16384-sample blocks whose partial
sums are combined with math.fsum in index order, so results are bitwise
reproducible and the kernel's scratch memory stays one block long (128 kB
per array).  Each block costs one kernel call of fixed Python overhead, so
a larger block means fewer calls: an order-24 collinear pair sum (345 600
samples) makes 22 instead of 85 at 4096, and 16384 was the fastest of 4096
to 32768 on warm order-24 pair and coupling solves (2 vCPU, numpy 2.4).

Every double sum takes one path: double_sum picks the self-integral or the
pair rule, whose cached (distances, weights) arrays go to
weighted_kernel_sum.  _diag_geometry caches per mesh and _pair_geometry per
mesh pair, for exactly as long as the meshes live: they hold them by weak
reference, so a sweep that builds a new mesh per point frees each point's
geometry with it, while a mesh a caller keeps gets its geometry back.  A
pair build first checks that neither surface's nodes lie inside the other
and that no two nodes coincide; else it raises GeometryViolationError and
caches nothing.

Forms: the self-integral geometry depends on a surface's shape only up to
translation and scale.  Every mesh carries its form (geometry.SurfaceForm:
the shape at the origin divided by its scale s, and the order), and equal
shapes share one interned form.  _form_geometry builds the patch rows once
per form, from the form's own canonical mesh at the origin with s = 1, so
the bits do not depend on which mesh asked first.  _diag_geometry checks
that the mesh is that canonical mesh scaled by s and moved, and returns
the form's arrays at s = 1, else a copy with distances times s and weights
times s^4.  The form geometry lives as long as any mesh of its form: the
meshes hold the form, the cache holds it weakly.  So equal spheres share
one patch build, and a radius sweep builds one while the config's own
mesh, of the same form, lives.

Patch rows are built _PATCH_CHUNK = 8 at a time: a batch's scratch arrays
take about 1 MB (9 MB for 64 rows), and 8 was the fastest of 4 to 64 rows
on spheres, tori and general ellipsoids.
"""

from __future__ import annotations

import functools
import math
import weakref
from collections import namedtuple

import numpy as np

from .errors import GeometryViolationError
from .geometry import (
    SurfaceForm,
    SurfaceMesh,
    _gauss_legendre,
    _ScaledSphereChart,
    build_surface,
    implicit_value,
)

_BLOCK = 16384  # samples per kernel call; see the module docstring
_PATCH_CHUNK = 8  # patch rows built per batch, which caps the scratch arrays
_N_PSI = 16  # Gauss-Legendre order in angle, per fan triangle
_N_S = 24  # Gauss-Legendre order in scaled radius
_POLE_TIE = 1e-12  # node alignments this close pick the patch pole by axis order


def _gl01(n: int):
    """Gauss-Legendre nodes/weights on [0, 1]."""
    x, w = _gauss_legendre(n)
    return 0.5 * (x + 1.0), 0.5 * w


_CacheInfo = namedtuple("CacheInfo", ["hits", "misses", "maxsize", "currsize"])


def _mesh_cache(fn):
    """Cache fn(*meshes) for as long as every one of its meshes lives.

    Results sit in nested weakref.WeakKeyDictionary tables, [mesh_i][mesh_j]
    for a pair, so an entry goes when any of its meshes is collected.
    SurfaceMesh and SurfaceForm (eq=False) hash by identity.  The wrapper
    keeps lru_cache's cache_info() and cache_clear().
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


def weighted_kernel_sum(weights: np.ndarray, dists: np.ndarray, kernel_fn) -> float:
    """sum(weights * kernel_fn(dists)) with a deterministic reduction.

    The array is cut into fixed _BLOCK-sample blocks; each block makes one
    kernel_fn call and contributes one dot-product partial, and the partials
    are combined with math.fsum in block order.
    """
    return math.fsum(
        float(np.dot(weights[o : o + _BLOCK], kernel_fn(dists[o : o + _BLOCK])))
        for o in range(0, weights.shape[0], _BLOCK)
    )


def _patch_chart_groups(mesh: SurfaceMesh, rows: np.ndarray):
    """Group the outer rows by the patch chart used for their singular patch.

    Returns (positions into rows, chart) pairs covering every row once.  A
    torus keeps its mesh chart; a sphere or ellipsoid row gets the mesh
    chart with its pole on the axis least aligned with the row's node.
    Alignments within _POLE_TIE of the least are ties, which go to the
    lowest axis, so a last-bit change in a node cannot switch its chart.
    """
    chart = mesh.chart
    if not isinstance(chart, _ScaledSphereChart):
        return [(np.arange(rows.size), chart)]
    q = np.abs((mesh.nodes[rows] - chart.center) / chart.axes)  # |q| = 1
    pole = np.argmax(q <= q.min(axis=1, keepdims=True) + _POLE_TIE, axis=1)
    groups = []
    for k in range(3):
        pos = np.nonzero(pole == k)[0]
        if pos.size:
            groups.append((pos, _ScaledSphereChart(chart.center, chart.axes, k)))
    return groups


def _orbit_rows(mesh: SurfaceMesh, mirrors=None):
    """Outer rows of an orbit rule and the outer weight of each.

    The nodes form an order x 2*order grid: contiguous blocks of equal u,
    each starting at v = 0.  A symmetry that maps this grid onto itself
    gives every node of one orbit the same inner integral, so the orbit's
    first node stands for it, carrying the orbit's summed weight.

    mirrors lists the coordinate axes a whose reflection x_a -> -x_a about
    the mesh centre to use: x -> -x is v -> pi - v and y -> -y is v -> -v on
    the uniform v nodes; z -> -z is u -> pi - u on the symmetric
    Gauss-Legendre nodes in cos u, and u -> -u (mod 2 pi) on the periodic
    u nodes of a torus.  Reflections are checked: the nodes of each orbit
    must be mirror images with equal weights, else GeometryViolationError.
    None asks for the self-integral's group: the u-rings on a surface of
    revolution about its chart axis, all three reflections otherwise.
    """
    n, n_u = mesh.n_nodes, mesh.order
    n_v = n // n_u
    u, v = mesh.params[:, 0], mesh.params[:, 1]
    if not (
        n_u * n_v == n
        and np.array_equal(np.flatnonzero(v == 0.0), np.arange(0, n, n_v))
        and np.all(u.reshape(n_u, n_v) == u[::n_v, None])
    ):
        raise GeometryViolationError("mesh nodes are not laid out in u-rings from v = 0")
    i, k = np.arange(n_u), np.arange(n_v)
    rings = mirrors is None and mesh.chart.revolution
    if rings:
        u_orbits = _orbits([i])
        v_orbits = _orbits([(k + s) % n_v for s in range(n_v)])
    else:
        mirrors = (0, 1, 2) if mirrors is None else mirrors
        h = n_v // 2  # v = pi
        x, y, z = (a in mirrors for a in range(3))
        u_maps = [i, -i % n_u if mesh.chart.u_periodic else n_u - 1 - i]
        # identity, y -> -y, x -> -x, and both: v, -v, pi - v, pi + v
        v_maps = [k, -k % n_v, (h - k) % n_v, (h + k) % n_v]
        u_orbits = _orbits(u_maps[: 1 + z])
        v_orbits = _orbits([m for m, use in zip(v_maps, (True, y, x, x and y)) if use])
    # members[r] lists the nodes of orbit r, representative first; n marks a gap
    uo, vo = u_orbits[:, None, :, None], v_orbits[None, :, None, :]
    members = np.where((uo < 0) | (vo < 0), n, uo * n_v + vo)
    members = members.reshape(u_orbits.shape[0] * v_orbits.shape[0], -1)
    rows = members[:, 0]
    if not rings:
        rel = np.abs(np.append(mesh.nodes - mesh.chart.center, np.full((1, 3), np.nan), axis=0))
        w = np.append(mesh.weights, np.nan)
        if np.any(np.abs(rel[members] - rel[rows, None]) > 0.5e-12 * mesh.diameter_ambient) or (
            np.any(np.abs(w[members] - w[rows, None]) > 1e-12 * w[rows, None])
        ):
            raise GeometryViolationError("mesh nodes are not mirror images within their orbits")
    return rows, np.append(mesh.weights, 0.0)[members].sum(axis=1)


def _orbits(images) -> np.ndarray:
    """Orbits of range(m) under a group of index maps, as matrix rows.

    images[g][x] is the image of x under the group's element g, identity
    first.  Each orbit is listed once, from its least index, its members in
    the order of images; repeats are dropped and gaps filled with -1.
    """
    img = np.stack(images, axis=1)
    orbits = [list(dict.fromkeys(o)) for o in img[img.min(axis=1) == img[:, 0]].tolist()]
    width = max(len(o) for o in orbits)
    return np.array([o + [-1] * (width - len(o)) for o in orbits])


def _build_patch_group(mesh: SurfaceMesh, idx: np.ndarray, chart):
    """Polar-patch quadrature for one batch of nodes sharing a chart.

    Returns (dists, jw) of shape (B, 4*_N_PSI*_N_S): distances from each
    node to its patch points and the matching quadrature weights, whose row
    sums equal the surface area.
    """
    B = idx.shape[0]
    nodes = mesh.nodes[idx]
    if isinstance(chart, _ScaledSphereChart):
        uv = np.array([chart.params_of_point(x) for x in nodes])
        u0, v0 = uv[:, 0], uv[:, 1]
    else:
        u0, v0 = mesh.params[idx, 0], mesh.params[idx, 1]

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
    # (du, dv) -> (a11 du + a12 dv, a22 dv).
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

    P = C  # edge start corners
    Q = np.roll(C, -1, axis=1)  # edge end corners
    span = np.mod(np.roll(theta, -1, axis=1) - theta, 2.0 * math.pi)  # (B, 4)
    psi = theta[..., None] + span[..., None] * g_psi  # (B, 4, n_psi)
    e = np.stack([np.cos(psi), np.sin(psi)], axis=-1)

    nrm = np.stack([P[..., 1] - Q[..., 1], Q[..., 0] - P[..., 0]], axis=-1)
    h = np.einsum("bki,bki->bk", nrm, P)
    flip = np.sign(h)
    nrm = nrm * flip[..., None]
    h = h * flip
    denom = np.einsum("bki,bkji->bkj", nrm, e)
    rho_max = h[..., None] / denom  # (B, 4, n_psi)

    rho = rho_max[..., None] * g_s  # (B, 4, n_psi, n_s)
    pt_x = rho * e[..., 0:1]
    pt_y = rho * e[..., 1:2]
    dv = pt_y / a22[:, None, None, None]
    du = (pt_x - a12[:, None, None, None] * dv) / a11[:, None, None, None]
    u = u0[:, None, None, None] + du
    v = v0[:, None, None, None] + dv

    Y, J = chart.evaluate(u, v)  # (B, 4, n_psi, n_s, 3), (B, 4, n_psi, n_s)
    diff = Y - nodes[:, None, None, None, :]
    d = np.sqrt(np.einsum("...i,...i->...", diff, diff))

    w_ang = span[..., None] * w_psi  # (B, 4, n_psi)
    jw = (
        J
        * (rho_max * rho_max * w_ang)[..., None]
        * (g_s * w_s)
        / det[:, None, None, None]
    )
    return d.reshape(B, -1), jw.reshape(B, -1)


def _patch_rows(mesh: SurfaceMesh, rows: np.ndarray, row_weights: np.ndarray):
    """Self-integral geometry (d, w) for the given outer rows.

    d holds the distances from each row's node to its patch points and w
    the matching patch weights times the row's outer weight, both flattened
    row by row.  weighted_kernel_sum(w, d, kernel) is the double surface
    integral of a radial kernel (no 1/V normalization applied) whenever the
    rows carry the whole outer rule: the rows of _orbit_rows, which the
    cached _diag_geometry uses, or every node with its own weight, which
    the tests use as the reference rule.  Rows are built _PATCH_CHUNK at a
    time; each row is independent of the others, so the chunking changes no
    bit of the result.
    """
    M = 4 * _N_PSI * _N_S
    d = np.empty((rows.size, M))
    w = np.empty((rows.size, M))
    for pos, chart in _patch_chart_groups(mesh, rows):
        for k in range(0, pos.size, _PATCH_CHUNK):
            chunk = pos[k : k + _PATCH_CHUNK]
            d[chunk], w[chunk] = _build_patch_group(mesh, rows[chunk], chart)
    w *= row_weights[:, None]
    return d.reshape(-1), w.reshape(-1)


@_mesh_cache
def _form_geometry(form: SurfaceForm):
    """Nodes, weights and orbit-rule (d, w) of a form's canonical mesh.

    The canonical mesh is built here, at the origin with scale 1, and never
    taken from whichever mesh asked first, so the result does not depend
    on the order in which meshes of the form ask for it.
    """
    mesh = build_surface(form.shape, form.order)
    return (mesh.nodes, mesh.weights, *_patch_rows(mesh, *_orbit_rows(mesh)))


@_mesh_cache
def _diag_geometry(mesh: SurfaceMesh):
    """Self-integral geometry of one surface under the orbit rule: its
    form's, with distances times s and weights times s^4 for scale s.

    Raises GeometryViolationError unless the mesh is its form's canonical
    mesh scaled by s and moved to its centre: nodes within 0.5e-12 times
    the diameter, weights within 1e-12 relative.
    """
    nodes, weights, d, w = _form_geometry(mesh.form)
    s = mesh.scale
    moved = mesh.chart.center + s * nodes
    if mesh.nodes.shape != moved.shape or not (
        np.all(np.abs(mesh.nodes - moved) <= 0.5e-12 * mesh.diameter_ambient)
        and np.all(np.abs(mesh.weights - s * s * weights) <= 1e-12 * s * s * weights)
    ):
        raise GeometryViolationError("mesh is not its form's mesh moved and scaled")
    if s == 1.0:
        return d, w
    return s * d, s**4 * w


def patch_weight_residual(mesh: SurfaceMesh) -> float:
    """Max relative defect of per-row patch weights against the area."""
    rows, row_weights = _orbit_rows(mesh)
    _, w = _diag_geometry(mesh)
    sums = w.reshape(rows.size, -1).sum(axis=1) / row_weights
    return float(np.max(np.abs(sums - mesh.area)) / mesh.area)


@_mesh_cache
def _pair_geometry(mesh_i: SurfaceMesh, mesh_j: SurfaceMesh):
    """Flattened (distances, weight products) between two disjoint surfaces.

    Raises GeometryViolationError, caching nothing, when either surface's
    nodes lie inside the other beyond a 0.5e-9 share of the larger diameter,
    or when a node of one is a node of the other (zero distance).
    The product rule with mesh_i's nodes reduced by the orbit rule: a
    coordinate plane through both centres mirrors each mesh onto itself, so
    mirror images in mesh_i have the same inner sum over mesh_j.  One row
    per orbit of the shared reflections carries the orbit's summed weight
    and its distances to every node of mesh_j; a pair sharing no plane
    keeps every node.  Both meshes must pass the mirror-image check.
    """
    tol = -0.5e-9 * max(mesh_i.diameter_ambient, mesh_j.diameter_ambient)
    if np.any(implicit_value(mesh_i.shape, mesh_j.nodes) < tol) or np.any(
        implicit_value(mesh_j.shape, mesh_i.nodes) < tol
    ):
        raise GeometryViolationError(
            f"surfaces {type(mesh_i.shape).__name__} and {type(mesh_j.shape).__name__} overlap"
        )
    shared = tuple(a for a in range(3) if mesh_i.chart.center[a] == mesh_j.chart.center[a])
    rows, row_weights = _orbit_rows(mesh_i, shared)
    _orbit_rows(mesh_j, shared)  # raises unless the planes mirror mesh_j too
    diff = mesh_i.nodes[rows, None, :] - mesh_j.nodes[None, :, :]
    d = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))
    if not d.min() > 0.0:  # also catches NaN
        raise GeometryViolationError(
            f"surfaces {type(mesh_i.shape).__name__} and {type(mesh_j.shape).__name__} share a node"
        )
    w = row_weights[:, None] * mesh_j.weights[None, :]
    return d.reshape(-1), w.reshape(-1)


def diag_weighted_sum(mesh: SurfaceMesh, kernel_fn) -> float:
    """Double integral of kernel(d) over mesh x mesh (singularity-safe)."""
    d, w = _diag_geometry(mesh)
    return weighted_kernel_sum(w, d, kernel_fn)


def offdiag_weighted_sum(mesh_i: SurfaceMesh, mesh_j: SurfaceMesh, kernel_fn) -> float:
    """Double integral of kernel(d) over two disjoint surfaces."""
    d, w = _pair_geometry(mesh_i, mesh_j)
    return weighted_kernel_sum(w, d, kernel_fn)


def double_sum(mesh_i: SurfaceMesh, mesh_j: SurfaceMesh, kernel_fn) -> float:
    """Double integral of kernel(d) over mesh_i x mesh_j: the self-integral
    when both are the same mesh, the pair rule otherwise."""
    if mesh_i is mesh_j:
        return diag_weighted_sum(mesh_i, kernel_fn)
    return offdiag_weighted_sum(mesh_i, mesh_j, kernel_fn)


def clear_caches() -> None:
    _form_geometry.cache_clear()
    _diag_geometry.cache_clear()
    _pair_geometry.cache_clear()
