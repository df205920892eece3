"""Cyclic Jacobi eigensolver for small dense symmetric matrices.

The bound-state matrices here are tiny (one row per surface or point
source), so a hand-rolled Jacobi sweep is plenty fast, bitwise
deterministic, and free of backend-dependent reduction orders.

The sweeps run on rows of Python floats: for a 2 x 2 or 3 x 3 matrix
numpy's per-call overhead dwarfs the arithmetic.  Every rotation makes the
same floating-point operations in the same order as the column and row
updates of the numpy implementation kept in tests/test_jacobi.py, the
symmetry check accepts exactly what np.allclose(A, A.T, rtol=0, atol)
accepts, and the convergence test sums the squared off-diagonal entries in
numpy's pairwise order (_pairwise_sum), so (w, V) are bitwise those of the
numpy rotations.  numpy converts the input and sorts and sign-fixes the
result.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InvalidArgumentError, NoConvergenceError

__all__ = ["jacobi_eigh"]


def _pairwise_sum(x: list, lo: int = 0, n: int | None = None) -> float:
    """sum(x[lo:lo + n]) in the order of numpy's pairwise summation.

    Below 8 terms a left-to-right sum; up to 128, eight interleaved partial
    sums combined as a tree, then the remainder; above that, halves split at
    a multiple of 8.  Matches np.sum on a contiguous float64 array (within
    one buffer of 8192 elements).
    """
    n = len(x) if n is None else n
    if n < 8:
        res = 0.0
        for i in range(lo, lo + n):
            res += x[i]
        return res
    if n <= 128:
        r = x[lo : lo + 8]
        end = lo + n - n % 8
        for i in range(lo + 8, end, 8):
            r = [a + b for a, b in zip(r, x[i : i + 8])]
        res = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
        for i in range(end, lo + n):
            res += x[i]
        return res
    half = n // 2
    half -= half % 8
    return _pairwise_sum(x, lo, half) + _pairwise_sum(x, lo + half, n - half)


def _rotate_columns(rows: list, p: int, q: int, c: float, s: float) -> None:
    for row in rows:
        x, y = row[p], row[q]
        row[p] = c * x - s * y
        row[q] = s * x + c * y


def jacobi_eigh(A: np.ndarray, tol: float = 1e-14, max_sweeps: int = 60):
    """Eigen-decomposition of a symmetric matrix by cyclic Jacobi rotations.

    Returns (w, V) with eigenvalues ascending and V[:, k] the unit
    eigenvector for w[k], sign-fixed so each vector's largest-magnitude
    component is positive.
    """
    A = np.array(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise InvalidArgumentError(f"need a square matrix, got shape {A.shape}")
    n = A.shape[0]
    rows = A.tolist()
    # np.allclose(A, A.T, rtol=0, atol) entry by entry: equal, or finite and
    # within atol (NaN is never close, an infinity only to itself)
    atol = 1e-12 * max(1.0, max(abs(x) for row in rows for x in row))
    for row, col in zip(rows, zip(*rows)):
        for x, y in zip(row, col):
            if not (x == y or (abs(x - y) <= atol and math.isfinite(y))):
                raise InvalidArgumentError("matrix is not symmetric")
    a = [[0.5 * (x + y) for x, y in zip(row, col)] for row, col in zip(rows, zip(*rows))]
    if n == 1:
        return np.array(a[0]), np.eye(1)

    v = np.eye(n).tolist()
    scale = max(max(abs(x) for row in a for x in row), 1e-300)
    for _sweep in range(max_sweeps):
        off2 = [x * x for i, row in enumerate(a) for j, x in enumerate(row) if i != j]
        if math.sqrt(_pairwise_sum(off2)) <= tol * scale * n:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p][q]
                if abs(apq) <= 1e-300:
                    continue
                # Standard stable rotation: t = tan(theta) from the smaller root.
                theta = (a[q][q] - a[p][p]) / (2.0 * apq)
                t = math.copysign(1.0, theta) / (abs(theta) + math.hypot(theta, 1.0))
                c = 1.0 / math.sqrt(t * t + 1.0)
                s = t * c
                _rotate_columns(a, p, q, c, s)
                a_p, a_q = a[p], a[q]
                a[p] = [c * x - s * y for x, y in zip(a_p, a_q)]
                a[q] = [s * x + c * y for x, y in zip(a_p, a_q)]
                a[p][q] = a[q][p] = 0.0
                _rotate_columns(v, p, q, c, s)
    else:
        raise NoConvergenceError(f"Jacobi sweeps did not converge in {max_sweeps} passes")

    w = np.array([a[k][k] for k in range(n)])
    order = np.argsort(w, kind="stable")
    V = np.array(v)[:, order]
    flip = V[np.argmax(np.abs(V), axis=0), np.arange(n)] < 0.0
    V[:, flip] = -V[:, flip]
    return w[order], V
