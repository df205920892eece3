"""Cyclic Jacobi eigensolver for small dense symmetric matrices.

The bound-state matrices here are tiny (one row per surface or point
source), so a hand-rolled Jacobi sweep is plenty fast, bitwise
deterministic, and free of backend-dependent reduction orders.

The sweeps run on rows of Python floats: for a 2 x 2 or 3 x 3 matrix
numpy's per-call overhead dwarfs the arithmetic.  Every rotation makes the
same floating-point operations in the same order as the column and row
updates of the numpy implementation kept in tests/test_jacobi.py.  The
input check rejects a matrix that is not square or has a NaN or infinite
entry, and accepts exactly the finite ones np.allclose(A, A.T, rtol=0,
atol) accepts; it is the only validation a PrincipalMatrix gets.  The
convergence test sums the squared off-diagonal entries left
to right, which is numpy's pairwise order below 8 terms, so for n <= 3 (at
most 6 such terms) (w, V) are bitwise those of the numpy rotations by
construction; the tests check the match up to n = 6.  numpy converts the
input and sorts and sign-fixes the result.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InvalidArgumentError, NoConvergenceError

__all__ = ["jacobi_eigh"]

_TOL = 1e-14  # off-diagonal norm, relative to max|A| * n, that ends the sweeps
_MAX_SWEEPS = 60


def _rotate_columns(rows: list, p: int, q: int, c: float, s: float) -> None:
    for row in rows:
        x, y = row[p], row[q]
        row[p] = c * x - s * y
        row[q] = s * x + c * y


def jacobi_eigh(A: np.ndarray):
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
    entries = [x for row in rows for x in row]
    if not all(map(math.isfinite, entries)):
        raise InvalidArgumentError("matrix entries must be finite")
    # np.allclose(A, A.T, rtol=0, atol) entry by entry
    atol = 1e-12 * max(1.0, max(map(abs, entries)))
    for row, col in zip(rows, zip(*rows)):
        for x, y in zip(row, col):
            if abs(x - y) > atol:
                raise InvalidArgumentError("matrix is not symmetric")
    a = [[0.5 * (x + y) for x, y in zip(row, col)] for row, col in zip(rows, zip(*rows))]
    if n == 1:
        return np.array(a[0]), np.eye(1)

    v = np.eye(n).tolist()
    scale = max(max(abs(x) for row in a for x in row), 1e-300)
    for _sweep in range(_MAX_SWEEPS):
        off2 = 0.0  # left to right, not sum(), which compensates from Python 3.12
        for i, row in enumerate(a):
            for x in row[:i] + row[i + 1 :]:
                off2 += x * x
        if math.sqrt(off2) <= _TOL * scale * n:
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
        raise NoConvergenceError(f"Jacobi sweeps did not converge in {_MAX_SWEEPS} passes")

    w = np.array([a[k][k] for k in range(n)])
    order = np.argsort(w, kind="stable")
    V = np.array(v)[:, order]
    flip = V[np.argmax(np.abs(V), axis=0), np.arange(n)] < 0.0
    V[:, flip] = -V[:, flip]
    return w[order], V
