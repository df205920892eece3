"""Symmetric eigensolver for the small dense matrices of the package.

The bound-state matrices here are tiny (one row per surface or point
source).  jacobi_eigh checks its input and hands the symmetrised matrix to
LAPACK through numpy.linalg.eigh, and fixes each eigenvector's sign.  On
one machine LAPACK is deterministic, as the BLAS dot products of the
kernel sums already are.  The module keeps its name because the benchmark
tracer wraps jacobi.jacobi_eigh as its eigen-solve layer.

_symmetric_rows is the package's one square-finite-symmetric check: a
PrincipalMatrix gets it through jacobi_eigh, and VariationalMatrices calls
it on K, L and S.  It runs on Python floats, which for these sizes is
cheaper than numpy's per-call overhead, rejects an empty or non-square
matrix and a NaN or infinite entry, and accepts exactly the finite
matrices with |A_ij - A_ji| <= 1e-12 max|A|.

_gauss_rule is the package's one Gauss-rule builder, by Golub-Welsch on
LAPACK's eigenvalue-only solve, which past 25 rows maps less memory than
the eigenvector solve's divide and conquer: geometry's Gauss-Legendre
grids come from Legendre's recurrence, and _quadrature's rule of a
geometry's distance measure from the recurrence that Gautschi's modified
Chebyshev algorithm gives.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InvalidArgumentError, NoConvergenceError

__all__ = ["jacobi_eigh"]


def _symmetric_rows(A, name: str = "matrix") -> list[list[float]]:
    """Rows of 0.5 (A + A^T) as Python floats, once A passes the check."""
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1] or A.shape[0] == 0:
        raise InvalidArgumentError(f"{name} must be a nonempty square matrix, got shape {A.shape}")
    rows = A.tolist()
    entries = [x for row in rows for x in row]
    if not all(map(math.isfinite, entries)):
        raise InvalidArgumentError(f"{name} entries must be finite")
    atol = 1e-12 * max(max(map(abs, entries)), 1e-300)
    pairs = [list(zip(row, col)) for row, col in zip(rows, zip(*rows))]
    if any(abs(x - y) > atol for row in pairs for x, y in row):
        raise InvalidArgumentError(f"{name} must be symmetric")
    return [[0.5 * (x + y) for x, y in row] for row in pairs]


def jacobi_eigh(A: np.ndarray):
    """Eigen-decomposition of a symmetric matrix by LAPACK.

    Returns (w, V) with eigenvalues ascending and V[:, k] the unit
    eigenvector for w[k], sign-fixed so each vector's largest-magnitude
    component is positive.
    """
    try:
        w, V = np.linalg.eigh(_symmetric_rows(A))
    except np.linalg.LinAlgError as exc:
        raise NoConvergenceError(f"symmetric eigensolver did not converge: {exc}") from exc
    # max(key=abs) takes the first of equal magnitudes, as argmax does
    V *= [-1.0 if max(col, key=abs) < 0.0 else 1.0 for col in V.T.tolist()]
    return w, V


def _gauss_rule(alpha, beta):
    """The len(alpha)-point Gauss rule (x, W), x ascending, of the measure
    whose monic orthogonal polynomials satisfy p_(k+1) = (x - alpha_k) p_k
    - beta_k p_(k-1), beta_0 being its mass (Golub & Welsch 1969).  The
    nodes are the eigenvalues of the Jacobi matrix, from LAPACK's
    eigenvalue-only solve, each polished by one Newton step on p_n; the
    weights are the Christoffel numbers beta_0 / sum_k q_k(x)^2, q_k the
    orthonormal polynomials of the same recurrence, which keep their
    relative accuracy where the eigenvectors' first components do not
    (Gautschi 2004, 3.1.1).
    """
    n = len(alpha)
    b = np.sqrt([0.0, *beta[1:n]])  # b[k] = sqrt(beta_k), b[0] unused
    off = np.diag(b[1:], 1)
    x = np.linalg.eigvalsh(np.diag(alpha) + off + off.T)
    p_prev, p, dp_prev, dp = 0.0, 1.0, 0.0, 0.0  # p_n and p_n' by the recurrence
    for a_k, b_k in zip(alpha, beta):
        p_prev, p, dp_prev, dp = (
            p, (x - a_k) * p - b_k * p_prev, dp, p + (x - a_k) * dp - b_k * dp_prev
        )
    x -= p / dp
    q_prev, q = np.zeros(n), np.ones(n)
    total = np.ones(n)
    for k in range(n - 1):
        q_prev, q = q, ((x - alpha[k]) * q - b[k] * q_prev) / b[k + 1]
        total += q * q
    return x, beta[0] / total
