"""Cyclic Jacobi eigensolver against numpy on random symmetric matrices."""

import math

import numpy as np
import pytest

from shellbound import InvalidArgumentError
from shellbound.errors import NoConvergenceError
from shellbound.jacobi import jacobi_eigh


def jacobi_eigh_numpy(A, tol=1e-14, max_sweeps=60):
    """The cyclic Jacobi solver on numpy rows and columns, kept as the
    reference for jacobi_eigh's Python-float rotations."""
    A = np.array(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise InvalidArgumentError(f"need a square matrix, got shape {A.shape}")
    n = A.shape[0]
    if not np.allclose(A, A.T, rtol=0.0, atol=1e-12 * max(1.0, float(np.max(np.abs(A))))):
        raise InvalidArgumentError("matrix is not symmetric")
    A = 0.5 * (A + A.T)
    V = np.eye(n)
    if n == 1:
        return A[0].copy(), V

    scale = max(float(np.max(np.abs(A))), 1e-300)
    mask = ~np.eye(n, dtype=bool)
    for _sweep in range(max_sweeps):
        off = float(np.sqrt(np.sum(A[mask] ** 2)))
        if off <= tol * scale * n:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = A[p, q]
                if abs(apq) <= 1e-300:
                    continue
                theta = (A[q, q] - A[p, p]) / (2.0 * apq)
                t = math.copysign(1.0, theta) / (abs(theta) + math.hypot(theta, 1.0))
                c = 1.0 / math.sqrt(t * t + 1.0)
                s = t * c
                rot_p = c * A[:, p] - s * A[:, q]
                rot_q = s * A[:, p] + c * A[:, q]
                A[:, p], A[:, q] = rot_p, rot_q
                rot_p = c * A[p, :] - s * A[q, :]
                rot_q = s * A[p, :] + c * A[q, :]
                A[p, :], A[q, :] = rot_p, rot_q
                A[p, q] = A[q, p] = 0.0
                rot_p = c * V[:, p] - s * V[:, q]
                rot_q = s * V[:, p] + c * V[:, q]
                V[:, p], V[:, q] = rot_p, rot_q
    else:
        raise NoConvergenceError(f"Jacobi sweeps did not converge in {max_sweeps} passes")

    w = np.diag(A).copy()
    order = np.argsort(w, kind="stable")
    w = w[order]
    V = V[:, order]
    for k in range(n):
        j = int(np.argmax(np.abs(V[:, k])))
        if V[j, k] < 0.0:
            V[:, k] = -V[:, k]
    return w, V


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_bitwise_equal_to_numpy_rotations(n):
    rng = np.random.default_rng(100 + n)
    for trial in range(40):
        A = rng.standard_normal((n, n)) * 10.0 ** rng.integers(-6, 7)
        if trial % 4 == 1:  # near-degenerate spectrum
            A = np.eye(n) + 1e-9 * A
        A = 0.5 * (A + A.T)
        if trial % 4 == 2:  # asymmetric within the tolerance
            A[0, -1] *= 1.0 + 1e-14
        w, V = jacobi_eigh(A)
        w_ref, V_ref = jacobi_eigh_numpy(A)
        assert np.array_equal(w, w_ref)
        assert np.array_equal(V, V_ref)
        assert w.dtype == V.dtype == np.float64 and V.shape == (n, n)


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
@pytest.mark.parametrize("seed", [0, 1, 7])
def test_matches_numpy(n, seed):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((n, n))
    A = 0.5 * (A + A.T)
    w, V = jacobi_eigh(A)
    w_np = np.linalg.eigvalsh(A)
    scale = max(1.0, float(np.max(np.abs(w_np))))
    assert np.allclose(w, w_np, rtol=0.0, atol=1e-12 * scale)
    # reconstruction and orthogonality pin the eigenvectors without fixing
    # numpy's sign conventions
    assert np.allclose(V @ np.diag(w) @ V.T, A, rtol=0.0, atol=1e-12 * scale)
    assert np.allclose(V.T @ V, np.eye(n), rtol=0.0, atol=1e-13)


def test_ordering_and_sign_convention():
    A = np.array([[2.0, 0.3, 0.0], [0.3, -1.0, 0.1], [0.0, 0.1, 0.5]])
    w, V = jacobi_eigh(A)
    assert np.all(np.diff(w) >= 0.0)
    for k in range(3):
        j = int(np.argmax(np.abs(V[:, k])))
        assert V[j, k] > 0.0


def test_deterministic():
    rng = np.random.default_rng(42)
    A = rng.standard_normal((6, 6))
    A = 0.5 * (A + A.T)
    w1, V1 = jacobi_eigh(A)
    w2, V2 = jacobi_eigh(A)
    assert np.array_equal(w1, w2)
    assert np.array_equal(V1, V2)


def test_one_by_one():
    w, V = jacobi_eigh(np.array([[3.5]]))
    assert w[0] == 3.5
    assert V[0, 0] == 1.0


def test_degenerate_spectrum():
    w, V = jacobi_eigh(np.eye(4) * 2.0)
    assert np.allclose(w, 2.0)
    assert np.allclose(V.T @ V, np.eye(4), atol=1e-14)


# the reference's np.allclose warns that an infinite atol is not valid
@pytest.mark.filterwarnings("ignore:One of rtol or atol:RuntimeWarning")
def test_validation():
    with pytest.raises(InvalidArgumentError):
        jacobi_eigh(np.zeros((2, 3)))
    # what np.allclose(A, A.T) rejects: NaN anywhere, unequal infinities, or
    # a gap above the tolerance
    for bad in (
        [[1.0, 2.0], [0.0, 1.0]],
        [[1.0, math.nan], [math.nan, 1.0]],
        [[math.nan, 0.0], [0.0, 1.0]],
        [[1.0, math.inf], [-math.inf, 1.0]],
        [[1.0, 1.0], [1.0 + 2e-12, 1.0]],
    ):
        with pytest.raises(InvalidArgumentError):
            jacobi_eigh(np.array(bad))
        with pytest.raises(InvalidArgumentError):
            jacobi_eigh_numpy(np.array(bad))
