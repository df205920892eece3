"""The symmetric eigensolver: its contract on random symmetric matrices,
its input check and its error mapping."""

import math

import numpy as np
import pytest

from shellbound import InvalidArgumentError
from shellbound.errors import NoConvergenceError
from shellbound.jacobi import jacobi_eigh


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_eigenpairs_meet_the_contract(n):
    rng = np.random.default_rng(100 + n)
    for trial in range(40):
        A = rng.standard_normal((n, n)) * 10.0 ** rng.integers(-6, 7)
        if trial % 4 == 1:  # near-degenerate spectrum
            A = np.eye(n) + 1e-9 * A
        A = 0.5 * (A + A.T)
        if trial % 4 == 2:  # asymmetric within the tolerance
            A[0, -1] *= 1.0 + 1e-14
        w, V = jacobi_eigh(A)
        assert w.dtype == V.dtype == np.float64 and w.shape == (n,) and V.shape == (n, n)
        scale = float(np.max(np.abs(A)))
        assert np.max(np.abs(A @ V - V * w)) <= 1e-12 * scale
        assert np.max(np.abs(V.T @ V - np.eye(n))) <= 1e-13
        assert np.all(np.diff(w) >= 0.0)
        assert np.all(V[np.argmax(np.abs(V), axis=0), np.arange(n)] > 0.0)


def test_lapack_failure_is_no_convergence(monkeypatch):
    def fail(a):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", fail)
    with pytest.raises(NoConvergenceError, match="did not converge"):
        jacobi_eigh(np.eye(2))


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
    # a 1 x 1 keeps LAPACK's bits through the check and the sign rule
    for x in (3.5, -2.0, 0.0, -0.0, 1e-310, -1e300, 7.25e-9):
        A = np.array([[x]])
        w, V = jacobi_eigh(A)
        w_np, V_np = np.linalg.eigh(A)
        assert w.dtype == V.dtype == np.float64 and w.shape == (1,) and V.shape == (1, 1)
        assert w.tobytes() == w_np.tobytes() and V.tobytes() == V_np.tobytes()


def test_degenerate_spectrum():
    w, V = jacobi_eigh(np.eye(4) * 2.0)
    assert np.allclose(w, 2.0)
    assert np.allclose(V.T @ V, np.eye(4), atol=1e-14)


def test_validation():
    # nonempty and square; then what np.allclose(A, A.T, rtol=0,
    # atol=1e-12 max|A|) rejects: NaN anywhere, unequal infinities, or a gap
    # above the tolerance
    for bad in (
        np.zeros((2, 3)),
        np.zeros((0, 0)),
        np.zeros((1, 0)),
        [[math.nan]],
        [[math.inf]],
        [[1.0, 2.0], [0.0, 1.0]],
        [[1.0, math.nan], [math.nan, 1.0]],
        [[math.nan, 0.0], [0.0, 1.0]],
        [[1.0, math.inf], [-math.inf, 1.0]],
        [[1.0, 1.0], [1.0 + 2e-12, 1.0]],
    ):
        with pytest.raises(InvalidArgumentError):
            jacobi_eigh(np.array(bad))
