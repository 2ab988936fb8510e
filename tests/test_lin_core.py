import numpy as np
import pytest

from rotgrad.lin_core import SingularSystemError, solve_columns, solve_dense


def test_solve_identity():
    b = np.arange(5.0)
    assert np.allclose(solve_dense(np.eye(5), b), b)


def test_solve_random_residual():
    rng = np.random.default_rng(4)
    for _ in range(500):
        n = int(rng.integers(1, 15))
        a = rng.standard_normal((n, n)) + n * np.eye(n)
        b = rng.standard_normal(n)
        x = solve_dense(a, b)
        assert np.linalg.norm(a @ x - b) <= 1e-9 * max(1.0, np.linalg.norm(b))
        assert np.allclose(x, np.linalg.solve(a, b), atol=1e-9)


def test_solve_columns_matches_single():
    rng = np.random.default_rng(5)
    a = rng.standard_normal((14, 14)) + 14 * np.eye(14)
    b = rng.standard_normal((14, 4))
    xs = solve_columns(a, b)
    for j in range(4):
        assert np.allclose(xs[:, j], solve_dense(a, b[:, j]))


def test_solve_singular_raises():
    a = np.ones((3, 3))
    with pytest.raises(SingularSystemError):
        solve_dense(a, np.ones(3))
    # near-singular within pivot tolerance
    a = np.eye(4)
    a[2, 2] = 1e-14
    with pytest.raises(SingularSystemError):
        solve_dense(a, np.ones(4))


def test_solve_rejects_oversize_and_bad_shapes():
    with pytest.raises(ValueError):
        solve_dense(np.eye(15), np.ones(15))
    with pytest.raises(ValueError):
        solve_dense(np.ones((3, 4)), np.ones(3))
    with pytest.raises(ValueError):
        solve_dense(np.eye(3), np.ones(4))
