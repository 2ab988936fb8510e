"""Small fixed-size dense linear algebra: a pivoted Gaussian solve for
systems up to 14x14.

No library module imports it; it stays, with its tests, only while the
benchmark's tracer names ``lin_core.solve_columns``.  The solve is
deterministic: same input bits, same output bits.
"""

from __future__ import annotations

import numpy as np

_PIVOT_TOL = 1e-12
_MAX_SOLVE_DIM = 14


class SingularSystemError(ValueError):
    """Gaussian elimination met a pivot below tolerance."""


def _eliminate(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Partial-pivot Gaussian elimination; ``b`` may hold several columns."""
    n = a.shape[0]
    tol = _PIVOT_TOL * max(1.0, float(np.abs(a).max()))
    for k in range(n):
        piv = k + int(np.argmax(np.abs(a[k:, k])))
        if abs(a[piv, k]) <= tol:
            raise SingularSystemError(f"pivot {abs(a[piv, k]):.3e} below tolerance at column {k}")
        if piv != k:
            a[[k, piv]] = a[[piv, k]]
            b[[k, piv]] = b[[piv, k]]
        f = a[k + 1:, k] / a[k, k]
        a[k + 1:, k:] -= f[:, None] * a[k, k:]
        b[k + 1:] -= f[:, None] * b[k]
    x = np.empty_like(b)
    for k in range(n - 1, -1, -1):
        x[k] = (b[k] - a[k, k + 1:] @ x[k + 1:]) / a[k, k]
    return x


def solve_dense(a, b) -> np.ndarray:
    """Solve ``a @ x = b`` for one right-hand side (n <= 14)."""
    return solve_columns(a, np.asarray(b, dtype=np.float64).reshape(-1, 1))[:, 0]


def solve_columns(a, b) -> np.ndarray:
    """Solve ``a @ X = B`` for a matrix of right-hand sides with one factorization."""
    a = np.array(a, dtype=np.float64)
    b = np.array(b, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"solve: matrix must be square, got {a.shape}")
    n = a.shape[0]
    if n > _MAX_SOLVE_DIM:
        raise ValueError(f"solve: dimension {n} exceeds supported maximum {_MAX_SOLVE_DIM}")
    if b.shape[0] != n:
        raise ValueError(f"solve: rhs has {b.shape[0]} rows, expected {n}")
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise ValueError("solve: entries must be finite")
    return _eliminate(a, b)
