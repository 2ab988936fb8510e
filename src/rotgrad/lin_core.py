"""Small fixed-size dense linear algebra.

Three nontrivial operations: a 3x3 SVD (one-sided Jacobi), a 4x4 symmetric
eigendecomposition (cyclic Jacobi) and a pivoted Gaussian solve for systems
up to 14x14.  The per-sample 9d and 10d forward maps use the first two; the
solve has no caller in the library beyond its own check, since the 10d
inverse projection solves its 4x4 system with numpy.  All three are
deterministic: same input bits, same output bits.  Inner loops run on
Python floats because numpy scalar dispatch dominates at these sizes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Jacobi iteration limits.  3x3/4x4 problems converge in well under ten
# sweeps; hitting the cap means the input was garbage (NaN already rejected),
# so we fail loudly instead of returning an unconverged factorization.
_SWEEP_CAP = 60
_OFFDIAG_TOL = 1e-13

_PIVOT_TOL = 1e-12
_MAX_SOLVE_DIM = 14


class ConvergenceError(RuntimeError):
    """Jacobi iteration hit the sweep cap without meeting tolerance."""


class SingularSystemError(ValueError):
    """Gaussian elimination met a pivot below tolerance."""


@dataclass(frozen=True)
class SvdResult:
    u: np.ndarray       # (3, 3) orthogonal
    sigma: np.ndarray   # (3,) descending, non-negative
    v: np.ndarray       # (3, 3) orthogonal


@dataclass(frozen=True)
class EigResult:
    values: np.ndarray    # (4,) ascending
    vectors: np.ndarray   # (4, 4) orthonormal columns, vectors[:, i] <-> values[i]


def _check_matrix(m, shape, name):
    m = np.asarray(m, dtype=np.float64)
    if m.shape != shape:
        raise ValueError(f"{name}: expected shape {shape}, got {m.shape}")
    if not np.isfinite(m).all():
        raise ValueError(f"{name}: entries must be finite")
    return m


def svd3(m) -> SvdResult:
    """Full SVD of a 3x3 matrix by one-sided Jacobi.

    Columns of a working copy of ``m`` are orthogonalized by plane rotations;
    accumulated rotations form V, column norms give sigma and normalized
    columns give U.  Zero columns (rank-deficient input) are completed to an
    orthonormal U by cross products.
    """
    m = _check_matrix(m, (3, 3), "svd3")

    # w[j] is the j-th column; v accumulates right rotations the same way.
    w = [[m[0, 0], m[1, 0], m[2, 0]],
         [m[0, 1], m[1, 1], m[2, 1]],
         [m[0, 2], m[1, 2], m[2, 2]]]
    v = [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]

    for _ in range(_SWEEP_CAP):
        rotated = False
        for p, q in ((0, 1), (0, 2), (1, 2)):
            wp, wq = w[p], w[q]
            app = wp[0] * wp[0] + wp[1] * wp[1] + wp[2] * wp[2]
            aqq = wq[0] * wq[0] + wq[1] * wq[1] + wq[2] * wq[2]
            apq = wp[0] * wq[0] + wp[1] * wq[1] + wp[2] * wq[2]
            if apq == 0.0 or abs(apq) <= _OFFDIAG_TOL * math.sqrt(app * aqq):
                continue
            rotated = True
            zeta = (aqq - app) / (2.0 * apq)
            t = math.copysign(1.0, zeta) / (abs(zeta) + math.sqrt(1.0 + zeta * zeta))
            cs = 1.0 / math.sqrt(1.0 + t * t)
            sn = cs * t
            for cols in (w, v):
                cp, cq = cols[p], cols[q]
                for i in range(3):
                    a, b = cp[i], cq[i]
                    cp[i] = cs * a - sn * b
                    cq[i] = sn * a + cs * b
        if not rotated:
            break
    else:
        raise ConvergenceError("svd3: Jacobi sweeps exhausted")

    sigma = [math.sqrt(w[j][0] ** 2 + w[j][1] ** 2 + w[j][2] ** 2) for j in range(3)]
    order = sorted(range(3), key=lambda j: -sigma[j])  # stable for ties
    s_sorted = [sigma[j] for j in order]
    v_cols = [v[j] for j in order]
    w_cols = [w[j] for j in order]

    s_max = s_sorted[0]
    u_cols: list[list[float]] = []
    for j in range(3):
        if s_sorted[j] > s_max * 1e-15 and s_sorted[j] > 0.0:
            u_cols.append([c / s_sorted[j] for c in w_cols[j]])
        elif j == 1:
            # rank <= 1: pick the axis least aligned with u0, orthogonalize
            u0 = u_cols[0] if u_cols else [1.0, 0.0, 0.0]
            if not u_cols:
                u_cols.append(u0)
            k = min(range(3), key=lambda i: abs(u0[i]))
            e = [0.0, 0.0, 0.0]
            e[k] = 1.0
            d = u0[0] * e[0] + u0[1] * e[1] + u0[2] * e[2]
            t_ = [e[i] - d * u0[i] for i in range(3)]
            n_ = math.sqrt(t_[0] ** 2 + t_[1] ** 2 + t_[2] ** 2)
            u_cols.append([c / n_ for c in t_])
        elif j == 2:
            a, b = u_cols[0], u_cols[1]
            u_cols.append([a[1] * b[2] - a[2] * b[1],
                           a[2] * b[0] - a[0] * b[2],
                           a[0] * b[1] - a[1] * b[0]])
        else:  # all-zero matrix
            u_cols.append([1.0, 0.0, 0.0])

    u = np.array(u_cols).T
    vmat = np.array(v_cols).T
    return SvdResult(u=u, sigma=np.array(s_sorted), v=vmat)


def eig_sym4(a) -> EigResult:
    """Eigendecomposition of a symmetric 4x4 matrix by cyclic Jacobi.

    The input is symmetrized on entry; eigenvalues come back ascending with
    matching orthonormal eigenvector columns.
    """
    a = _check_matrix(a, (4, 4), "eig_sym4")
    a = 0.5 * (a + a.T)

    anorm = float(np.sqrt((a * a).sum()))
    if anorm == 0.0:
        return EigResult(values=np.zeros(4), vectors=np.eye(4))
    tol = _OFFDIAG_TOL * anorm

    h = [[float(a[i, j]) for j in range(4)] for i in range(4)]
    v = [[1.0 if i == j else 0.0 for j in range(4)] for i in range(4)]

    pairs = [(p, q) for p in range(4) for q in range(p + 1, 4)]
    for _ in range(_SWEEP_CAP):
        rotated = False
        for p, q in pairs:
            apq = h[p][q]
            if abs(apq) <= tol:
                continue
            rotated = True
            app, aqq = h[p][p], h[q][q]
            zeta = (aqq - app) / (2.0 * apq)
            t = math.copysign(1.0, zeta) / (abs(zeta) + math.sqrt(1.0 + zeta * zeta))
            cs = 1.0 / math.sqrt(1.0 + t * t)
            sn = cs * t
            h[p][p] = app - t * apq
            h[q][q] = aqq + t * apq
            h[p][q] = h[q][p] = 0.0
            for i in range(4):
                if i == p or i == q:
                    continue
                aip, aiq = h[i][p], h[i][q]
                h[i][p] = h[p][i] = cs * aip - sn * aiq
                h[i][q] = h[q][i] = sn * aip + cs * aiq
            for i in range(4):
                vip, viq = v[i][p], v[i][q]
                v[i][p] = cs * vip - sn * viq
                v[i][q] = sn * vip + cs * viq
        if not rotated:
            break
    else:
        raise ConvergenceError("eig_sym4: Jacobi sweeps exhausted")

    diag = [h[i][i] for i in range(4)]
    order = sorted(range(4), key=lambda j: diag[j])  # stable ascending
    values = np.array([diag[j] for j in order])
    vectors = np.array([[v[i][j] for j in order] for i in range(4)])
    return EigResult(values=values, vectors=vectors)


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
