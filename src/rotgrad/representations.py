"""Rotation representations and their forward/backward maps.

Each representation is a pair of maps:

* ``manifold_map`` (projection): raw ambient vector -> point on the
  representation's manifold (unit quaternion, orthonormal two-frame, SO(3)
  itself, or the unit eigenvector of a symmetric 4x4 form);
* ``rotation_map``: manifold point -> rotation matrix.

``representation_map`` goes the other way (rotation -> manifold point) and
``embed`` re-injects a manifold point into ambient coordinates.  The two
Euclidean baselines (Euler angles, axis-angle) have trivial projections.

Per-sample projections map one vector, on Python floats (``_project``,
``_rotation`` and ``_forward_one``, wrapped by ``manifold_map``,
``rotation_map`` and ``baseline_rotation``); the ``*_batch`` helpers
implement the same maps over a leading batch axis, which the training loops
need for throughput.  The 9d map, the special orthogonalization of
x.reshape(3, 3), is the 10d map of theta = L x (``_NINE_TO_TEN``), so both
routes compute 9d and 10d with one LAPACK call (``_eigh_sym4``, the kernel
of ``numpy.linalg.eigh`` without its wrapper), the same guards and the same
arithmetic, and their rotations agree byte for byte.  Both reject a raw
vector with an inf or NaN entry before any factorization, and a 9d vector
whose theta overflows by its NaN spectrum, with ``DegenerateInputError``.
Tests pin the two routes against each other.

The batched route is a forward/backward pair, like ``nn.forward`` and
``nn.backward``: ``rotations_from_raw(rep, xs, return_factors=True)``
returns the rotations with the factorization that produced them
(normalized quaternion, Gram-Schmidt frame, eigen-decomposition of
A(theta)), and ``vanilla_backward_batch`` and ``rpmg_gradient_batch`` read
those factors instead of factorizing the batch a second time.  The
per-sample ``_forward_one`` returns the rotation with the forward's unit
quaternion (quat and 10d), which the per-sample gradient reads as its
goal's starting point.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np
# np.linalg.eigh's own LAPACK gufunc (syevd on the lower triangle), called
# without the wrapper's type checks, errstate context and result tuple: the
# same eigenvalues and eigenvectors bit for bit, at well under half the cost
# of a 4x4 call.  test_representations pins it to np.linalg.eigh.
from numpy.linalg._umath_linalg import eigh_lo as _eigh_lo

from . import so3

# Degeneracy thresholds for the projections.  Inputs this close to the
# singular set have no stable projection and are rejected.
QUAT_NORM_MIN = 1e-8
GRAM_RESIDUAL_MIN = 1e-8
SIGMA_SUM_MIN = 1e-8
EIGENGAP_MIN = 1e-10
# 9d and 10d also reject a gap at most this times max(|l0|, |l3|), where eigh's
# rounding sets the gap; O(1) rows never reach it (it exceeds 1e-10 at |l| > 450).
EIGENGAP_REL_MIN = 1e3 * float(np.finfo(np.float64).eps)

# row-major upper-triangle order used to pack a symmetric 4x4 matrix into
# the ten free parameters of the 10-dim representation
_SYM4_INDEX = [(0, 0), (0, 1), (0, 2), (0, 3), (1, 1), (1, 2), (1, 3), (2, 2), (2, 3), (3, 3)]
_SYM4_ROWS, _SYM4_COLS = (np.array(a) for a in zip(*_SYM4_INDEX))
# _SYM4_GATHER[i, j] is the parameter at entry (i, j) of the symmetric form
_SYM4_GATHER = np.empty((4, 4), dtype=np.intp)
_SYM4_GATHER[_SYM4_ROWS, _SYM4_COLS] = _SYM4_GATHER[_SYM4_COLS, _SYM4_ROWS] = np.arange(10)
_EYE4_SYM = np.eye(4)[_SYM4_ROWS, _SYM4_COLS]

# Davenport's q-method: for a unit quaternion q and M = x.reshape(3, 3),
# tr(R(q)^T M) = q^T K(M) q with K(M) symmetric and linear in M, so the
# rotation nearest M (its special-orthogonal polar factor) is the rotation of
# K's top eigenvector, the smallest one of A(theta) = -K(M).  Row k of L
# below is the k-th 10d parameter of A, written from K(M)'s entries.  K's
# eigenvalues are s1+s2+d s3, s1-s2-d s3, -s1+s2-d s3 and -s1-s2+d s3 (s the
# singular values of M, d = sign det M), so A's smallest eigengap is
# 2 (s2 + d s3), and 9d rejects a gap at most 2 SIGMA_SUM_MIN.
_NINE_TO_TEN = np.array([
    # columns: m00 m01 m02 m10 m11 m12 m20 m21 m22, the entries of x
    [-1,  0,  0,  0, -1,  0,  0,  0, -1],   # A00 = -(m00 + m11 + m22)
    [0,   0,  0,  0,  0,  1,  0, -1,  0],   # A01 = m12 - m21
    [0,   0, -1,  0,  0,  0,  1,  0,  0],   # A02 = m20 - m02
    [0,   1,  0, -1,  0,  0,  0,  0,  0],   # A03 = m01 - m10
    [-1,  0,  0,  0,  1,  0,  0,  0,  1],   # A11 = -m00 + m11 + m22
    [0,  -1,  0, -1,  0,  0,  0,  0,  0],   # A12 = -(m01 + m10)
    [0,   0, -1,  0,  0,  0, -1,  0,  0],   # A13 = -(m02 + m20)
    [1,   0,  0,  0, -1,  0,  0,  0,  1],   # A22 = m00 - m11 + m22
    [0,   0,  0,  0,  0, -1,  0, -1,  0],   # A23 = -(m12 + m21)
    [1,   0,  0,  0,  1,  0,  0,  0, -1],   # A33 = m00 + m11 - m22
], dtype=np.float64)
_NINE_D_GAP_MIN = 2.0 * SIGMA_SUM_MIN


class DegenerateInputError(ValueError):
    """Raw vector is not finite or lies too close to the projection's singular set."""


def _eigh_sym4(a: np.ndarray):
    """``np.linalg.eigh`` of a float64 symmetric (..., 4, 4) array: ascending
    eigenvalues and eigenvector columns.  Where ``eigh`` would raise
    ``LinAlgError`` (a non-finite matrix) the spectrum is NaN, with numpy's
    invalid-value warning, and fails both routes' gap guards."""
    return _eigh_lo(a, signature="d->dd")


class RepKind(enum.Enum):
    EULER3 = "euler"
    AXIS_ANGLE3 = "axis-angle"
    QUAT4 = "quat"
    SIX_D = "6d"
    NINE_D = "9d"
    TEN_D = "10d"

    @property
    def ambient_dim(self) -> int:
        return _AMBIENT_DIM[self._value_]


_AMBIENT_DIM = {"euler": 3, "axis-angle": 3, "quat": 4, "6d": 6, "9d": 9, "10d": 10}
MANIFOLD_REPS = (RepKind.QUAT4, RepKind.SIX_D, RepKind.NINE_D, RepKind.TEN_D)


@dataclass(frozen=True)
class ManifoldPoint:
    """Point on a representation manifold.

    value layout per rep: quat/10d -> unit quaternion (4,); 6d -> rows
    (u_hat, v_hat) of shape (2, 3); 9d -> rotation matrix (3, 3);
    euler/axis-angle -> the raw 3-vector itself.
    """
    rep: RepKind
    value: np.ndarray


def sym4_from_params(theta) -> np.ndarray:
    """Symmetric 4x4 matrix from its ten row-major upper-triangle entries."""
    theta = np.asarray(theta, dtype=np.float64)
    if theta.shape != (10,):
        raise ValueError(f"need a (10,) parameter vector, got shape {theta.shape}")
    return theta[_SYM4_GATHER]


def _ten_d_params(q) -> list:
    """Packed parameters of I - q q^T, the 10d embedding of a unit quaternion
    q (4 floats): the symmetric form with eigenvalue 0 exactly on q (either
    sign)."""
    q0, q1, q2, q3 = q
    return [1.0 - q0 * q0, 0.0 - q0 * q1, 0.0 - q0 * q2, 0.0 - q0 * q3, 1.0 - q1 * q1,
            0.0 - q1 * q2, 0.0 - q1 * q3, 1.0 - q2 * q2, 0.0 - q2 * q3, 1.0 - q3 * q3]


def _ten_d_embedding(q) -> np.ndarray:
    """:func:`_ten_d_params` of a quaternion array, as an array."""
    return np.array(_ten_d_params(np.asarray(q, dtype=np.float64).tolist()))


def _check_dim(rep: RepKind, x) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (rep.ambient_dim,):
        raise ValueError(f"{rep.value}: expected shape ({rep.ambient_dim},), got {x.shape}")
    return x


def _check_finite(rep: RepKind, x: list) -> None:
    if not all(map(math.isfinite, x)):
        raise DegenerateInputError(f"{rep.value}: raw vector is not finite")


def _project(rep: RepKind, x: list) -> list:
    """The point of a finite raw vector x (a list of floats) on a manifold
    rep, flat: the unit quaternion for quat, 9d and 10d (for 9d, the
    quaternion of the rotation that is its point), (u_hat, v_hat) for 6d."""
    if rep is RepKind.QUAT4:
        x0, x1, x2, x3 = x
        n = math.sqrt(x0 * x0 + x1 * x1 + x2 * x2 + x3 * x3)
        if n <= QUAT_NORM_MIN:
            raise DegenerateInputError(f"quat norm {n:.3e} below {QUAT_NORM_MIN:.0e}")
        return [x0 / n, x1 / n, x2 / n, x3 / n]

    if rep is RepKind.SIX_D:
        u0, u1, u2, v0, v1, v2 = x
        nu = math.sqrt(u0 * u0 + u1 * u1 + u2 * u2)
        if nu <= GRAM_RESIDUAL_MIN:
            raise DegenerateInputError(f"6d first-column norm {nu:.3e} below {GRAM_RESIDUAL_MIN:.0e}")
        a0, a1, a2 = u0 / nu, u1 / nu, u2 / nu
        d = v0 * a0 + v1 * a1 + v2 * a2
        w0, w1, w2 = v0 - d * a0, v1 - d * a1, v2 - d * a2
        nw = math.sqrt(w0 * w0 + w1 * w1 + w2 * w2)
        if nw <= GRAM_RESIDUAL_MIN:
            raise DegenerateInputError(f"6d Gram-Schmidt residual {nw:.3e} below {GRAM_RESIDUAL_MIN:.0e}")
        return [a0, a1, a2, w0 / nw, w1 / nw, w2 / nw]

    # 9d and 10d: unit eigenvector of the smallest eigenvalue of A(theta),
    # as in _ten_d_forward_batch; 9d's theta is L x, each row summed in
    # column order from +0.0 as the batched product x L^T sums it
    nine = rep is RepKind.NINE_D
    if nine:
        m00, m01, m02, m10, m11, m12, m20, m21, m22 = x
        t0, t1, t2, t3 = 0.0 - m00 - m11 - m22, 0.0 + m12 - m21, 0.0 - m02 + m20, 0.0 + m01 - m10
        t4, t5, t6 = 0.0 - m00 + m11 + m22, 0.0 - m01 - m10, 0.0 - m02 - m20
        t7, t8, t9 = 0.0 + m00 - m11 + m22, 0.0 - m12 - m21, 0.0 + m00 + m11 - m22
        gap_min = _NINE_D_GAP_MIN
    else:
        t0, t1, t2, t3, t4, t5, t6, t7, t8, t9 = x
        gap_min = EIGENGAP_MIN
    vals, vecs = _eigh_sym4(np.array([t0, t1, t2, t3, t1, t4, t5, t6,
                                      t2, t5, t7, t8, t3, t6, t8, t9]).reshape(4, 4))
    l0, l1, _, l3 = vals.tolist()  # ascending, so max(|l0|, |l3|) = max(-l0, l3)
    gap, floor = l1 - l0, max(gap_min, EIGENGAP_REL_MIN * max(-l0, l3))
    if not gap > floor:  # a NaN gap (an overflowing 9d theta) fails too
        raise DegenerateInputError(f"{rep.value} smallest-eigenvalue gap {gap:.3e} below {floor:.0e}")
    q = vecs[:, 0].tolist()
    return q if so3._canonical_sign(q) > 0.0 else [-v for v in q]


def _rotation(rep: RepKind, point: list) -> list:
    """Row-major entries of the rotation of a manifold point given as
    :func:`_project` returns it."""
    if rep is RepKind.SIX_D:
        u0, u1, u2, v0, v1, v2 = point
        # np.cross's multiply, multiply, subtract per component
        return [u0, v0, u1 * v2 - u2 * v1,
                u1, v1, u2 * v0 - u0 * v2,
                u2, v2, u0 * v1 - u1 * v0]
    return so3._quat_to_rot(point)


def _forward_one(rep: RepKind, x: list):
    """The per-sample forward map on a raw vector x given as a list of
    floats: (R as nine row-major floats, the forward's unit quaternion for
    quat and 10d, else None).  A non-finite x raises DegenerateInputError."""
    _check_finite(rep, x)
    if rep not in MANIFOLD_REPS:
        return rotation_map(ManifoldPoint(rep, np.array(x))).ravel().tolist(), None
    point = _project(rep, x)
    return _rotation(rep, point), (point if rep in (RepKind.QUAT4, RepKind.TEN_D) else None)


def manifold_map(rep: RepKind, x) -> ManifoldPoint:
    """Project a raw ambient vector onto the representation manifold."""
    x = _check_dim(rep, x)
    xs = x.tolist()
    _check_finite(rep, xs)
    if rep in (RepKind.EULER3, RepKind.AXIS_ANGLE3):
        return ManifoldPoint(rep, x.copy())
    point = _project(rep, xs)
    if rep is RepKind.SIX_D:
        return ManifoldPoint(rep, np.array(point).reshape(2, 3))
    if rep is RepKind.NINE_D:
        return ManifoldPoint(rep, np.array(so3._quat_to_rot(point)).reshape(3, 3))
    return ManifoldPoint(rep, np.array(point))


def rotation_map(point: ManifoldPoint) -> np.ndarray:
    """Rotation matrix of a manifold point."""
    rep, val = point.rep, point.value
    if rep in (RepKind.QUAT4, RepKind.TEN_D):
        return so3.quat_to_rot(val)
    if rep is RepKind.SIX_D:
        return np.array(_rotation(rep, np.asarray(val).ravel().tolist())).reshape(3, 3)
    if rep is RepKind.NINE_D:
        return val.copy()
    if rep is RepKind.EULER3:
        return euler_xyz_to_rot(val)
    return so3.exp_so3(np.eye(3), val)  # AXIS_ANGLE3


def representation_map(r, rep: RepKind) -> ManifoldPoint:
    """Map a rotation matrix to its canonical manifold point."""
    r = np.asarray(r, dtype=np.float64)
    if rep is RepKind.QUAT4:
        return ManifoldPoint(rep, so3.rot_to_quat(r))
    if rep is RepKind.SIX_D:
        return ManifoldPoint(rep, np.stack([r[:, 0], r[:, 1]]))
    if rep is RepKind.NINE_D:
        return ManifoldPoint(rep, r.copy())
    if rep is RepKind.TEN_D:
        return ManifoldPoint(rep, so3.rot_to_quat(r))
    if rep is RepKind.EULER3:
        return ManifoldPoint(rep, rot_to_euler_xyz(r))
    return ManifoldPoint(rep, so3.log_so3(np.eye(3), r))  # AXIS_ANGLE3


def embed(point: ManifoldPoint) -> np.ndarray:
    """Ambient coordinates of a manifold point (a fixed point of the projection)."""
    rep, val = point.rep, point.value
    if rep is RepKind.QUAT4:
        return val.copy()
    if rep is RepKind.SIX_D:
        return np.concatenate([val[0], val[1]])
    if rep is RepKind.NINE_D:
        return val.ravel().copy()
    if rep is RepKind.TEN_D:
        return _ten_d_embedding(val)
    return val.copy()


def baseline_rotation(rep: RepKind, x) -> np.ndarray:
    """Full forward map: raw ambient vector -> rotation matrix."""
    x = _check_dim(rep, x)
    return np.array(_forward_one(rep, x.tolist())[0]).reshape(3, 3)


# ---------------------------------------------------------------------------
# Euler helpers (X-Y-Z intrinsic: R = Rx(a) @ Ry(b) @ Rz(c))

def euler_xyz_to_rot(angles) -> np.ndarray:
    a, b, c = angles
    return so3.rot_x(a) @ so3.rot_y(b) @ so3.rot_z(c)


def rot_to_euler_xyz(r) -> np.ndarray:
    """Angles (a, b, c) with R = Rx(a) Ry(b) Rz(c); c = 0 at gimbal lock."""
    sb = max(-1.0, min(1.0, float(r[0, 2])))
    b = math.asin(sb)
    if abs(sb) > 1.0 - 1e-12:
        return np.array([math.atan2(r[2, 1], r[1, 1]), b, 0.0])
    return np.array([math.atan2(-r[1, 2], r[2, 2]), b, math.atan2(-r[0, 1], r[0, 0])])


# ---------------------------------------------------------------------------
# Batched forward maps (numpy batched linear algebra; same semantics as the
# per-sample route, tested against it)

# R_ij(q) = 2 (q_a q_b +/- q_c q_d) - delta_ij as in so3.quat_to_rot: flat
# slots in q q^T of both products and the sign of the second
_QUAT_ROT_A = np.array([0, 6, 7, 6, 0, 11, 7, 11, 0])
_QUAT_ROT_B = np.array([5, 3, 2, 3, 10, 1, 2, 1, 15])
_QUAT_ROT_SIGN = np.array([1.0, -1.0, 1.0, 1.0, 1.0, -1.0, -1.0, 1.0, 1.0])
_EYE9 = np.eye(3).ravel()


def _quat_to_rot_batch(q: np.ndarray) -> np.ndarray:
    """Rotations of (B, 4) unit quaternions, gathered from q q^T."""
    outer = (q[:, :, None] * q[:, None, :]).reshape(-1, 16)
    r = np.take(outer, _QUAT_ROT_B, axis=1)
    r *= _QUAT_ROT_SIGN
    r += np.take(outer, _QUAT_ROT_A, axis=1)
    r *= 2.0
    r -= _EYE9
    return r.reshape(-1, 3, 3)


def _quat_forward_batch(xs: np.ndarray):
    n = np.linalg.norm(xs, axis=1)
    bad = n <= QUAT_NORM_MIN
    if bad.any():
        raise DegenerateInputError(
            f"quat norm below {QUAT_NORM_MIN:.0e} at sample {int(np.nonzero(bad)[0][0])}")
    q = xs / n[:, None]
    return _quat_to_rot_batch(q), (q, n)


def _cross_batch(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise a x b of (B, 3) arrays.

    The same multiply, multiply, subtract per component as ``np.cross``,
    so the bits match it, without its axis and dtype handling.
    """
    a0, a1, a2 = a[:, 0], a[:, 1], a[:, 2]
    b0, b1, b2 = b[:, 0], b[:, 1], b[:, 2]
    return np.stack([a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0], axis=1)


def _six_d_forward_batch(xs: np.ndarray):
    u, v = xs[:, :3], xs[:, 3:]
    nu = np.linalg.norm(u, axis=1)
    bad = nu <= GRAM_RESIDUAL_MIN
    if bad.any():
        raise DegenerateInputError(
            f"6d first-column norm below {GRAM_RESIDUAL_MIN:.0e} at sample {int(np.nonzero(bad)[0][0])}")
    u_hat = u / nu[:, None]
    vu = np.einsum('bi,bi->b', v, u_hat)
    w = v - vu[:, None] * u_hat
    nw = np.linalg.norm(w, axis=1)
    bad = nw <= GRAM_RESIDUAL_MIN
    if bad.any():
        raise DegenerateInputError(
            f"6d Gram-Schmidt residual below {GRAM_RESIDUAL_MIN:.0e} at sample {int(np.nonzero(bad)[0][0])}")
    v_hat = w / nw[:, None]
    r = np.stack([u_hat, v_hat, _cross_batch(u_hat, v_hat)], axis=2)
    return r, (u_hat, v_hat, nu, nw, vu)


def _sym4_batch(xs: np.ndarray) -> np.ndarray:
    """Symmetric (B, 4, 4) forms of (B, 10) parameter rows."""
    return np.take(xs, _SYM4_GATHER.ravel(), axis=1).reshape(-1, 4, 4)


def _ten_d_forward_batch(thetas: np.ndarray, name: str = "10d", gap_min: float = EIGENGAP_MIN):
    """Rotation of the smallest eigenvector of A(theta), gap-guarded.

    9d passes x L^T with its own name and threshold.  The eigenvector takes
    its canonical sign; the factors are A's ascending eigenvalues and its
    eigenvector columns, as :func:`_eigh_sym4` returns them.  A row whose
    theta overflowed has a NaN spectrum and fails the gap guard.
    """
    vals, vecs = _eigh_sym4(_sym4_batch(thetas))
    # fmax, like the per-sample max(), leaves a NaN row the floor gap_min;
    # its NaN gap fails the guard
    floor = np.fmax(gap_min, EIGENGAP_REL_MIN * np.fmax(-vals[:, 0], vals[:, 3]))
    bad = ~(vals[:, 1] - vals[:, 0] > floor)
    if bad.any():
        i = int(np.nonzero(bad)[0][0])
        raise DegenerateInputError(f"{name} smallest-eigenvalue gap below {floor[i]:.0e} at sample {i}")
    q = vecs[:, :, 0] * np.where(vecs[:, 0, 0] < 0.0, -1.0, 1.0)[:, None]
    for i in np.nonzero(q[:, 0] == 0.0)[0]:
        q[i] = so3.canonical_quat(q[i])
    return _quat_to_rot_batch(q), (vals, vecs)


def _euler_to_rot_batch(xs: np.ndarray) -> np.ndarray:
    a, b, c = xs[:, 0], xs[:, 1], xs[:, 2]
    ca, sa, cb, sb, cc, sc = np.cos(a), np.sin(a), np.cos(b), np.sin(b), np.cos(c), np.sin(c)
    r = np.empty((xs.shape[0], 3, 3))
    r[:, 0, 0] = cb * cc
    r[:, 0, 1] = -cb * sc
    r[:, 0, 2] = sb
    r[:, 1, 0] = ca * sc + sa * sb * cc
    r[:, 1, 1] = ca * cc - sa * sb * sc
    r[:, 1, 2] = -sa * cb
    r[:, 2, 0] = sa * sc - ca * sb * cc
    r[:, 2, 1] = sa * cc + ca * sb * sc
    r[:, 2, 2] = ca * cb
    return r


def _euler_forward_batch(xs: np.ndarray):
    r = _euler_to_rot_batch(xs)
    return r, (r,)


def _axis_angle_forward_batch(xs: np.ndarray):
    r = so3._rodrigues_batch(xs)
    return r, (r,)


# Each forward map returns the (B, 3, 3) rotations and the factors that the
# rep's backward map reads, so one training step factorizes its batch once:
#   quat               (q, |x|)
#   6d                 (u_hat, v_hat, |u|, |w|, v . u_hat)
#   9d, 10d            (ascending eigenvalues, eigenvector columns) of
#                      A(theta), theta = L x for 9d and x for 10d
#   euler, axis-angle  (R,)
_FORWARD = {
    RepKind.QUAT4: _quat_forward_batch,
    RepKind.SIX_D: _six_d_forward_batch,
    RepKind.NINE_D: lambda xs: _ten_d_forward_batch(xs @ _NINE_TO_TEN.T, "9d", _NINE_D_GAP_MIN),
    RepKind.TEN_D: _ten_d_forward_batch,
    RepKind.EULER3: _euler_forward_batch,
    RepKind.AXIS_ANGLE3: _axis_angle_forward_batch,
}


def _forward(rep: RepKind, xs: np.ndarray):
    """``_FORWARD[rep]`` on finite rows: a non-finite row would pass the quat
    and 6d guards as NaN.  A finite 9d row whose theta = L x overflows fails
    the gap guard on its NaN spectrum; every rejected row raises
    ``DegenerateInputError``."""
    if not np.isfinite(xs).all():
        bad = int(np.nonzero(~np.isfinite(xs).all(axis=1))[0][0])
        raise DegenerateInputError(f"{rep.value}: non-finite raw output at sample {bad}")
    return _FORWARD[rep](xs)


def rotations_from_raw(rep: RepKind, xs: np.ndarray, return_factors: bool = False):
    """Batched ``baseline_rotation``: (B, n) raw vectors -> (B, 3, 3).

    With ``return_factors`` it returns ``(rotations, factors)``, where
    ``factors`` is the rep's factorization of the batch (the normalized
    quaternion, the 6d frame, the eigen-decomposition of A(theta) for 9d
    and 10d).  Pass them to :func:`vanilla_backward_batch` or
    ``rpmg_gradient_batch`` to differentiate the same batch without
    factorizing it again.
    """
    xs = np.asarray(xs, dtype=np.float64)
    if xs.ndim != 2 or xs.shape[1] != rep.ambient_dim:
        raise ValueError(f"{rep.value}: expected (B, {rep.ambient_dim}), got {xs.shape}")
    rs, factors = _forward(rep, xs)
    return (rs, factors) if return_factors else rs


# ---------------------------------------------------------------------------
# Backward maps for the plain chain-rule baseline.  All are closed forms
# over the batch, and each reads the factors its rep's forward map returns
# instead of factorizing the batch again.

def _quat_hessians() -> np.ndarray:
    """(9, 16) table: row ij is the Hessian of R_ij(q), a quadratic in q.

    Read off the forward map by polarization, H_kl = R(e_k + e_l) - R(e_k)
    - R(e_l) + R(0), which is exact for a quadratic with small integer
    coefficients.
    """
    e = np.eye(4)
    r_e = _quat_to_rot_batch(e)
    r_pairs = _quat_to_rot_batch((e[:, None, :] + e[None, :, :]).reshape(16, 4)).reshape(4, 4, 3, 3)
    h = r_pairs - r_e[:, None] - r_e[None, :] + _quat_to_rot_batch(np.zeros((1, 4)))
    return h.reshape(16, 9).T.copy()


_QUAT_HESSIANS = _quat_hessians()


def _quat_vjp_batch(q: np.ndarray, gs: np.ndarray) -> np.ndarray:
    """dL/dq of R(q) = quat_to_rot(q) given dL/dR, without normalization.

    R is quadratic in q, so dL/dq = K q with K the dL/dR-weighted sum of
    the Hessians of the entries of R.
    """
    k = (gs.reshape(-1, 9) @ _QUAT_HESSIANS).reshape(-1, 4, 4)
    return (k @ q[:, :, None])[:, :, 0]


def _quat_backward_batch(xs: np.ndarray, gs: np.ndarray, factors) -> np.ndarray:
    q, n = factors
    gq = _quat_vjp_batch(q, gs)
    # project through the normalization x -> x/|x|
    return (gq - np.einsum('bk,bk->b', gq, q)[:, None] * q) / n[:, None]


def _six_d_backward_batch(xs: np.ndarray, gs: np.ndarray, factors) -> np.ndarray:
    u_hat, v_hat, nu, nw, vu = factors
    v = xs[:, 3:]
    g1, g2, g3 = gs[:, :, 0], gs[:, :, 1], gs[:, :, 2]
    # adjoint of the cross product c3 = u_hat x v_hat
    gu_hat = g1 + _cross_batch(v_hat, g3)
    gv_hat = g2 + _cross_batch(g3, u_hat)
    # through v_hat = w / |w|
    gw = (gv_hat - np.einsum('bi,bi->b', gv_hat, v_hat)[:, None] * v_hat) / nw[:, None]
    # through w = v - (v.u_hat) u_hat
    gv = gw - np.einsum('bi,bi->b', gw, u_hat)[:, None] * u_hat
    gu_hat = gu_hat - vu[:, None] * gw - np.einsum('bi,bi->b', gw, u_hat)[:, None] * v
    # through u_hat = u / |u|
    gu = (gu_hat - np.einsum('bi,bi->b', gu_hat, u_hat)[:, None] * u_hat) / nu[:, None]
    return np.concatenate([gu, gv], axis=1)


# a diagonal parameter counts once in A and an off-diagonal one twice, so
# (w_i q_j + w_j q_i) is halved on the diagonal
_SYM4_HALF_MULT = np.where(_SYM4_ROWS == _SYM4_COLS, 0.5, 1.0)


def _ten_d_backward_batch(xs: np.ndarray, gs: np.ndarray, factors) -> np.ndarray:
    """Eigenvector perturbation dq = -(A - l0 I)^+ dA q.

    The pseudo-inverse comes from the three remaining eigenpairs.  With
    w = (A - l0 I)^+ dL/dq, dL/dA = -w q^T; symmetrizing it onto the ten
    parameters is invariant under q -> -q, so the canonical sign of the
    forward map needs no repeating here.
    """
    vals, vecs = factors
    q = vecs[:, :, 0]
    gq = _quat_vjp_batch(q, gs)
    rest = vecs[:, :, 1:]
    coef = (gq[:, None, :] @ rest)[:, 0] / (vals[:, 1:] - vals[:, :1])
    w = (rest @ coef[:, :, None])[:, :, 0]
    # np.take gathers C-ordered rows, w[:, idx] F-ordered ones
    i, j = _SYM4_ROWS, _SYM4_COLS
    wi, wj = np.take(w, i, axis=1), np.take(w, j, axis=1)
    qi, qj = np.take(q, i, axis=1), np.take(q, j, axis=1)
    return -(wi * qj + wj * qi) * _SYM4_HALF_MULT


def _euler_backward_batch(xs: np.ndarray, gs: np.ndarray, factors) -> np.ndarray:
    (rs,) = factors
    vee = so3._vee_batch(gs @ np.swapaxes(rs, 1, 2))
    a, b = xs[:, 0], xs[:, 1]
    ca, sa, cb, sb = np.cos(a), np.sin(a), np.cos(b), np.sin(b)
    # world-frame axes of the three intrinsic rotations
    w1 = np.zeros_like(xs)
    w1[:, 0] = 1.0
    w2 = np.stack([np.zeros_like(ca), ca, sa], axis=1)           # Rx e2
    w3 = np.stack([sb, -sa * cb, ca * cb], axis=1)               # Rx Ry e3
    return np.stack([np.einsum('bi,bi->b', w, vee) for w in (w1, w2, w3)], axis=1)


def _axis_angle_backward_batch(xs: np.ndarray, gs: np.ndarray, factors) -> np.ndarray:
    (rs,) = factors
    t = so3._vee_batch(np.swapaxes(rs, 1, 2) @ gs)
    theta2 = np.einsum('bi,bi->b', xs, xs)
    theta = np.sqrt(theta2)
    small = theta < 1e-4
    with np.errstate(invalid='ignore', divide='ignore'):
        f1 = np.where(small, 0.5 - theta2 / 24.0,
                      (1.0 - np.cos(theta)) / np.where(small, 1.0, theta2))
        f2 = np.where(small, 1.0 / 6.0 - theta2 / 120.0,
                      (theta - np.sin(theta)) / np.where(small, 1.0, theta2 * theta))
    k = so3._hat_batch(xs)
    # right Jacobian of the exponential map
    jr = np.eye(3) - f1[:, None, None] * k + f2[:, None, None] * (k @ k)
    return np.einsum('bji,bj->bi', jr, t)


_BACKWARD = {
    RepKind.QUAT4: _quat_backward_batch,
    RepKind.SIX_D: _six_d_backward_batch,
    # theta = L x, so dL/dx = L^T dL/dtheta
    RepKind.NINE_D: lambda xs, gs, factors: _ten_d_backward_batch(xs, gs, factors) @ _NINE_TO_TEN,
    RepKind.TEN_D: _ten_d_backward_batch,
    RepKind.EULER3: _euler_backward_batch,
    RepKind.AXIS_ANGLE3: _axis_angle_backward_batch,
}


def vanilla_backward_batch(rep: RepKind, xs: np.ndarray, gs: np.ndarray,
                           factors=None) -> np.ndarray:
    """Batched chain rule through rotation_map(manifold_map(x)).

    ``gs`` holds per-sample Euclidean loss gradients dL/dR of shape (B, 3, 3);
    the result is dL/dx of shape (B, n).  Every rep has a closed form: the
    10d map is differentiated by eigenvector perturbation, and the 9d map,
    the 10d map of theta = L x, by the same closed form times L.
    ``factors`` are those that
    ``rotations_from_raw(rep, xs, return_factors=True)`` returned for the
    same ``xs``; without them the backward factorizes ``xs`` through the
    same forward map, with the same result bit for bit.  Inputs the forward
    map rejects, non-finite rows among them, raise the same
    ``DegenerateInputError``.
    """
    xs = np.asarray(xs, dtype=np.float64)
    gs = np.asarray(gs, dtype=np.float64)
    if factors is None:
        _, factors = _forward(rep, xs)
    return _BACKWARD[rep](xs, gs, factors)


def baseline_backward(rep: RepKind, x, dl_dr) -> np.ndarray:
    """Chain rule dL/dx for a single sample given dL/dR.

    A B = 1 call of :func:`vanilla_backward_batch`: closed forms for every
    rep, including the eigenvector projections of 9d and 10d.
    """
    x = _check_dim(rep, x)
    dl_dr = np.asarray(dl_dr, dtype=np.float64)
    return vanilla_backward_batch(rep, x[None, :], dl_dr[None])[0]
