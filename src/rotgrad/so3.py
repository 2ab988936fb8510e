"""Rotation-group primitives: exp/log maps, metrics, quaternion conversions.

Conventions used throughout the package:

* rotation matrices act on column vectors, ``y = R @ x``;
* quaternions are scalar-first ``(q0, q1, q2, q3)`` with ``q0 >= 0`` after
  canonicalization (both signs encode the same rotation);
* tangent vectors live in the body frame: a step ``phi`` from ``R`` lands at
  ``R @ rodrigues(phi)``.
"""

from __future__ import annotations

import math

import numpy as np

# Below this angle the sin/cos ratios switch to second-order Taylor series.
_SMALL_ANGLE = 1e-6


def hat(phi) -> np.ndarray:
    """Skew-symmetric matrix of a 3-vector, hat(a) @ b == cross(a, b)."""
    x, y, z = phi
    return np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])


def _rodrigues(phi) -> np.ndarray:
    theta2 = float(phi[0] ** 2 + phi[1] ** 2 + phi[2] ** 2)
    theta = math.sqrt(theta2)
    if theta < _SMALL_ANGLE:
        a = 1.0 - theta2 / 6.0
        b = 0.5 - theta2 / 24.0
    else:
        a = math.sin(theta) / theta
        b = (1.0 - math.cos(theta)) / theta2
    k = hat(phi)
    return np.eye(3) + a * k + b * (k @ k)


def exp_so3(r, phi) -> np.ndarray:
    """Geodesic step: start at rotation ``r``, move by tangent vector ``phi``."""
    return np.asarray(r) @ _rodrigues(np.asarray(phi, dtype=np.float64))


def quat_to_rot(q) -> np.ndarray:
    """Rotation matrix of a unit quaternion (either sign gives the same R)."""
    q0, q1, q2, q3 = q
    return np.array([
        [2.0 * (q0 * q0 + q1 * q1) - 1.0, 2.0 * (q1 * q2 - q0 * q3), 2.0 * (q1 * q3 + q0 * q2)],
        [2.0 * (q1 * q2 + q0 * q3), 2.0 * (q0 * q0 + q2 * q2) - 1.0, 2.0 * (q2 * q3 - q0 * q1)],
        [2.0 * (q1 * q3 - q0 * q2), 2.0 * (q2 * q3 + q0 * q1), 2.0 * (q0 * q0 + q3 * q3) - 1.0],
    ])


def rot_to_quat(r) -> np.ndarray:
    """Unit quaternion of a rotation matrix, canonicalized to q0 >= 0.

    Four-branch extraction pivoting on the largest of trace and diagonal
    entries, so the division is always by a quantity bounded away from zero
    (the naive trace-only formula breaks down near 180-degree rotations).
    Ties at q0 == 0 are broken by making the first nonzero component positive.
    """
    t = r[0, 0] + r[1, 1] + r[2, 2]
    if t > r[0, 0] and t > r[1, 1] and t > r[2, 2]:
        s = math.sqrt(1.0 + t) * 2.0
        q = np.array([0.25 * s,
                      (r[2, 1] - r[1, 2]) / s,
                      (r[0, 2] - r[2, 0]) / s,
                      (r[1, 0] - r[0, 1]) / s])
    elif r[0, 0] > r[1, 1] and r[0, 0] > r[2, 2]:
        s = math.sqrt(1.0 + r[0, 0] - r[1, 1] - r[2, 2]) * 2.0
        q = np.array([(r[2, 1] - r[1, 2]) / s,
                      0.25 * s,
                      (r[0, 1] + r[1, 0]) / s,
                      (r[0, 2] + r[2, 0]) / s])
    elif r[1, 1] > r[2, 2]:
        s = math.sqrt(1.0 - r[0, 0] + r[1, 1] - r[2, 2]) * 2.0
        q = np.array([(r[0, 2] - r[2, 0]) / s,
                      (r[0, 1] + r[1, 0]) / s,
                      0.25 * s,
                      (r[1, 2] + r[2, 1]) / s])
    else:
        s = math.sqrt(1.0 - r[0, 0] - r[1, 1] + r[2, 2]) * 2.0
        q = np.array([(r[1, 0] - r[0, 1]) / s,
                      (r[0, 2] + r[2, 0]) / s,
                      (r[1, 2] + r[2, 1]) / s,
                      0.25 * s])
    q /= math.sqrt(float(q @ q))
    return canonical_quat(q)


def canonical_quat(q: np.ndarray) -> np.ndarray:
    """Fix the quaternion double-cover sign: q0 >= 0, ties broken by the
    first nonzero component being positive."""
    if q[0] < 0.0:
        return -q
    if q[0] == 0.0:
        for c in q[1:]:
            if c != 0.0:
                return q if c > 0.0 else -q
    return q


def log_so3(r1, r2) -> np.ndarray:
    """Tangent vector at ``r1`` pointing along the geodesic to ``r2``.

    Satisfies ``exp_so3(r1, log_so3(r1, r2)) == r2`` and ``|result| <= pi``.
    Extraction goes through the pivoted quaternion conversion, which stays
    accurate through the near-180-degree regime.
    """
    q = rot_to_quat(np.asarray(r1).T @ np.asarray(r2))
    qv = q[1:]
    s = math.sqrt(float(qv @ qv))
    if s < 1e-9:
        return 2.0 / q[0] * qv
    return (2.0 * math.atan2(s, q[0]) / s) * qv


def geodesic_distance(r1, r2) -> float:
    """Rotation angle of r1^T r2, in radians within [0, pi].

    Equivalent to acos((trace(r1^T r2) - 1) / 2) but computed from the
    quaternion, which keeps precision near both 0 and pi.
    """
    q = rot_to_quat(np.asarray(r1).T @ np.asarray(r2))
    return 2.0 * math.atan2(math.sqrt(float(q[1:] @ q[1:])), q[0])


def sample_uniform_rotation(rng: np.random.Generator) -> np.ndarray:
    """Haar-uniform random rotation: normalized 4-dim Gaussian as quaternion."""
    while True:
        g = rng.standard_normal(4)
        n2 = float(g @ g)
        if n2 > 1e-24:
            return quat_to_rot(g / math.sqrt(n2))


# row-major slots of hat(phi): phi sits at (2, 1), (0, 2), (1, 0) and -phi
# at (1, 2), (2, 0), (0, 1)
_HAT_PLUS = np.array([7, 2, 3])
_HAT_MINUS = np.array([5, 6, 1])
_EYE3 = np.eye(3)


def _hat_batch(phis: np.ndarray) -> np.ndarray:
    """Vectorized :func:`hat` over rows of a (B, 3) array."""
    k = np.zeros((phis.shape[0], 9))
    k[:, _HAT_PLUS] = phis
    k[:, _HAT_MINUS] = -phis
    return k.reshape(-1, 3, 3)


def _vee_batch(c: np.ndarray) -> np.ndarray:
    """Rows (C21 - C12, C02 - C20, C10 - C01) of a (B, 3, 3) array; the
    inverse of :func:`_hat_batch` on skew-symmetric input."""
    c = c.reshape(-1, 9)
    return np.take(c, _HAT_PLUS, axis=1) - np.take(c, _HAT_MINUS, axis=1)


def _rodrigues_batch(phis: np.ndarray) -> np.ndarray:
    """Vectorized :func:`_rodrigues` over rows of a (B, 3) array."""
    phis = np.asarray(phis, dtype=np.float64)
    theta2 = np.einsum('bi,bi->b', phis, phis)
    theta = np.sqrt(theta2)
    small = theta < _SMALL_ANGLE
    safe = np.where(small, 1.0, theta)
    a = np.where(small, 1.0 - theta2 / 6.0, np.sin(theta) / safe)
    b = np.where(small, 0.5 - theta2 / 24.0, (1.0 - np.cos(theta)) / safe ** 2)
    k = _hat_batch(phis)
    return _EYE3 + a[:, None, None] * k + b[:, None, None] * (k @ k)


# d21, d02, d10, s01, s02, s12 (d21 = R21 - R12, s01 = R01 + R10, ...), the
# numerators of rot_to_quat: flat slots of both terms, sign of the second
_QUAT_OFF_A = np.array([7, 2, 3, 1, 2, 5])
_QUAT_OFF_B = np.array([5, 6, 1, 3, 6, 7])
_QUAT_OFF_SIGN = np.array([-1.0, -1.0, -1.0, 1.0, 1.0, 1.0])
# per pivot (trace, R00, R11, R22), the source of each quaternion component
# among the six quotients above; slot 6 is the pivot's own 0.25 * s
_QUAT_BRANCH = np.array([[6, 0, 1, 2], [0, 6, 3, 4], [1, 3, 6, 5], [2, 4, 5, 6]])


def _rot_to_quat_batch(rs: np.ndarray) -> np.ndarray:
    """Vectorized :func:`rot_to_quat` over a (B, 3, 3) array, with the same
    sign convention: q0 >= 0, ties at q0 == 0 broken as in
    :func:`canonical_quat`.  Only the pivot's branch is read: the six
    off-diagonal sums and differences over s, gathered per row."""
    r = np.asarray(rs, dtype=np.float64).reshape(-1, 9)
    n = r.shape[0]
    diag = np.take(r, [0, 4, 8], axis=1)
    t = diag[:, 0] + diag[:, 1] + diag[:, 2]
    # pivot strengths 4*q_k^2 per extraction branch; the max is always >= 1
    c = np.empty((n, 4))
    c[:, 0] = 1.0 + t
    np.subtract(1.0 + 2.0 * diag, t[:, None], out=c[:, 1:])
    pick = c.argmax(axis=1)
    sq = 2.0 * np.sqrt(np.maximum(c.max(axis=1), 1e-300))
    parts = np.empty((n, 7))
    off = np.take(r, _QUAT_OFF_B, axis=1)
    off *= _QUAT_OFF_SIGN
    off += np.take(r, _QUAT_OFF_A, axis=1)
    np.divide(off, sq[:, None], out=parts[:, :6])
    np.multiply(0.25, sq, out=parts[:, 6])
    q = np.take(parts, _QUAT_BRANCH[pick] + np.arange(0, 7 * n, 7)[:, None])
    q /= np.linalg.norm(q, axis=1, keepdims=True)
    q *= np.where(q[:, 0] < 0.0, -1.0, 1.0)[:, None]
    for i in np.nonzero(q[:, 0] == 0.0)[0]:
        q[i] = canonical_quat(q[i])
    return q


def geodesic_distance_batch(r1s, r2s) -> np.ndarray:
    """Vectorized :func:`geodesic_distance` over (B, 3, 3) stacks."""
    rel = np.einsum("bji,bjk->bik", r1s, r2s)
    q = _rot_to_quat_batch(rel)
    return 2.0 * np.arctan2(np.linalg.norm(q[:, 1:], axis=1), np.abs(q[:, 0]))


def rot_x(a: float) -> np.ndarray:
    c, s = math.cos(a), math.sin(a)
    return np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])


def rot_y(a: float) -> np.ndarray:
    c, s = math.cos(a), math.sin(a)
    return np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]])


def rot_z(a: float) -> np.ndarray:
    c, s = math.cos(a), math.sin(a)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
