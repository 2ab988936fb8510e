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


def _rodrigues_batch(phis: np.ndarray) -> np.ndarray:
    """Vectorized :func:`_rodrigues` over rows of a (B, 3) array."""
    phis = np.asarray(phis, dtype=np.float64)
    theta2 = np.einsum('bi,bi->b', phis, phis)
    theta = np.sqrt(theta2)
    small = theta < _SMALL_ANGLE
    safe = np.where(small, 1.0, theta)
    a = np.where(small, 1.0 - theta2 / 6.0, np.sin(theta) / safe)
    b = np.where(small, 0.5 - theta2 / 24.0, (1.0 - np.cos(theta)) / safe ** 2)
    k = np.zeros((phis.shape[0], 3, 3))
    k[:, 0, 1] = -phis[:, 2]
    k[:, 0, 2] = phis[:, 1]
    k[:, 1, 0] = phis[:, 2]
    k[:, 1, 2] = -phis[:, 0]
    k[:, 2, 0] = -phis[:, 1]
    k[:, 2, 1] = phis[:, 0]
    return np.eye(3) + a[:, None, None] * k + b[:, None, None] * (k @ k)


def _rot_to_quat_batch(rs: np.ndarray) -> np.ndarray:
    """Vectorized :func:`rot_to_quat` over a (B, 3, 3) array.

    Sign is fixed to q0 >= 0; the exact-zero tie-break is skipped (batched
    callers stay off the 180-degree set almost surely).
    """
    r = np.asarray(rs, dtype=np.float64)
    n = r.shape[0]
    t = r[:, 0, 0] + r[:, 1, 1] + r[:, 2, 2]
    # pivot strengths 4*q_k^2 per extraction branch; the max is always >= 1
    c = np.stack([1.0 + t,
                  1.0 + 2.0 * r[:, 0, 0] - t,
                  1.0 + 2.0 * r[:, 1, 1] - t,
                  1.0 + 2.0 * r[:, 2, 2] - t], axis=1)
    pick = c.argmax(axis=1)
    sq = 2.0 * np.sqrt(np.maximum(c, 1e-300))
    d21 = r[:, 2, 1] - r[:, 1, 2]
    d02 = r[:, 0, 2] - r[:, 2, 0]
    d10 = r[:, 1, 0] - r[:, 0, 1]
    s01 = r[:, 0, 1] + r[:, 1, 0]
    s02 = r[:, 0, 2] + r[:, 2, 0]
    s12 = r[:, 1, 2] + r[:, 2, 1]
    cand = np.empty((n, 4, 4))
    cand[:, 0, 0] = 0.25 * sq[:, 0]
    cand[:, 0, 1] = d21 / sq[:, 0]
    cand[:, 0, 2] = d02 / sq[:, 0]
    cand[:, 0, 3] = d10 / sq[:, 0]
    cand[:, 1, 0] = d21 / sq[:, 1]
    cand[:, 1, 1] = 0.25 * sq[:, 1]
    cand[:, 1, 2] = s01 / sq[:, 1]
    cand[:, 1, 3] = s02 / sq[:, 1]
    cand[:, 2, 0] = d02 / sq[:, 2]
    cand[:, 2, 1] = s01 / sq[:, 2]
    cand[:, 2, 2] = 0.25 * sq[:, 2]
    cand[:, 2, 3] = s12 / sq[:, 2]
    cand[:, 3, 0] = d10 / sq[:, 3]
    cand[:, 3, 1] = s02 / sq[:, 3]
    cand[:, 3, 2] = s12 / sq[:, 3]
    cand[:, 3, 3] = 0.25 * sq[:, 3]
    q = cand[np.arange(n), pick]
    q /= np.linalg.norm(q, axis=1, keepdims=True)
    q[q[:, 0] < 0.0] *= -1.0
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
