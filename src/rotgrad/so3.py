"""Rotation-group primitives: exp/log maps, metrics, quaternion conversions.

Conventions used throughout the package:

* rotation matrices act on column vectors, ``y = R @ x``;
* quaternions are scalar-first ``(q0, q1, q2, q3)`` with ``q0 >= 0`` after
  canonicalization (both signs encode the same rotation);
* tangent vectors live in the body frame: a step ``phi`` from ``R`` lands at
  ``R @ rodrigues(phi)``, and from the quaternion ``q`` of ``R`` at
  ``q (x) (cos(|phi|/2), sin(|phi|/2) phi/|phi|)`` (``_quat_step`` and its
  batched twin, one Hamilton product), which the rpmg layer uses for the
  reps whose goals it reads as quaternions.

Angles (``geodesic_distance`` and its batched twin) are read from the
trace and the skew part of r1^T r2, atan2(|vee(C - C^T)|, tr(C) - 1), as
``sphere._row_angles`` reads them from a cross and a dot product: no
quaternion extraction, and accurate to about eps at both 0 and pi.

Per-sample functions are thin wrappers over kernels on Python floats: a
wrapper reads its arrays once with ``tolist()`` (a 3x3 matrix as its nine
row-major entries, ``_rows``) and builds one array from the kernel's list.
The kernels write every sum out in a fixed order, rounding each multiply
and each add, so their bits depend on no BLAS build; numpy's ``@`` and
``.dot`` fuse multiply-adds and may differ from them in the last bit.  In a
manifold-method fit step under l2 or geodesic, 9d's and 10d's 4x4
eigensolver (``representations._eigh_sym4``, numpy's ``eigh`` LAPACK
kernel called without its wrapper) is the only numpy call.  No
divisor may reach 0.0, nor a square overflow unhandled (Python raises,
numpy gives inf); the squares that pick Rodrigues' branch stay ``x ** 2``
(libm ``pow``).  The angle and the quaternion step take their norms with
``math.hypot``, which neither overflows nor underflows.
"""

from __future__ import annotations

import math

import numpy as np

# Below this angle the sin/cos ratios switch to second-order Taylor series.
_SMALL_ANGLE = 1e-6
_EYE3 = np.eye(3)


def _rodrigues(x: float, y: float, z: float) -> list:
    """Row-major entries of I + a hat(phi) + b hat(phi)^2, phi = (x, y, z)."""
    try:
        theta2 = x ** 2 + y ** 2 + z ** 2
    except OverflowError:  # past 1.8e308 Python's pow raises, numpy's gives inf
        theta2 = float(np.float64(x) ** 2 + np.float64(y) ** 2 + np.float64(z) ** 2)
    theta = math.sqrt(theta2)
    if theta < _SMALL_ANGLE:
        a = 1.0 - theta2 / 6.0
        b = 0.5 - theta2 / 24.0
    else:
        a = math.sin(theta) / theta
        b = (1.0 - math.cos(theta)) / theta2
    # hat(phi)^2 = phi phi^T - |phi|^2 I, entry by entry
    xy, xz, yz = b * (x * y), b * (x * z), b * (y * z)
    ax, ay, az = a * x, a * y, a * z
    return [1.0 + b * (-(z * z) - y * y), xy - az, xz + ay,
            xy + az, 1.0 + b * (-(z * z) - x * x), yz - ax,
            xz - ay, yz + ax, 1.0 + b * (-(y * y) - x * x)]


def _matmul(a, b) -> list:
    """Row-major product of two row-major 3x3 matrices given as 9 floats."""
    a00, a01, a02, a10, a11, a12, a20, a21, a22 = a
    b00, b01, b02, b10, b11, b12, b20, b21, b22 = b
    return [a00 * b00 + a01 * b10 + a02 * b20, a00 * b01 + a01 * b11 + a02 * b21,
            a00 * b02 + a01 * b12 + a02 * b22,
            a10 * b00 + a11 * b10 + a12 * b20, a10 * b01 + a11 * b11 + a12 * b21,
            a10 * b02 + a11 * b12 + a12 * b22,
            a20 * b00 + a21 * b10 + a22 * b20, a20 * b01 + a21 * b11 + a22 * b21,
            a20 * b02 + a21 * b12 + a22 * b22]


def _rows(m) -> list:
    """The entries of a 3x3 array (or nested sequence), row-major, as floats."""
    return np.asarray(m, dtype=np.float64).ravel().tolist()


def exp_so3(r, phi) -> np.ndarray:
    """Geodesic step: start at rotation ``r``, move by tangent vector ``phi``."""
    x, y, z = np.asarray(phi, dtype=np.float64).tolist()
    return np.array(_matmul(_rows(r), _rodrigues(x, y, z))).reshape(3, 3)


def _quat_to_rot(q) -> list:
    """Row-major entries of the rotation of a unit quaternion (4 floats)."""
    q0, q1, q2, q3 = q
    return [2.0 * (q0 * q0 + q1 * q1) - 1.0, 2.0 * (q1 * q2 - q0 * q3), 2.0 * (q1 * q3 + q0 * q2),
            2.0 * (q1 * q2 + q0 * q3), 2.0 * (q0 * q0 + q2 * q2) - 1.0, 2.0 * (q2 * q3 - q0 * q1),
            2.0 * (q1 * q3 - q0 * q2), 2.0 * (q2 * q3 + q0 * q1), 2.0 * (q0 * q0 + q3 * q3) - 1.0]


def quat_to_rot(q) -> np.ndarray:
    """Rotation matrix of a unit quaternion (either sign gives the same R)."""
    return np.array(_quat_to_rot(np.asarray(q, dtype=np.float64).tolist())).reshape(3, 3)


def rot_to_quat(r) -> np.ndarray:
    """Unit quaternion of a 3x3 rotation matrix, canonicalized to q0 >= 0.

    Four-branch extraction pivoting on the largest of trace and diagonal
    entries, so the division is always by a quantity bounded away from zero
    (the naive trace-only formula breaks down near 180-degree rotations).
    Ties at q0 == 0 are broken by making the first nonzero component positive.
    """
    (r00, r01, r02), (r10, r11, r12), (r20, r21, r22) = np.asarray(r, dtype=np.float64).tolist()
    t = r00 + r11 + r22
    if t > r00 and t > r11 and t > r22:
        s = math.sqrt(1.0 + t) * 2.0
        q = [0.25 * s, (r21 - r12) / s, (r02 - r20) / s, (r10 - r01) / s]
    elif r00 > r11 and r00 > r22:
        s = math.sqrt(1.0 + r00 - r11 - r22) * 2.0
        q = [(r21 - r12) / s, 0.25 * s, (r01 + r10) / s, (r02 + r20) / s]
    elif r11 > r22:
        s = math.sqrt(1.0 - r00 + r11 - r22) * 2.0
        q = [(r02 - r20) / s, (r01 + r10) / s, 0.25 * s, (r12 + r21) / s]
    else:
        s = math.sqrt(1.0 - r00 - r11 + r22) * 2.0
        q = [(r10 - r01) / s, (r02 + r20) / s, (r12 + r21) / s, 0.25 * s]
    q = np.array(q)
    q /= math.sqrt(q.dot(q))
    return canonical_quat(q)


def _canonical_sign(q) -> float:
    """-1.0 where the quaternion (4 floats) must flip to be canonical: q0 < 0,
    or q0 == 0 and the first nonzero component negative; else 1.0."""
    if q[0] < 0.0:
        return -1.0
    if q[0] == 0.0:
        for v in q[1:]:
            if v != 0.0:
                return 1.0 if v > 0.0 else -1.0
    return 1.0


def canonical_quat(q: np.ndarray) -> np.ndarray:
    """Fix the quaternion double-cover sign: q0 >= 0, ties broken by the
    first nonzero component being positive."""
    return q if _canonical_sign(np.asarray(q).tolist()) > 0.0 else -q


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


def _geodesic_distance(a, b) -> float:
    """:func:`geodesic_distance` of two row-major 3x3 matrices given as 9 floats."""
    a00, a01, a02, a10, a11, a12, a20, a21, a22 = a
    b00, b01, b02, b10, b11, b12, b20, b21, b22 = b
    # c_ij = sum_k a_ki b_kj, C = a^T b
    c00 = a00 * b00 + a10 * b10 + a20 * b20
    c11 = a01 * b01 + a11 * b11 + a21 * b21
    c22 = a02 * b02 + a12 * b12 + a22 * b22
    c21 = a02 * b01 + a12 * b11 + a22 * b21
    c12 = a01 * b02 + a11 * b12 + a21 * b22
    c02 = a00 * b02 + a10 * b12 + a20 * b22
    c20 = a02 * b00 + a12 * b10 + a22 * b20
    c10 = a01 * b00 + a11 * b10 + a21 * b20
    c01 = a00 * b01 + a10 * b11 + a20 * b21
    return math.atan2(math.hypot(c21 - c12, c02 - c20, c10 - c01), c00 + c11 + c22 - 1.0)


def geodesic_distance(r1, r2) -> float:
    """Rotation angle of r1^T r2, in radians within [0, pi].

    Reads the angle as atan2(|v|, tr(C) - 1) of C = r1^T r2, where v =
    vee(C - C^T) = 2 sin(theta) axis and tr(C) - 1 = 2 cos(theta): no
    quaternion extraction, and accurate to about eps at both 0 and pi,
    where acos((tr(C) - 1) / 2) loses half the digits.
    """
    return _geodesic_distance(_rows(r1), _rows(r2))


def _half_step(s) -> tuple:
    """(cos(theta/2), sin(theta/2) s/theta), theta = |s|, for a step s (3
    floats): the unit quaternion whose rotation is Rodrigues(s)."""
    x, y, z = s
    theta = math.hypot(x, y, z)
    if theta < _SMALL_ANGLE:
        theta2 = theta ** 2
        c, k = 1.0 - theta2 / 8.0, 0.5 - theta2 / 48.0
    else:
        c, k = math.cos(0.5 * theta), math.sin(0.5 * theta) / theta
    return c, k * x, k * y, k * z


def _hamilton(a, b) -> list:
    """The Hamilton product a (x) b of two quaternions given as 4 floats."""
    a0, a1, a2, a3 = a
    b0, b1, b2, b3 = b
    return [a0 * b0 - a1 * b1 - a2 * b2 - a3 * b3,
            a0 * b1 + a1 * b0 + a2 * b3 - a3 * b2,
            a0 * b2 - a1 * b3 + a2 * b0 + a3 * b1,
            a0 * b3 + a1 * b2 - a2 * b1 + a3 * b0]


def _quat_step(q, s) -> list:
    """q (x) :func:`_half_step` (s) for a quaternion q (4 floats) and a step
    s (3 floats): the Hamilton product whose rotation is quat_to_rot(q) @
    Rodrigues(s)."""
    return _hamilton(q, _half_step(s))


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


def _hat_batch(phis: np.ndarray) -> np.ndarray:
    """hat(phi) of each row of a (B, 3) array: skew-symmetric, hat(a) @ b == cross(a, b)."""
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
    """Vectorized :func:`geodesic_distance` over (B, 3, 3) stacks: the
    trace and ``_vee_batch`` of C = r1^T r2, one einsum on the inputs."""
    rel = np.einsum("bji,bjk->bik", r1s, r2s)
    flat = rel.reshape(-1, 9)
    return np.arctan2(np.linalg.norm(_vee_batch(rel), axis=1),
                      flat[:, 0] + flat[:, 4] + flat[:, 8] - 1.0)


# row-major slots of the left-multiplication matrix L(q), L(q) p = q (x) p,
# as indices into q and their signs
_HAMILTON_GATHER = np.array([0, 1, 2, 3, 1, 0, 3, 2, 2, 3, 0, 1, 3, 2, 1, 0])
_HAMILTON_SIGN = np.array([1.0, -1.0, -1.0, -1.0, 1.0, 1.0, -1.0, 1.0,
                           1.0, 1.0, 1.0, -1.0, 1.0, -1.0, 1.0, 1.0])


def _quat_step_batch(qs: np.ndarray, phis: np.ndarray) -> np.ndarray:
    """Vectorized :func:`_quat_step` over rows of (B, 4) and (B, 3) arrays,
    through the left-multiplication matrices L(q); C-contiguous operands."""
    theta2 = np.einsum('bi,bi->b', phis, phis)
    theta = np.sqrt(theta2)
    small = theta < _SMALL_ANGLE
    half = 0.5 * theta
    e = np.empty((phis.shape[0], 4))
    e[:, 0] = np.where(small, 1.0 - theta2 / 8.0, np.cos(half))
    k = np.where(small, 0.5 - theta2 / 48.0, np.sin(half) / np.where(small, 1.0, theta))
    np.multiply(k[:, None], phis, out=e[:, 1:])
    left = np.take(qs, _HAMILTON_GATHER, axis=1)
    left *= _HAMILTON_SIGN
    return np.einsum('bij,bj->bi', left.reshape(-1, 4, 4), e)


def rot_x(a: float) -> np.ndarray:
    c, s = math.cos(a), math.sin(a)
    return np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])


def rot_y(a: float) -> np.ndarray:
    c, s = math.cos(a), math.sin(a)
    return np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]])


def rot_z(a: float) -> np.ndarray:
    c, s = math.cos(a), math.sin(a)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
