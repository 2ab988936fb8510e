"""The batched loss, goal and representation kernels against their earlier
column-by-column forms, byte for byte.

Each ``_ref_*`` function below is the previous implementation of a kernel,
kept verbatim apart from calling the other references instead of the
library.  The rewrites gather, scatter and reduce whole arrays instead, and
must give the same bits on random batches (B = 1 and B = 32) and on edge
rows: exact pi rotations with tied diagonals, q0 = 0 ties, -0.0 entries and
chamfer distance ties.  Every rewritten kernel must also return C-contiguous
arrays, since einsum's summation order, and so its bits, follow the strides
of its operands.  The exception is the checks' descent oracle, whose
per-step loop is now taken by repeated squaring: it is held to its loop
within 1e-12 relative.

Three rewrites changed the arithmetic and are held to their references at
stated bounds: ``geodesic_distance_batch`` reads the angle from the trace
and the skew part of r1^T r2 (``_ANGLE_ATOL``), ``rpmg_gradient_batch``
composes the quat and 10d goals as quaternions from the forward's factors
(``_GRAD_RTOL``), and the 6d and 10d goal terms hand einsum C-ordered
operands where the reference handed it strided views (``_GRAD_RTOL``).
Rows that none reaches keep their bytes.
"""

import itertools
import math

import numpy as np
import pytest

from rotgrad import checks, riemannian, so3
from rotgrad import representations as reps
from rotgrad import rpmg
from rotgrad.representations import (
    EIGENGAP_MIN,
    EIGENGAP_REL_MIN,
    MANIFOLD_REPS,
    DegenerateInputError,
    ManifoldPoint,
    RepKind,
    _SYM4_INDEX,
    rotations_from_raw,
)
from rotgrad.riemannian import LOSS_NAMES, Chamfer, CutLocusError
from rotgrad.rpmg import _QUAT_GOAL_REPS
from rotgrad.rpmg import Method, RpmgParams
from rotgrad.so3 import _SMALL_ANGLE, canonical_quat


# ---------------------------------------------------------------------------
# references: the earlier kernels

def _ref_hat_batch(phis: np.ndarray) -> np.ndarray:
    """Vectorized :func:`hat` over rows of a (B, 3) array."""
    k = np.zeros((phis.shape[0], 3, 3))
    k[:, 0, 1] = -phis[:, 2]
    k[:, 0, 2] = phis[:, 1]
    k[:, 1, 0] = phis[:, 2]
    k[:, 1, 2] = -phis[:, 0]
    k[:, 2, 0] = -phis[:, 1]
    k[:, 2, 1] = phis[:, 0]
    return k


def _ref_rodrigues_batch(phis: np.ndarray) -> np.ndarray:
    """Vectorized :func:`_rodrigues` over rows of a (B, 3) array."""
    phis = np.asarray(phis, dtype=np.float64)
    theta2 = np.einsum('bi,bi->b', phis, phis)
    theta = np.sqrt(theta2)
    small = theta < _SMALL_ANGLE
    safe = np.where(small, 1.0, theta)
    a = np.where(small, 1.0 - theta2 / 6.0, np.sin(theta) / safe)
    b = np.where(small, 0.5 - theta2 / 24.0, (1.0 - np.cos(theta)) / safe ** 2)
    k = _ref_hat_batch(phis)
    return np.eye(3) + a[:, None, None] * k + b[:, None, None] * (k @ k)


def _ref_rot_to_quat_batch(rs: np.ndarray) -> np.ndarray:
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
    for i in np.nonzero(q[:, 0] == 0.0)[0]:
        q[i] = canonical_quat(q[i])
    return q


def _ref_geodesic_distance_batch(r1s, r2s) -> np.ndarray:
    rel = np.einsum("bji,bjk->bik", r1s, r2s)
    q = _ref_rot_to_quat_batch(rel)
    return 2.0 * np.arctan2(np.linalg.norm(q[:, 1:], axis=1), np.abs(q[:, 0]))


def _ref_quat_to_rot_batch(q: np.ndarray) -> np.ndarray:
    q0, q1, q2, q3 = q[:, 0], q[:, 1], q[:, 2], q[:, 3]
    r = np.empty((q.shape[0], 3, 3))
    r[:, 0, 0] = 2.0 * (q0 * q0 + q1 * q1) - 1.0
    r[:, 0, 1] = 2.0 * (q1 * q2 - q0 * q3)
    r[:, 0, 2] = 2.0 * (q1 * q3 + q0 * q2)
    r[:, 1, 0] = 2.0 * (q1 * q2 + q0 * q3)
    r[:, 1, 1] = 2.0 * (q0 * q0 + q2 * q2) - 1.0
    r[:, 1, 2] = 2.0 * (q2 * q3 - q0 * q1)
    r[:, 2, 0] = 2.0 * (q1 * q3 - q0 * q2)
    r[:, 2, 1] = 2.0 * (q2 * q3 + q0 * q1)
    r[:, 2, 2] = 2.0 * (q0 * q0 + q3 * q3) - 1.0
    return r


def _ref_sym4_batch(xs: np.ndarray) -> np.ndarray:
    a = np.empty((xs.shape[0], 4, 4))
    for k, (i, j) in enumerate(_SYM4_INDEX):
        a[:, i, j] = xs[:, k]
        a[:, j, i] = xs[:, k]
    return a


def _ref_ten_d_forward_batch(xs: np.ndarray):
    vals, vecs = np.linalg.eigh(_ref_sym4_batch(xs))
    gap = vals[:, 1] - vals[:, 0]
    floor = np.maximum(EIGENGAP_MIN, EIGENGAP_REL_MIN * np.abs(vals[:, [0, 3]]).max(axis=1))
    bad = gap <= floor
    if bad.any():
        i = int(np.nonzero(bad)[0][0])
        raise DegenerateInputError(f"10d smallest-eigenvalue gap below {floor[i]:.0e} at sample {i}")
    q = vecs[:, :, 0].copy()
    q[q[:, 0] < 0.0] *= -1.0
    for i in np.nonzero(q[:, 0] == 0.0)[0]:
        q[i] = so3.canonical_quat(q[i])
    return _ref_quat_to_rot_batch(q), (vals, vecs)


def _ref_euler_backward_batch(xs: np.ndarray, gs: np.ndarray, factors) -> np.ndarray:
    (rs,) = factors
    d = gs @ np.swapaxes(rs, 1, 2)
    vee = np.stack([d[:, 2, 1] - d[:, 1, 2],
                    d[:, 0, 2] - d[:, 2, 0],
                    d[:, 1, 0] - d[:, 0, 1]], axis=1)
    a, b = xs[:, 0], xs[:, 1]
    ca, sa, cb, sb = np.cos(a), np.sin(a), np.cos(b), np.sin(b)
    # world-frame axes of the three intrinsic rotations
    w1 = np.zeros_like(xs)
    w1[:, 0] = 1.0
    w2 = np.stack([np.zeros_like(ca), ca, sa], axis=1)           # Rx e2
    w3 = np.stack([sb, -sa * cb, ca * cb], axis=1)               # Rx Ry e3
    return np.stack([np.einsum('bi,bi->b', w, vee) for w in (w1, w2, w3)], axis=1)


def _ref_axis_angle_backward_batch(xs: np.ndarray, gs: np.ndarray, factors) -> np.ndarray:
    (rs,) = factors
    c = np.swapaxes(rs, 1, 2) @ gs
    t = np.stack([c[:, 2, 1] - c[:, 1, 2],
                  c[:, 0, 2] - c[:, 2, 0],
                  c[:, 1, 0] - c[:, 0, 1]], axis=1)
    theta2 = np.einsum('bi,bi->b', xs, xs)
    theta = np.sqrt(theta2)
    small = theta < 1e-4
    with np.errstate(invalid='ignore', divide='ignore'):
        f1 = np.where(small, 0.5 - theta2 / 24.0,
                      (1.0 - np.cos(theta)) / np.where(small, 1.0, theta2))
        f2 = np.where(small, 1.0 / 6.0 - theta2 / 120.0,
                      (theta - np.sin(theta)) / np.where(small, 1.0, theta2 * theta))
    k = _ref_hat_batch(xs)
    # right Jacobian of the exponential map
    jr = np.eye(3) - f1[:, None, None] * k + f2[:, None, None] * (k @ k)
    return np.einsum('bji,bj->bi', jr, t)


def _ref_rotation_map_6d(val: np.ndarray) -> np.ndarray:
    u_hat, v_hat = val[0], val[1]
    return np.stack([u_hat, v_hat, np.cross(u_hat, v_hat)], axis=1)


def _ref_constraint_rows_batch(qs: np.ndarray) -> np.ndarray:
    n = qs.shape[0]
    m = np.zeros((n, 4, 10))
    q0, q1, q2, q3 = qs[:, 0], qs[:, 1], qs[:, 2], qs[:, 3]
    m[:, 0, 0] = q0
    m[:, 0, 1] = q1
    m[:, 0, 2] = q2
    m[:, 0, 3] = q3
    m[:, 1, 1] = q0
    m[:, 1, 4] = q1
    m[:, 1, 5] = q2
    m[:, 1, 6] = q3
    m[:, 2, 2] = q0
    m[:, 2, 5] = q1
    m[:, 2, 7] = q2
    m[:, 2, 8] = q3
    m[:, 3, 3] = q0
    m[:, 3, 6] = q1
    m[:, 3, 8] = q2
    m[:, 3, 9] = q3
    return m


def _ref_goal_terms_batch(rep: RepKind, xs: np.ndarray, r_g: np.ndarray):
    """(x_hat_g, x_gp) for a batch of goal rotations."""
    if rep is RepKind.QUAT4:
        q = _ref_rot_to_quat_batch(r_g)
        dots = np.einsum('bi,bi->b', xs, q)
        q[dots < 0.0] *= -1.0
        # after the sign flip the dot product is exactly |dots|
        return q, np.abs(dots)[:, None] * q

    if rep is RepKind.SIX_D:
        u, v = xs[:, :3], xs[:, 3:]
        u_g, v_g = r_g[:, :, 0], r_g[:, :, 1]
        x_hat = np.concatenate([u_g, v_g], axis=1)
        k1 = np.einsum('bi,bi->b', u, u_g)[:, None]
        k2 = np.einsum('bi,bi->b', v, u_g)[:, None]
        k3 = np.einsum('bi,bi->b', v, v_g)[:, None]
        return x_hat, np.concatenate([k1 * u_g, k2 * u_g + k3 * v_g], axis=1)

    if rep is RepKind.NINE_D:
        m = xs.reshape(-1, 3, 3)
        mrt = m @ r_g.transpose(0, 2, 1)
        s = 0.5 * (mrt + mrt.transpose(0, 2, 1))
        return r_g.reshape(-1, 9), (s @ r_g).reshape(-1, 9)

    q = _ref_rot_to_quat_batch(r_g)
    outer = q[:, :, None] * q[:, None, :]
    idx = np.array(_SYM4_INDEX)
    x_hat = (np.eye(4) - outer)[:, idx[:, 0], idx[:, 1]]
    m = _ref_constraint_rows_batch(q)
    mt = m.transpose(0, 2, 1)
    rhs = np.stack([q, np.einsum('bij,bj->bi', _ref_sym4_batch(xs), q)], axis=2)
    w = np.linalg.solve(m @ mt, rhs)
    st = mt @ w
    s, t = st[:, :, 0], st[:, :, 1]
    ss = np.einsum('bi,bi->b', s, s)
    lam_eig = np.einsum('bi,bi->b', s, t) / ss
    return x_hat, xs + lam_eig[:, None] * s - t


def _ref_chamfer_pairs(loss: Chamfer, r: np.ndarray):
    y = loss.observed @ r  # row j is r^T @ observed[j]
    z = loss.canonical
    d2 = ((z[:, None, :] - y[None, :, :]) ** 2).sum(-1)  # (K, M)
    return y, d2, d2.argmin(axis=1), d2.argmin(axis=0)


def _ref_euclid_grad_batch(loss: str, rs, r_gts, points=None) -> np.ndarray:
    rs = np.asarray(rs, dtype=np.float64)
    r_gts = np.asarray(r_gts, dtype=np.float64)
    if loss == "l2":
        return 2.0 * (rs - r_gts)
    if loss == "geodesic":
        theta = _ref_geodesic_distance_batch(rs, r_gts)
        bad = np.flatnonzero(theta > riemannian._CUT_LOCUS)
        if bad.size:
            raise CutLocusError(
                f"squared-geodesic gradient is undefined at the cut locus "
                f"(sample {bad[0]}, angle {theta[bad[0]]!r} rad)")
        small = theta < 1e-6
        factor = np.where(small, 1.0 + theta * theta / 6.0,
                          theta / np.sin(np.where(small, 1.0, theta)))
        return -factor[:, None, None] * r_gts
    z = np.asarray(points, dtype=np.float64)
    if loss == "flow":
        return 2.0 * (rs - r_gts) @ (z.T @ z)
    # observed[b, j] = r_gt[b] @ z[j]; y[b, j] = r[b]^T @ observed[b, j]
    observed = z @ r_gts.transpose(0, 2, 1)
    y = observed @ rs
    k = len(z)
    out = np.empty_like(rs)
    step = max(1, riemannian._CHAMFER_CHUNK // (3 * k * k))
    for lo in range(0, len(rs), step):
        obs, yc = observed[lo:lo + step], y[lo:lo + step]
        d2 = ((z[None, :, None, :] - yc[:, None, :, :]) ** 2).sum(-1)  # (b, K, M)
        jz = d2.argmin(axis=2)[:, :, None]
        iy = d2.argmin(axis=1)
        e_z = z - np.take_along_axis(yc, jz, axis=1)
        e_y = z[iy] - yc
        # each matched term ||z - r^T xobs||^2 contributes -2 xobs (z - y)^T
        matched = np.take_along_axis(obs, jz, axis=1)
        out[lo:lo + step] = (-2.0 / k) * (np.einsum('bki,bkj->bij', matched, e_z)
                                          + np.einsum('bmi,bmj->bij', obs, e_y))
    return out


def _ref_rpmg_gradient_batch(rep, xs, rs, r_gts, tau, params, loss="l2", points=None):
    xs = np.asarray(xs, dtype=np.float64)
    rs = np.asarray(rs, dtype=np.float64)
    dl = _ref_euclid_grad_batch(loss, rs, r_gts, points)
    c = np.einsum('bji,bjk->bik', rs, dl)
    phi = np.stack([c[:, 2, 1] - c[:, 1, 2],
                    c[:, 0, 2] - c[:, 2, 0],
                    c[:, 1, 0] - c[:, 0, 1]], axis=1)
    r_g = rs @ _ref_rodrigues_batch(-tau * phi)
    x_hat, x_gp = _ref_goal_terms_batch(rep, xs, r_g)
    if params.method is Method.MG or (params.method is Method.RPMG and params.lam == 1.0):
        return xs - x_hat
    if params.method is Method.PMG or params.lam == 0.0:
        return xs - x_gp
    return xs - x_gp + params.lam * (x_gp - x_hat)


# The oracle's projected-gradient-descent loops, one step per pass.

def _ref_oracle_quat(xs, r_gs, steps, step):
    n = xs.shape[0]
    q = _ref_rot_to_quat_batch(r_gs)
    k = np.ones(n)
    target = np.einsum('bi,bi->b', xs, q)
    for _ in range(steps):
        k -= step * 2.0 * (k - target)
    return k[:, None] * q


def _ref_oracle_6d(xs, r_gs, steps, step):
    n = xs.shape[0]
    u_g, v_g = r_gs[:, :, 0], r_gs[:, :, 1]
    u, v = xs[:, :3], xs[:, 3:]
    ks = np.tile([1.0, 0.0, 1.0], (n, 1))
    target = np.stack([np.einsum('bi,bi->b', u, u_g),
                       np.einsum('bi,bi->b', v, u_g),
                       np.einsum('bi,bi->b', v, v_g)], axis=1)
    for _ in range(steps):
        ks -= step * 2.0 * (ks - target)
    return np.concatenate([ks[:, :1] * u_g,
                           ks[:, 1:2] * u_g + ks[:, 2:] * v_g], axis=1)


def _ref_oracle_9d(xs, r_gs, steps, step):
    n = xs.shape[0]
    m = xs.reshape(n, 3, 3)
    s = np.tile(np.eye(3), (n, 1, 1))
    r_t = np.ascontiguousarray(r_gs.transpose(0, 2, 1))
    for _ in range(steps):
        grad = 2.0 * (s @ r_gs - m) @ r_t
        s = s - step * grad
        s = 0.5 * (s + s.transpose(0, 2, 1))
    return (s @ r_gs).reshape(n, 9)


def _ref_oracle_10d(xs, r_gs, steps, step):
    n = xs.shape[0]
    q = _ref_rot_to_quat_batch(r_gs)
    basis = _ref_sym4_batch(np.eye(10))
    c = np.empty((n, 4, 11))
    c[:, :, :10] = np.einsum('jkl,bl->bkj', basis, q)
    c[:, :, 10] = -q
    ct = c.transpose(0, 2, 1)
    proj = np.tile(np.eye(11), (n, 1, 1)) - ct @ np.linalg.solve(c @ ct, c)
    x_pad = np.concatenate([xs, np.zeros((n, 1))], axis=1)
    z = np.einsum('bij,bj->bi', proj, x_pad)
    g = np.empty_like(z)
    for _ in range(steps):
        g[:, :10] = 2.0 * (z[:, :10] - xs)
        g[:, 10] = 0.0
        z = np.einsum('bij,bj->bi', proj, z - step * g)
    return z[:, :10]


_REF_ORACLES = {
    RepKind.QUAT4: _ref_oracle_quat,
    RepKind.SIX_D: _ref_oracle_6d,
    RepKind.NINE_D: _ref_oracle_9d,
    RepKind.TEN_D: _ref_oracle_10d,
}


# ---------------------------------------------------------------------------
# inputs

BATCHES = (1, 32)

# the trace-skew angle against the quaternion angle on rotations: measured
# up to 1.1e-15 apart over 50,000 random pairs
_ANGLE_ATOL = 4e-15
# a gradient row that reads the angle, a quaternion goal or the 6d and 10d
# goal terms' C-ordered einsum operands against the reference's row,
# relative to the larger of the row's and x's largest entries: measured up
# to 1.3e-15, and the relaid l2, flow and chamfer rows to 2.2e-15
_GRAD_RTOL = 1e-14
# the reps whose goal terms give einsum C-ordered operands where the
# reference gave it strided views (einsum's bits follow the strides)
_RELAID_GOAL_REPS = (RepKind.SIX_D, RepKind.TEN_D)


def _moves(rep, method, loss) -> bool:
    """Whether the trace-skew angle, the quaternion goal or the relaid goal
    terms reach a row."""
    return loss == "geodesic" or (method is not Method.VANILLA
                                  and rep in _QUAT_GOAL_REPS + _RELAID_GOAL_REPS)


def _close_rows(got, want, xs):
    """C-ordered rows within _GRAD_RTOL of the reference's, relative to the
    larger of the row's and x's largest entries."""
    scale = np.maximum(np.abs(want).max(axis=1), np.abs(xs).max(axis=1))
    assert got.flags.c_contiguous and got.shape == want.shape
    assert (np.abs(got - want).max(axis=1) <= _GRAD_RTOL * scale).all()


def _check_goal_terms(rep, xs, r_g):
    got = rpmg._goal_terms_batch(rep, xs, _goal_batch_of(rep, r_g))
    want = _ref_goal_terms_batch(rep, xs, r_g)
    if rep in _RELAID_GOAL_REPS:  # x_hat keeps its bits, x_gp is relaid
        _same(got[0], want[0])
        _close_rows(got[1], want[1], xs)
    else:
        _same(got, want)


def _goal_batch_of(rep, r_g):
    """The goal ``_goal_terms_batch`` reads for the reference's rotations."""
    return _ref_rot_to_quat_batch(r_g) if rep in _QUAT_GOAL_REPS else r_g


def _same(got, ref):
    """Byte equality of arrays (or tuples of them), each C-contiguous."""
    if isinstance(ref, tuple):
        assert len(got) == len(ref)
        for g, r in zip(got, ref):
            _same(g, r)
        return
    assert got.flags.c_contiguous, got.strides
    assert got.shape == ref.shape and got.dtype == ref.dtype
    assert got.tobytes() == ref.tobytes()


def _random_rotations(rng, b):
    q = rng.standard_normal((b, 4))
    return _ref_quat_to_rot_batch(q / np.linalg.norm(q, axis=1, keepdims=True))


def _signed_permutations():
    """The 24 proper rotations with entries in {0, 1, -1} (cube symmetries).

    Among them are the pi rotations about the axes (tied diagonals, q0 = 0)
    and the 90 and 120 degree turns.
    """
    out = []
    for perm in itertools.permutations(range(3)):
        for signs in itertools.product((1.0, -1.0), repeat=3):
            r = np.zeros((3, 3))
            r[range(3), perm] = signs
            if np.linalg.det(r) > 0:
                out.append(r)
    return np.array(out)


def _edge_rotations():
    """Rotations on which the branch choice and the sign convention tie."""
    cube = _signed_permutations()
    # the same matrices with every zero entry negated to -0.0
    neg_zero = np.where(cube == 0.0, -0.0, cube)
    pis = [2.0 * np.outer(n, n) - np.eye(3) for n in (
        np.array([1.0, 1.0, 0.0]) / math.sqrt(2.0),   # diagonal (0, 0, -1): q1, q2 pivots tie
        np.array([1.0, 1.0, 1.0]) / math.sqrt(3.0),   # all three diagonal pivots tie
        np.array([-0.6, 0.8, 0.0]),                   # q0 = 0, first nonzero negative
        np.array([0.0, -0.6, 0.8]),
        np.array([0.0, 0.0, -1.0]),
    )]
    return np.concatenate([cube, neg_zero, np.array(pis)])


EDGE_ROTATIONS = _edge_rotations()


def _edge_quats():
    vals = [0.0, -0.0, 0.5, -0.5, 1.0, -1.0, math.sqrt(0.5), -math.sqrt(0.5)]
    rng = np.random.default_rng(3)
    q = rng.choice(vals, size=(256, 4))
    return np.concatenate([q, np.eye(4), -np.eye(4), np.where(np.eye(4) == 0, -0.0, 1.0)])


# ---------------------------------------------------------------------------
# so3

@pytest.mark.parametrize("b", BATCHES)
def test_rot_to_quat_random(b):
    rs = _random_rotations(np.random.default_rng(b), b)
    _same(so3._rot_to_quat_batch(rs), _ref_rot_to_quat_batch(rs))


def test_rot_to_quat_edge_rows():
    _same(so3._rot_to_quat_batch(EDGE_ROTATIONS), _ref_rot_to_quat_batch(EDGE_ROTATIONS))
    for r in EDGE_ROTATIONS:  # B = 1 on each edge row
        _same(so3._rot_to_quat_batch(r[None]), _ref_rot_to_quat_batch(r[None]))


def test_rot_to_quat_perturbed_ties():
    """Rows a few ulps from the pivot ties choose the same branch."""
    rng = np.random.default_rng(11)
    base = np.repeat(EDGE_ROTATIONS, 8, axis=0)
    rs = base + rng.choice([-2e-16, -1e-16, 0.0, 1e-16, 2e-16], size=base.shape)
    _same(so3._rot_to_quat_batch(rs), _ref_rot_to_quat_batch(rs))


def test_rot_to_quat_non_contiguous_input():
    rs = _random_rotations(np.random.default_rng(4), 32)
    view = np.swapaxes(rs, 1, 2)
    _same(so3._rot_to_quat_batch(view), _ref_rot_to_quat_batch(view))


@pytest.mark.parametrize("b", BATCHES)
def test_hat_and_rodrigues_random(b):
    phis = np.random.default_rng(b + 1).standard_normal((b, 3)) * 2.0
    _same(so3._hat_batch(phis), _ref_hat_batch(phis))
    _same(so3._rodrigues_batch(phis), _ref_rodrigues_batch(phis))


def test_hat_and_rodrigues_edge_rows():
    phis = np.array([[0.0, 0.0, 0.0], [-0.0, -0.0, -0.0], [-0.0, 1e-7, 0.0],
                     [1e-300, -1e-300, 0.0], [math.pi, 0.0, -0.0], [0.0, -math.pi, 0.0],
                     [5e-7, 5e-7, 5e-7], [1e-6, 0.0, 0.0], [5e-324, -5e-324, 1e-310]])
    _same(so3._hat_batch(phis), _ref_hat_batch(phis))
    _same(so3._rodrigues_batch(phis), _ref_rodrigues_batch(phis))


@pytest.mark.parametrize("b", BATCHES)
def test_geodesic_distance_random(b):
    rng = np.random.default_rng(b + 30)
    r1s, r2s = _random_rotations(rng, b), _random_rotations(rng, b)
    got = so3.geodesic_distance_batch(r1s, r2s)
    assert got.flags.c_contiguous and got.shape == (b,)
    assert np.abs(got - _ref_geodesic_distance_batch(r1s, r2s)).max() <= _ANGLE_ATOL


def test_geodesic_distance_edge_rows():
    """Half turns with tied diagonals read exactly pi, equal rotations of
    the cube exactly 0, and angles below 1e-8 keep their relative accuracy."""
    eye = np.tile(np.eye(3), (len(EDGE_ROTATIONS), 1, 1))
    got = so3.geodesic_distance_batch(eye, EDGE_ROTATIONS)
    assert np.abs(got - _ref_geodesic_distance_batch(eye, EDGE_ROTATIONS)).max() <= _ANGLE_ATOL
    half = np.array([np.array_equal(r, r.T) and not np.array_equal(r, np.eye(3)) for r in EDGE_ROTATIONS])
    assert (got[half] == math.pi).all()
    assert (_ref_geodesic_distance_batch(eye, EDGE_ROTATIONS)[half] == math.pi).all()
    cube = np.isin(np.abs(EDGE_ROTATIONS), (0.0, 1.0)).all(axis=(1, 2))
    assert (so3.geodesic_distance_batch(EDGE_ROTATIONS, EDGE_ROTATIONS)[cube] == 0.0).all()
    rng = np.random.default_rng(31)
    thetas = np.array([1e-8, 1e-9, 1e-12, 1e-100, 0.0])
    axes = rng.standard_normal((len(thetas), 3))
    axes /= np.linalg.norm(axes, axis=1, keepdims=True)
    small = _ref_rodrigues_batch(thetas[:, None] * axes)
    eye = np.tile(np.eye(3), (len(small), 1, 1))
    got = so3.geodesic_distance_batch(eye, small)
    assert (np.abs(got - thetas) <= 4.0 * np.finfo(float).eps * thetas).all()
    r1s = _random_rotations(rng, len(thetas))
    got = so3.geodesic_distance_batch(r1s, r1s @ small)
    assert np.abs(got - _ref_geodesic_distance_batch(r1s, r1s @ small)).max() <= _ANGLE_ATOL


def test_quat_step_zero_step_and_rodrigues():
    """A zero step returns the quaternions themselves; any other is the
    quaternion of R(q) Rodrigues(phi)."""
    rng = np.random.default_rng(32)
    qs = rng.standard_normal((32, 4))
    qs /= np.linalg.norm(qs, axis=1, keepdims=True)
    for zero in (np.zeros((32, 3)), np.full((32, 3), -0.0)):
        assert np.array_equal(so3._quat_step_batch(qs, zero), qs)
    phis = np.concatenate([rng.standard_normal((24, 3)) * 2.0,
                           np.array([[1e-7, 0.0, -1e-7], [5e-7, 5e-7, 5e-7], [math.pi, 0.0, -0.0],
                                     [0.0, 0.0, 0.0], [1e-300, 0.0, 0.0], [0.0, 2.0 * math.pi, 0.0],
                                     [1e-6, 0.0, 0.0], [3.0, -4.0, 0.0]])])
    got = so3._quat_step_batch(qs, phis)
    assert got.flags.c_contiguous
    want = _ref_quat_to_rot_batch(qs) @ _ref_rodrigues_batch(phis)
    assert np.abs(_ref_quat_to_rot_batch(got) - want).max() <= 2e-14


def test_vee_inverts_hat_and_matches_stacked_differences():
    c = np.random.default_rng(5).standard_normal((32, 3, 3))
    ref = np.stack([c[:, 2, 1] - c[:, 1, 2], c[:, 0, 2] - c[:, 2, 0], c[:, 1, 0] - c[:, 0, 1]], axis=1)
    _same(so3._vee_batch(c), ref)
    phis = c[:, 0]
    assert np.array_equal(so3._vee_batch(so3._hat_batch(phis)), 2.0 * phis)


# ---------------------------------------------------------------------------
# representations

@pytest.mark.parametrize("b", BATCHES)
def test_quat_to_rot_random(b):
    q = np.random.default_rng(b + 2).standard_normal((b, 4))
    q /= np.linalg.norm(q, axis=1, keepdims=True)
    _same(reps._quat_to_rot_batch(q), _ref_quat_to_rot_batch(q))


def test_quat_to_rot_edge_rows():
    q = _edge_quats()
    _same(reps._quat_to_rot_batch(q), _ref_quat_to_rot_batch(q))


def test_quat_hessians_unchanged():
    e = np.eye(4)
    pairs = (e[:, None, :] + e[None, :, :]).reshape(16, 4)
    r_pairs = _ref_quat_to_rot_batch(pairs).reshape(4, 4, 3, 3)
    r_e = _ref_quat_to_rot_batch(e)
    h = r_pairs - r_e[:, None] - r_e[None, :] + _ref_quat_to_rot_batch(np.zeros((1, 4)))
    assert reps._QUAT_HESSIANS.tobytes() == h.reshape(16, 9).T.copy().tobytes()


@pytest.mark.parametrize("b", BATCHES)
def test_sym4_random_and_signed_zeros(b):
    xs = np.random.default_rng(b + 3).standard_normal((b, 10))
    xs[:, ::3] = -0.0
    _same(reps._sym4_batch(xs), _ref_sym4_batch(xs))


@pytest.mark.parametrize("b", BATCHES)
def test_ten_d_forward_random(b):
    xs = np.random.default_rng(b + 4).standard_normal((b, 10))
    _same(reps._ten_d_forward_batch(xs), _ref_ten_d_forward_batch(xs))


def test_ten_d_forward_embedded_edge_quats():
    """Forms I - q q^T of q0 = 0 and axis-aligned quaternions."""
    qs = _ref_rot_to_quat_batch(EDGE_ROTATIONS)
    xs = np.stack([reps.embed(reps.ManifoldPoint(RepKind.TEN_D, q)) for q in qs])
    xs[1::2] += np.random.default_rng(6).standard_normal(xs[1::2].shape) * 1e-3
    _same(reps._ten_d_forward_batch(xs), _ref_ten_d_forward_batch(xs))


@pytest.mark.parametrize("b", BATCHES)
def test_euler_and_axis_angle_backward(b):
    rng = np.random.default_rng(b + 5)
    xs = rng.standard_normal((b, 3)) * 1.5
    xs[0, 1] = -0.0
    gs = rng.standard_normal((b, 3, 3))
    for rep, ref in ((RepKind.EULER3, _ref_euler_backward_batch),
                     (RepKind.AXIS_ANGLE3, _ref_axis_angle_backward_batch)):
        _, factors = rotations_from_raw(rep, xs, return_factors=True)
        _same(reps.vanilla_backward_batch(rep, xs, gs, factors), ref(xs, gs, factors))


def test_axis_angle_backward_small_and_zero_angles():
    xs = np.outer([0.0, -0.0, 5e-7, 5e-5, 1.0, math.pi - 1e-6], [2.0 / 3.0, -1.0 / 3.0, 2.0 / 3.0])
    gs = np.random.default_rng(7).standard_normal((len(xs), 3, 3))
    _, factors = rotations_from_raw(RepKind.AXIS_ANGLE3, xs, return_factors=True)
    _same(reps.vanilla_backward_batch(RepKind.AXIS_ANGLE3, xs, gs, factors),
          _ref_axis_angle_backward_batch(xs, gs, factors))


def test_six_d_rotation_map_edge_values():
    edges = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 1e-310, -1e-310, 1.5])
    rng = np.random.default_rng(17)
    vals = np.concatenate([rng.choice(edges, size=(512, 2, 3)),
                           rng.standard_normal((64, 2, 3))])
    with np.errstate(invalid="ignore", over="ignore", under="ignore"):
        for val in vals:
            _same(reps.rotation_map(ManifoldPoint(RepKind.SIX_D, val)), _ref_rotation_map_6d(val))


# ---------------------------------------------------------------------------
# rpmg goal terms and the batched gradient

def _qs(rng, b):
    q = rng.standard_normal((b, 4))
    q /= np.linalg.norm(q, axis=1, keepdims=True)
    q[0, 0] = -0.0
    return q


@pytest.mark.parametrize("b", BATCHES)
def test_constraint_rows(b):
    q = _qs(np.random.default_rng(b + 6), b)
    _same(rpmg._constraint_rows_batch(q), _ref_constraint_rows_batch(q))


@pytest.mark.parametrize("rep", MANIFOLD_REPS, ids=lambda r: r.value)
@pytest.mark.parametrize("b", BATCHES)
def test_goal_terms_random(rep, b):
    rng = np.random.default_rng(b + 7)
    xs = rng.standard_normal((b, rep.ambient_dim))
    r_g = _random_rotations(rng, b)
    _check_goal_terms(rep, xs, r_g)


@pytest.mark.parametrize("rep", (RepKind.QUAT4, RepKind.TEN_D), ids=lambda r: r.value)
def test_goal_terms_edge_rotations(rep):
    rng = np.random.default_rng(8)
    r_g = EDGE_ROTATIONS
    xs = rng.standard_normal((len(r_g), rep.ambient_dim))
    if rep is RepKind.QUAT4:
        # half the rows on the far sheet, one exactly orthogonal to the goal
        q = _ref_rot_to_quat_batch(r_g)
        xs[::2] = -q[::2] * 1.7
        xs[1] = np.array([-q[1, 1], q[1, 0], -q[1, 3], q[1, 2]])
    _check_goal_terms(rep, xs, r_g)


@pytest.mark.parametrize("rep", MANIFOLD_REPS, ids=lambda r: r.value)
@pytest.mark.parametrize("loss", LOSS_NAMES)
@pytest.mark.parametrize("b", BATCHES)
def test_rpmg_gradient_batch(rep, loss, b):
    rng = np.random.default_rng(b + 9)
    xs = rng.standard_normal((b, rep.ambient_dim))
    rs = rotations_from_raw(rep, xs)
    r_gts = _random_rotations(rng, b)
    points = rng.standard_normal((16, 3))
    for method in (Method.MG, Method.PMG, Method.RPMG):
        params = RpmgParams(method)
        got = rpmg.rpmg_gradient_batch(rep, xs, rs, r_gts, 0.05, params, loss, points)
        want = _ref_rpmg_gradient_batch(rep, xs, rs, r_gts, 0.05, params, loss, points)
        if _moves(rep, method, loss):
            _close_rows(got, want, xs)
        else:
            _same(got, want)


@pytest.mark.parametrize("rep", list(RepKind), ids=lambda r: r.value)
def test_rpmg_gradient_batch_same_bits_with_and_without_factors(rep):
    rng = np.random.default_rng(33)
    xs = rng.standard_normal((32, rep.ambient_dim))
    rs, factors = rotations_from_raw(rep, xs, return_factors=True)
    r_gts = _random_rotations(rng, 32)
    methods = list(Method) if rep in MANIFOLD_REPS else [Method.VANILLA]
    for method, loss in itertools.product(methods, ("l2", "geodesic")):
        params = RpmgParams(method)
        got = rpmg.rpmg_gradient_batch(rep, xs, rs, r_gts, 0.2, params, loss)
        want = rpmg.rpmg_gradient_batch(rep, xs, rs, r_gts, 0.2, params, loss, factors=factors)
        assert (got.strides, got.tobytes()) == (want.strides, want.tobytes())


@pytest.mark.parametrize("rep", _QUAT_GOAL_REPS, ids=lambda r: r.value)
def test_zero_goal_step_keeps_the_forward_quaternion(rep):
    """At tau = 0 the goal is the forward's quaternion, the factor itself:
    MG emits x minus the embedded forward point, bit for bit."""
    xs = np.random.default_rng(34).standard_normal((32, rep.ambient_dim))
    rs, factors = rotations_from_raw(rep, xs, return_factors=True)
    q = factors[0] if rep is RepKind.QUAT4 else factors[1][:, :, 0]
    got = rpmg.rpmg_gradient_batch(rep, xs, rs, _random_rotations(np.random.default_rng(35), 32),
                                   0.0, RpmgParams(Method.MG), factors=factors)
    if rep is RepKind.QUAT4:  # the sheet of q, nearer x
        assert np.array_equal(got, xs - q)
    else:
        assert np.array_equal(got, xs - np.stack([reps._ten_d_embedding(v) for v in q]))


# ---------------------------------------------------------------------------
# layouts that einsum callers read

@pytest.mark.parametrize("rep", list(RepKind), ids=lambda r: r.value)
@pytest.mark.parametrize("b", BATCHES)
def test_forward_rotations_and_factors_are_c_contiguous(rep, b):
    rng = np.random.default_rng(b + 20)
    rs, factors = rotations_from_raw(rep, rng.standard_normal((b, rep.ambient_dim)),
                                     return_factors=True)
    for a in (rs,) + tuple(factors):
        assert a.flags.c_contiguous, (a.shape, a.strides)


def _einsum_operands(monkeypatch, fn, *args):
    """The operands of every np.einsum call that fn(*args) makes."""
    seen = []
    einsum = np.einsum

    def spy(subscripts, *operands, **kwargs):
        seen.extend(operands)
        return einsum(subscripts, *operands, **kwargs)

    with monkeypatch.context() as m:
        m.setattr(np, "einsum", spy)
        fn(*args)
    return seen


@pytest.mark.parametrize("rep", _QUAT_GOAL_REPS, ids=lambda r: r.value)
def test_goal_quaternions_are_c_contiguous(monkeypatch, rep):
    """The forward's quaternion (10d's eigenvector column is strided) and
    the composed goal reach the quaternion step and the goal terms, and so
    their einsum calls, C-contiguous, with or without the factors."""
    rng = np.random.default_rng(36)
    xs = rng.standard_normal((32, rep.ambient_dim))
    rs, factors = rotations_from_raw(rep, xs, return_factors=True)
    r_gts = _random_rotations(rng, 32)
    seen = []

    def spy(fn, slot):
        def wrapped(*args):
            seen.append(args[slot])
            return fn(*args)
        return wrapped

    # the quaternion step's q and the goal terms' goal
    monkeypatch.setattr(so3, "_quat_step_batch", spy(so3._quat_step_batch, 0))
    monkeypatch.setattr(rpmg, "_goal_terms_batch", spy(rpmg._goal_terms_batch, 2))
    for method, given in itertools.product((Method.MG, Method.PMG, Method.RPMG), (None, factors)):
        rpmg.rpmg_gradient_batch(rep, xs, rs, r_gts, 0.2, RpmgParams(method), "l2", None, given)
    assert len(seen) == 12 and all(q.shape == (32, 4) and q.flags.c_contiguous for q in seen)


def test_quat_step_and_angle_einsum_operands_are_c_contiguous(monkeypatch):
    rng = np.random.default_rng(37)
    rs, (_, vecs) = rotations_from_raw(RepKind.TEN_D, rng.standard_normal((32, 10)),
                                          return_factors=True)
    qs = np.ascontiguousarray(vecs[:, :, 0])
    calls = [(so3.geodesic_distance_batch, (rs, _random_rotations(rng, 32))),
             (so3._quat_step_batch, (qs, rng.standard_normal((32, 3))))]
    # every branch of the goal terms, on the goals rpmg_gradient_batch builds
    for rep in MANIFOLD_REPS:
        r_g = _random_rotations(rng, 32)
        calls.append((rpmg._goal_terms_batch,
                      (rep, rng.standard_normal((32, rep.ambient_dim)), _goal_batch_of(rep, r_g))))
    for fn, args in calls:
        operands = _einsum_operands(monkeypatch, fn, *args)
        if fn is not rpmg._goal_terms_batch or args[0] is not RepKind.NINE_D:  # 9d calls none
            assert operands, fn
        assert all(a.flags.c_contiguous for a in operands), [a.strides for a in operands]
    assert so3._quat_step_batch(qs, rng.standard_normal((32, 3))).flags.c_contiguous


@pytest.mark.parametrize("rep", list(RepKind), ids=lambda r: r.value)
@pytest.mark.parametrize("b", BATCHES)
def test_vanilla_backward_rows_and_einsum_operands_are_c_contiguous(monkeypatch, rep, b):
    """The rows nn.backward receives from the chain rule, whose products
    sum in a layout-dependent order, and the backward's own einsum operands."""
    rng = np.random.default_rng(b + 38)
    xs = rng.standard_normal((b, rep.ambient_dim))
    rs, factors = rotations_from_raw(rep, xs, return_factors=True)
    gs = rng.standard_normal((b, 3, 3))
    for given in (None, factors):
        assert reps.vanilla_backward_batch(rep, xs, gs, given).flags.c_contiguous
    # given the factors, every einsum call is the backward's own
    operands = _einsum_operands(monkeypatch, reps.vanilla_backward_batch, rep, xs, gs, factors)
    assert all(a.flags.c_contiguous for a in operands), [a.strides for a in operands]


@pytest.mark.parametrize("loss", LOSS_NAMES)
@pytest.mark.parametrize("b", BATCHES)
def test_euclid_grad_batch_is_c_contiguous(loss, b):
    rng = np.random.default_rng(b + 21)
    rs, r_gts = _random_rotations(rng, b), _random_rotations(rng, b)
    got = riemannian.euclid_grad_batch(loss, rs, r_gts, rng.standard_normal((16, 3)))
    assert got.flags.c_contiguous, got.strides


# ---------------------------------------------------------------------------
# chamfer

def _chamfer_case(rng, b):
    """Integer points (with duplicates) under cube rotations: many exactly
    equal distances, so the argmin ties must break the same way."""
    z = rng.integers(-2, 3, size=(16, 3)).astype(np.float64)
    z[5] = z[4]
    cube = _signed_permutations()
    rs = cube[rng.integers(0, len(cube), size=b)]
    r_gts = cube[rng.integers(0, len(cube), size=b)]
    return z, rs, r_gts


@pytest.mark.parametrize("b", BATCHES)
def test_chamfer_batch_random(b):
    rng = np.random.default_rng(b + 10)
    z = rng.standard_normal((16, 3))
    rs, r_gts = _random_rotations(rng, b), _random_rotations(rng, b)
    _same(riemannian.euclid_grad_batch("chamfer", rs, r_gts, z),
          _ref_euclid_grad_batch("chamfer", rs, r_gts, z))


@pytest.mark.parametrize("b", BATCHES)
def test_chamfer_batch_distance_ties(b):
    z, rs, r_gts = _chamfer_case(np.random.default_rng(b + 12), b)
    _same(riemannian.euclid_grad_batch("chamfer", rs, r_gts, z),
          _ref_euclid_grad_batch("chamfer", rs, r_gts, z))


def test_chamfer_batch_in_chunks(monkeypatch):
    z, rs, r_gts = _chamfer_case(np.random.default_rng(13), 32)
    rs = rs + np.random.default_rng(14).standard_normal(rs.shape) * 1e-3
    monkeypatch.setattr(riemannian, "_CHAMFER_CHUNK", 3 * 16 * 16 * 5)  # chunks of five
    _same(riemannian.euclid_grad_batch("chamfer", rs, r_gts, z),
          _ref_euclid_grad_batch("chamfer", rs, r_gts, z))


def test_chamfer_pairs_distance_ties():
    rng = np.random.default_rng(15)
    z, rs, r_gts = _chamfer_case(rng, 32)
    for r, r_gt in zip(np.concatenate([rs, _random_rotations(rng, 8)]), np.concatenate([r_gts] * 2)):
        loss = Chamfer(canonical=z, observed=z @ r_gt.T)
        got, ref = riemannian._chamfer_pairs(loss, r), _ref_chamfer_pairs(loss, r)
        for g, e in zip(got, ref):
            _same(g, e)
        assert riemannian.euclid_grad(loss, r).flags.c_contiguous


# ---------------------------------------------------------------------------
# checks

def _assert_rows_close(got, ref, rtol):
    """Each row within ``rtol`` of its reference, relative to the row's
    largest entry."""
    assert got.shape == ref.shape
    scale = np.maximum(np.abs(ref).max(axis=1), 1e-300)
    assert (np.abs(got - ref).max(axis=1) <= rtol * scale).all(), \
        float((np.abs(got - ref).max(axis=1) / scale).max())


@pytest.mark.parametrize("rep", MANIFOLD_REPS, ids=lambda r: r.value)
def test_oracle_matches_descent_loop(rep):
    xs, r_gs = checks.sample_projection_cases(rep, 32, 3)
    for steps in (0, 1, 2, 3, 7, 100, 1000, checks._PGD_STEPS):
        got = checks.oracle_inverse_image_batch(rep, xs, r_gs, steps=steps)
        ref = _REF_ORACLES[rep](xs, r_gs, steps, checks._PGD_STEP_SIZE)
        _assert_rows_close(got, ref, 1e-12)


def test_iterate_affine_matches_explicit_loop():
    rng = np.random.default_rng(17)
    n, d = 6, 5
    a = rng.standard_normal((n, d, d))
    a *= 0.95 / np.linalg.norm(a, ord=2, axis=(1, 2))[:, None, None]
    b = rng.standard_normal((n, d))
    z0 = rng.standard_normal((n, d))

    def step_fn(z):
        return np.einsum('bij,bj->bi', a, z) + b

    for steps in (0, 1, 2, 5, 64, 333):
        z = z0
        for _ in range(steps):
            z = step_fn(z)
        _assert_rows_close(checks._iterate_affine(step_fn, z0, steps), z, 1e-12)


def test_iterate_affine_rejects_negative_steps():
    with pytest.raises(ValueError, match="steps must be >= 0"):
        checks._iterate_affine(lambda z: z, np.zeros((2, 3)), -1)
    with pytest.raises(ValueError, match="steps must be >= 0"):
        checks.oracle_inverse_image_batch(RepKind.QUAT4, np.ones((1, 4)),
                                          np.eye(3)[None], steps=-5)
