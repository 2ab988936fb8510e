"""Manifold-aware backward passes for rotation regression.

Instead of differentiating through the projection onto the representation
manifold, the backward pass takes one Riemannian step on SO(3) toward lower
loss (the goal rotation ``R_g``), pulls the goal back into ambient space in
two ways, and emits their blend as the gradient for the raw network output:

* ``x_hat_g`` -- the embedded canonical representation of ``R_g``;
* ``x_gp``    -- the point of the whole inverse image of ``R_g`` closest
  to ``x``, available in closed form for all four manifold representations.

The emitted gradient is ``g = x - x_gp + lam * (x_gp - x_hat_g)``.  Setting
``lam = 1`` recovers the plain manifold gradient (MG, pull toward the
canonical embedding), ``lam = 0`` the projective manifold gradient (PMG,
pull toward the nearest equivalent output); both are exposed as named
methods and as exact short-circuits of the blend.  A small positive ``lam``
keeps the raw output norm from collapsing while preserving most of the
projective gradient's freedom.

The per-sample ``rpmg_gradient`` and the batched ``rpmg_gradient_batch``
each get both pullbacks from one goal kernel, ``_goal_terms`` (on Python
floats) and its row twin ``_goal_terms_batch``, and emit them through the
one ``_blend`` that the sphere's rules also use (on arrays, or entry by
entry on floats).  The per-sample dispatch is ``_sample_gradient`` on
Python floats, which ``rpmg_gradient`` wraps for arrays and
``fit_single_rotation`` calls on its floats; its quat PMG row is written as
a sum of two orthogonal terms (``_quat_rows``) rather than the difference
x - x_gp, so it keeps its relative precision near the goal.

The quat and 10d pullbacks read the goal as a unit quaternion, so for them
the goal step is composed as one: q_g = q (x) exp(-tau phi / 2), where q is
the forward's own quaternion (``so3._quat_step``).  The batched route takes
that q as ``factors``, from ``rotations_from_raw(rep, xs,
return_factors=True)``, and computes it through the same forward map when
it is not given; the per-sample route reads it off ``_forward_one``, which
``fit_single_rotation`` runs once per step.  6d and 9d read the goal
matrix, R_g = R Rodrigues(-tau phi).  The 10d pullback solves the 4x4
normal system M M^T by an unrolled Cholesky factorization per sample and
by ``numpy.linalg.solve`` over a batch.  ``inverse_project``, which is
given a goal rotation, takes its quaternion with ``so3.rot_to_quat``.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from itertools import repeat
from typing import Optional

import numpy as np

from . import so3
from .representations import (
    _EYE4_SYM,
    _SYM4_COLS,
    _SYM4_GATHER,
    _SYM4_ROWS,
    _forward,
    _forward_one,
    _sym4_batch,
    _ten_d_params,
    MANIFOLD_REPS,
    RepKind,
    baseline_backward,
    vanilla_backward_batch,
)
from .riemannian import (
    _check_weight,
    _euclid_grad,
    _riemannian_grad,
    LossKind,
    euclid_grad,
    euclid_grad_batch,
)


class Method(enum.Enum):
    VANILLA = "vanilla"
    MG = "mg"
    PMG = "pmg"
    RPMG = "rpmg"


METHOD_BY_NAME = {m.value: m for m in Method}

# the blend weight each named method fixes, by method value; RPMG (and the
# sphere's rule of the same name) uses its own lam
BLEND_LAM = {"mg": 1.0, "pmg": 0.0}

# the reps whose goal terms read the goal as a unit quaternion; 6d and 9d
# read the goal rotation matrix
_QUAT_GOAL_REPS = (RepKind.QUAT4, RepKind.TEN_D)


@dataclass(frozen=True)
class RpmgParams:
    """Backward-pass configuration: method plus regularization weight.

    ``lam`` must lie in [0, 1] and only affects the RPMG method; MG and PMG
    are documented aliases for lam = 1 and lam = 0 (bit-identical outputs).
    """
    method: Method = Method.RPMG
    lam: float = 0.01

    def __post_init__(self):
        _check_weight("lam", self.lam)

    @property
    def blend_lam(self) -> float:
        """The weight :func:`_blend` gets: 1 for MG, 0 for PMG, else lam."""
        return BLEND_LAM.get(self.method.value, self.lam)


def constraint_rows(q) -> np.ndarray:
    """4x10 matrix M with M @ theta == sym4_from_params(theta) @ q for all theta."""
    return _constraint_rows_batch(np.asarray(q, dtype=np.float64)[None])[0]


def _finite_ambient(rep: RepKind, x) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (rep.ambient_dim,) or not all(map(math.isfinite, x.tolist())):
        raise ValueError(f"{rep.value}: need a finite ({rep.ambient_dim},) vector")
    return x


def inverse_project(rep: RepKind, x, r_g) -> np.ndarray:
    """Closest point to x within the inverse image of the goal rotation.

    The sign and ordering constraints that pin down the exact inverse images
    are relaxed to their linear/affine supersets (scale may be negative, the
    10-dim eigenvalue need not be the smallest), so far from the goal the
    result can leave the true inverse image; near it the relaxation is tight.
    """
    x = _finite_ambient(rep, x)
    if rep not in MANIFOLD_REPS:
        raise ValueError(f"{rep.value} has no manifold inverse image")
    goal = so3.rot_to_quat(r_g) if rep in _QUAT_GOAL_REPS else np.asarray(r_g, dtype=np.float64)
    return np.array(_goal_terms(rep, x.tolist(), goal.ravel().tolist())[1])


def _solve_normal(q, b, c):
    """(P^-1 b, P^-1 c) for P = M M^T = diag(|q|^2 - q*q) + q q^T, M =
    ``constraint_rows(q)``, by an unrolled Cholesky factorization.

    For a unit q, P has a unit diagonal and eigenvalues within [1/2, 2], so
    the factorization needs no pivoting and no square root meets a
    nonpositive operand.
    """
    q0, q1, q2, q3 = q
    n2 = q0 * q0 + q1 * q1 + q2 * q2 + q3 * q3  # every diagonal entry
    l00 = math.sqrt(n2)
    l10, l20, l30 = q1 * q0 / l00, q2 * q0 / l00, q3 * q0 / l00
    l11 = math.sqrt(n2 - l10 * l10)
    l21, l31 = (q2 * q1 - l20 * l10) / l11, (q3 * q1 - l30 * l10) / l11
    l22 = math.sqrt(n2 - l20 * l20 - l21 * l21)
    l32 = (q3 * q2 - l30 * l20 - l31 * l21) / l22
    l33 = math.sqrt(n2 - l30 * l30 - l31 * l31 - l32 * l32)
    out = []
    for r0, r1, r2, r3 in (b, c):
        # L y = r, then L^T w = y
        y0 = r0 / l00
        y1 = (r1 - l10 * y0) / l11
        y2 = (r2 - l20 * y0 - l21 * y1) / l22
        y3 = (r3 - l30 * y0 - l31 * y1 - l32 * y2) / l33
        w3 = y3 / l33
        w2 = (y2 - l32 * w3) / l22
        w1 = (y1 - l21 * w2 - l31 * w3) / l11
        w0 = (y0 - l10 * w1 - l20 * w2 - l30 * w3) / l00
        out.append((w0, w1, w2, w3))
    return out


def _constraint_adjoint(q, w) -> list:
    """M^T w for M = ``constraint_rows(q)``: parameter (a, b) of A collects
    q_b w_a + q_a w_b, and (a, a) collects q_a w_a."""
    q0, q1, q2, q3 = q
    w0, w1, w2, w3 = w
    return [q0 * w0, q1 * w0 + q0 * w1, q2 * w0 + q0 * w2, q3 * w0 + q0 * w3, q1 * w1,
            q2 * w1 + q1 * w2, q3 * w1 + q1 * w3, q2 * w2, q3 * w2 + q2 * w3, q3 * w3]


def _goal_terms(rep: RepKind, x: list, goal: list):
    """(x_hat_g, x_gp) for one goal, on lists of floats: a row of
    :func:`_goal_terms_batch`.

    The goal is a unit quaternion (either sign) for quat and 10d and the
    goal rotation matrix, nine row-major floats, for 6d and 9d.  x_hat_g is
    the embedded canonical representation of the goal (for quat, the sheet
    nearer x); x_gp is :func:`inverse_project`'s point.
    """
    if rep is RepKind.QUAT4:
        x0, x1, x2, x3 = x
        q0, q1, q2, q3 = goal
        dot = x0 * q0 + x1 * q1 + x2 * q2 + x3 * q3
        if dot < 0.0:  # nearer sheet of the double cover
            q0, q1, q2, q3 = -q0, -q1, -q2, -q3
        k = abs(dot)
        return [q0, q1, q2, q3], [k * q0, k * q1, k * q2, k * q3]

    if rep is RepKind.SIX_D:
        u0, u1, u2, v0, v1, v2 = x
        a0, b0, _, a1, b1, _, a2, b2, _ = goal  # the goal's first two columns
        k1 = u0 * a0 + u1 * a1 + u2 * a2
        k2 = v0 * a0 + v1 * a1 + v2 * a2
        k3 = v0 * b0 + v1 * b1 + v2 * b2
        return [a0, a1, a2, b0, b1, b2], [
            k1 * a0, k1 * a1, k1 * a2,
            k2 * a0 + k3 * b0, k2 * a1 + k3 * b1, k2 * a2 + k3 * b2]

    if rep is RepKind.NINE_D:
        # x_gp = S R_g with S the symmetric part of M R_g^T, M = x.reshape(3, 3)
        c = so3._matmul(x, [goal[0], goal[3], goal[6], goal[1], goal[4], goal[7],
                            goal[2], goal[5], goal[8]])
        # S_ij = 0.5 (c_ij + c_ji), the diagonal included, as the batch forms it
        c01, c02, c12 = 0.5 * (c[1] + c[3]), 0.5 * (c[2] + c[6]), 0.5 * (c[5] + c[7])
        s = [0.5 * (c[0] + c[0]), c01, c02, c01, 0.5 * (c[4] + c[4]), c12, c02, c12, 0.5 * (c[8] + c[8])]
        return list(goal), so3._matmul(s, goal)

    # [s t] = M^T (M M^T)^{-1} [q, A(x) q]; for a unit q, M M^T is
    # diag(1 - q*q) + q q^T, positive definite with eigenvalues <= 2, so
    # |s|^2 = q^T (M M^T)^{-1} q >= 1/2.  M and [q, A(x) q] are odd in q, so
    # either sign of the goal gives the same bits.
    q0, q1, q2, q3 = goal
    t0, t1, t2, t3, t4, t5, t6, t7, t8, t9 = x
    aq = (t0 * q0 + t1 * q1 + t2 * q2 + t3 * q3, t1 * q0 + t4 * q1 + t5 * q2 + t6 * q3,
          t2 * q0 + t5 * q1 + t7 * q2 + t8 * q3, t3 * q0 + t6 * q1 + t8 * q2 + t9 * q3)
    w, v = _solve_normal(goal, goal, aq)
    s, t = _constraint_adjoint(goal, w), _constraint_adjoint(goal, v)
    ss = st = 0.0
    for a, b in zip(s, t):
        ss += a * a
        st += a * b
    lam_eig = st / ss
    return _ten_d_params(goal), [xi + lam_eig * si - ti for xi, si, ti in zip(x, s, t)]


def _blend(x, x_hat_g, x_gp, lam: float):
    """The emitted gradient x - x_gp + lam (x_gp - x_hat_g), exact at lam = 1
    (x - x_hat_g) and lam = 0 (x - x_gp): of arrays, or of single floats."""
    if lam == 1.0:
        return x - x_hat_g
    if lam == 0.0:
        return x - x_gp
    return x - x_gp + lam * (x_gp - x_hat_g)


def _quat_rows(x: list, q: list, step, lam: float) -> list:
    """The quat rows of :func:`_sample_gradient`.  For the step's half-angle
    quaternion (c, b), the goal is q_g = q (x) (c, b), x . q_g = |x| c, and
    x - x_gp = x - (x . q_g) q_g = (b . b) x - c x (x) (0, b), a sum of two
    orthogonal terms: the PMG row keeps its relative precision where x_gp
    nears x, where the difference would round to about eps |x|."""
    c, b1, b2, b3 = half = so3._half_step(step)
    s2 = b1 * b1 + b2 * b2 + b3 * b3  # sin^2(theta/2)
    xb = so3._hamilton(x, (0.0, b1, b2, b3))
    pmg = [s2 * xi - c * yi for xi, yi in zip(x, xb)]
    if lam == 0.0:
        return pmg
    x_hat_g, x_gp = _goal_terms(RepKind.QUAT4, x, so3._hamilton(q, half))
    if lam == 1.0:
        return [xi - hi for xi, hi in zip(x, x_hat_g)]
    return [d + lam * (p - h) for d, p, h in zip(pmg, x_gp, x_hat_g)]


def _sample_gradient(rep: RepKind, method: Method, x: list, r: list, q, loss: LossKind,
                     gt: Optional[list], tau: float, lam: float,
                     max_step: Optional[float]) -> list:
    """The gradient emitted for one sample, on lists of floats: x, R
    (row-major) and, for quat and 10d, the forward's unit quaternion q
    (None otherwise).  ``gt`` is the target's rows for l2 and geodesic, or
    None to read them off ``loss``; ``lam`` is the blend weight.  The one
    per-sample dispatch: :func:`rpmg_gradient` wraps it for arrays, and
    ``fit_single_rotation`` calls it on its floats."""
    if method is Method.VANILLA:  # the chain rule runs on arrays
        return baseline_backward(rep, np.array(x), euclid_grad(loss, np.reshape(r, (3, 3)))).tolist()
    dl_dr = _euclid_grad(loss, r, gt)
    if rep not in MANIFOLD_REPS:
        raise ValueError(f"{rep.value} supports only the vanilla method")
    p0, p1, p2 = _riemannian_grad(r, dl_dr)
    if max_step is not None:
        norm = math.sqrt(p0 * p0 + p1 * p1 + p2 * p2)
        if tau * norm > max_step:
            tau = max_step / norm
    step = (-tau * p0, -tau * p1, -tau * p2)
    if rep is RepKind.QUAT4:
        return _quat_rows(x, q, step, lam)
    if rep is RepKind.TEN_D:
        goal = so3._quat_step(q, step)
    else:
        goal = so3._matmul(r, so3._rodrigues(*step))
    x_hat_g, x_gp = _goal_terms(rep, x, goal)
    return list(map(_blend, x, x_hat_g, x_gp, repeat(lam)))


def rpmg_gradient(rep: RepKind, x, r, loss: LossKind, tau: float,
                  params: RpmgParams, max_step: Optional[float] = None) -> np.ndarray:
    """Ambient gradient emitted for one sample.

    ``r`` must be the rotation the forward pass produced from ``x`` (passed
    in to avoid recomputing the projection).  Vanilla delegates to the plain
    chain rule and works for all six representations; the manifold methods
    require a representation with a nontrivial projection and a finite
    ``x``.  With ``max_step`` (radians), a goal step tau |phi| past it is
    scaled down to exactly ``max_step``; a step within it keeps ``tau`` as
    given.  For quat and 10d the goal is composed as a quaternion, q (x)
    exp(-tau phi / 2), from the forward's own q, which this computes from x
    through the forward map.
    """
    q = None
    if params.method is Method.VANILLA or rep not in MANIFOLD_REPS:
        x = np.asarray(x, dtype=np.float64)
    else:
        x = _finite_ambient(rep, x)
        if rep in _QUAT_GOAL_REPS:
            q = _forward_one(rep, x.tolist())[1]
    return np.array(_sample_gradient(rep, params.method, x.tolist(), so3._rows(r), q, loss,
                                     None, tau, params.blend_lam, max_step))


# ---------------------------------------------------------------------------
# Batched route used by the trainer, for every loss in LOSS_NAMES.  Semantics
# are pinned to the per-sample functions above by equality tests.

def _constraint_rows_batch(qs: np.ndarray) -> np.ndarray:
    """Batched :func:`constraint_rows`, (B, 4, 10), in one scatter."""
    m = np.zeros((qs.shape[0], 4, 10))
    # (A(theta) q)_i = sum_j theta[_SYM4_GATHER[i, j]] q_j
    m[:, np.arange(4)[:, None], _SYM4_GATHER] = qs[:, None, :]
    return m


# the slots of x's two 6d columns, and of a flat goal rotation's first two columns
_SIX_D_U, _SIX_D_V = np.arange(3), np.arange(3, 6)
_GOAL_COLUMN_0, _GOAL_COLUMN_1 = np.array([0, 3, 6]), np.array([1, 4, 7])


def _goal_terms_batch(rep: RepKind, xs: np.ndarray, goal: np.ndarray):
    """(x_hat_g, x_gp) for a batch of goals: C-contiguous (B, 4) unit
    quaternions (either sign) for quat and 10d, (B, 3, 3) goal rotations
    for 6d and 9d."""
    if rep is RepKind.QUAT4:
        dots = np.einsum('bi,bi->b', xs, goal)
        q = goal * np.where(dots < 0.0, -1.0, 1.0)[:, None]
        # after the sign flip the dot product is exactly |dots|
        return q, np.abs(dots)[:, None] * q

    if rep is RepKind.SIX_D:
        # C-contiguous einsum operands: einsum's bits follow their strides
        u, v = np.take(xs, _SIX_D_U, axis=1), np.take(xs, _SIX_D_V, axis=1)
        flat = goal.reshape(-1, 9)
        u_g, v_g = np.take(flat, _GOAL_COLUMN_0, axis=1), np.take(flat, _GOAL_COLUMN_1, axis=1)
        x_hat = np.concatenate([u_g, v_g], axis=1)
        k1 = np.einsum('bi,bi->b', u, u_g)[:, None]
        k2 = np.einsum('bi,bi->b', v, u_g)[:, None]
        k3 = np.einsum('bi,bi->b', v, v_g)[:, None]
        return x_hat, np.concatenate([k1 * u_g, k2 * u_g + k3 * v_g], axis=1)

    if rep is RepKind.NINE_D:
        m = xs.reshape(-1, 3, 3)
        mrt = m @ goal.transpose(0, 2, 1)
        s = 0.5 * (mrt + mrt.transpose(0, 2, 1))
        return goal.reshape(-1, 9), (s @ goal).reshape(-1, 9)

    q = goal
    # _ten_d_embedding by rows; np.take keeps it C-contiguous, q[..., idx] would not
    x_hat = _EYE4_SYM - np.take(q, _SYM4_ROWS, axis=1) * np.take(q, _SYM4_COLS, axis=1)
    m = _constraint_rows_batch(q)
    mt = m.transpose(0, 2, 1)
    rhs = np.stack([q, np.einsum('bij,bj->bi', _sym4_batch(xs), q)], axis=2)
    w = np.linalg.solve(m @ mt, rhs)
    s, t = np.ascontiguousarray((mt @ w).transpose(2, 0, 1))  # two C-ordered (B, 10) rows
    lam_eig = np.einsum('bi,bi->b', s, t) / np.einsum('bi,bi->b', s, s)
    return x_hat, xs + lam_eig[:, None] * s - t


def rpmg_gradient_batch(rep: RepKind, xs, rs, r_gts, tau: float,
                        params: RpmgParams, loss: str = "l2",
                        points=None, factors=None,
                        max_step: Optional[float] = None) -> np.ndarray:
    """Batched :func:`rpmg_gradient` under any loss of ``LOSS_NAMES``.

    rs must be the forward rotations of xs; r_gts are per-sample targets.
    ``loss`` defaults to the squared-Frobenius loss; flow and chamfer need
    the shared (K, 3) point set ``points`` (see :func:`euclid_grad_batch`).
    ``factors``, from ``rotations_from_raw(rep, xs, return_factors=True)``,
    spare a second factorization of ``xs``: the vanilla method reads them
    for every rep (see :func:`vanilla_backward_batch`), and the manifold
    methods for quat and 10d, whose goals are the forward's quaternions
    (the normalized x, the smallest eigenvector) times exp(-tau phi / 2).
    Without them both compute them through the forward map.  Row i equals
    :func:`rpmg_gradient` under the per-sample loss for ``r_gts[i]`` and
    the same ``max_step``, which caps each row's goal step on its own.
    """
    xs = np.asarray(xs, dtype=np.float64)
    rs = np.asarray(rs, dtype=np.float64)
    dl = euclid_grad_batch(loss, rs, r_gts, points)
    if params.method is Method.VANILLA:
        return vanilla_backward_batch(rep, xs, dl, factors)
    if rep not in MANIFOLD_REPS:
        raise ValueError(f"{rep.value} supports only the vanilla method")

    phi = so3._vee_batch(np.einsum('bji,bjk->bik', rs, dl))
    step = -tau * phi
    if max_step is not None:
        norms = np.linalg.norm(phi, axis=1)
        over = tau * norms > max_step
        if over.any():
            step[over] = (-max_step / norms[over])[:, None] * phi[over]
    if rep in _QUAT_GOAL_REPS:
        if factors is None:
            _, factors = _forward(rep, xs)
        # 10d's eigenvector column is strided; einsum's bits follow strides
        q = factors[0] if rep is RepKind.QUAT4 else np.ascontiguousarray(factors[1][:, :, 0])
        goal = so3._quat_step_batch(q, step)
    else:
        goal = rs @ so3._rodrigues_batch(step)
    x_hat, x_gp = _goal_terms_batch(rep, xs, goal)
    return _blend(xs, x_hat, x_gp, params.blend_lam)
