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

The per-sample ``rpmg_gradient`` (the reference) and the batched
``rpmg_gradient_batch`` each get both pullbacks from one goal kernel,
``_goal_terms`` and its row twin ``_goal_terms_batch``, and emit them
through the one ``_blend`` that the sphere's rules also use.

The quat and 10d pullbacks read the goal as a unit quaternion, so for them
the goal step is composed as one: q_g = q (x) exp(-tau phi / 2), where q is
the forward's own quaternion (``so3._quat_step``).  6d and 9d read the goal
matrix, R_g = R Rodrigues(-tau phi).  ``inverse_project``, which is given a
goal rotation, takes its quaternion with ``so3.rot_to_quat``.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import so3
from .representations import (
    _EYE4_SYM,
    _SYM4_COLS,
    _SYM4_GATHER,
    _SYM4_ROWS,
    _forward,
    _sym4_batch,
    _ten_d_embedding,
    MANIFOLD_REPS,
    RepKind,
    baseline_backward,
    sym4_from_params,
    vanilla_backward_batch,
)
from .riemannian import (
    _check_weight,
    LossKind,
    euclid_grad,
    euclid_grad_batch,
    goal_rotation,
    riemannian_grad,
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
    r_g = np.asarray(r_g, dtype=np.float64)
    return _goal_terms(rep, x, so3.rot_to_quat(r_g) if rep in _QUAT_GOAL_REPS else r_g)[1]


def _goal_terms(rep: RepKind, x: np.ndarray, goal: np.ndarray):
    """(x_hat_g, x_gp) for one goal: a row of :func:`_goal_terms_batch`.

    The goal is a unit quaternion (either sign) for quat and 10d and the
    goal rotation matrix for 6d and 9d.  x_hat_g is the embedded canonical
    representation of the goal (for quat, the sheet nearer x); x_gp is
    :func:`inverse_project`'s point.
    """
    if rep is RepKind.QUAT4:
        q = goal
        dot = float(x.dot(q))
        if dot < 0.0:  # nearer sheet of the double cover
            q = -q
        return q, abs(dot) * q

    if rep is RepKind.SIX_D:
        u_g, v_g = goal[:, 0], goal[:, 1]
        k1, k2, k3 = float(x[:3].dot(u_g)), float(x[3:].dot(u_g)), float(x[3:].dot(v_g))
        (a0, b0, _), (a1, b1, _), (a2, b2, _) = goal.tolist()
        return np.array([a0, a1, a2, b0, b1, b2]), np.array([
            k1 * a0, k1 * a1, k1 * a2,
            k2 * a0 + k3 * b0, k2 * a1 + k3 * b1, k2 * a2 + k3 * b2])

    if rep is RepKind.NINE_D:
        m = x.reshape(3, 3)
        s = 0.5 * (m @ goal.T + goal @ m.T)
        return goal.reshape(9), (s @ goal).reshape(9)

    # [s t] = M^T (M M^T)^{-1} [q, A(x) q]; for a unit q, M M^T is
    # diag(1 - q*q) + q q^T, positive definite with eigenvalues <= 2, so
    # |s|^2 = q^T (M M^T)^{-1} q >= 1/2.  M and [q, A(x) q] are odd in q, so
    # either sign of the goal gives the same bits.
    q = goal
    x_hat = _ten_d_embedding(q)
    m = constraint_rows(q)
    w = np.linalg.solve(m @ m.T, np.stack([q, sym4_from_params(x) @ q], axis=1))
    s, t = w.T @ m
    lam_eig = float(s.dot(t)) / float(s.dot(s))
    return x_hat, x + lam_eig * s - t


def _blend(x, x_hat_g, x_gp, lam: float):
    """The emitted gradient x - x_gp + lam (x_gp - x_hat_g), exact at lam = 1
    (x - x_hat_g) and lam = 0 (x - x_gp)."""
    if lam == 1.0:
        return x - x_hat_g
    if lam == 0.0:
        return x - x_gp
    return x - x_gp + lam * (x_gp - x_hat_g)


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
    exp(-tau phi / 2), from the forward's own q: x / |x| for quat and the
    quaternion of ``r`` for 10d.
    """
    r = np.asarray(r, dtype=np.float64)
    dl_dr = euclid_grad(loss, r)
    if params.method is Method.VANILLA:
        return baseline_backward(rep, x, dl_dr)
    if rep not in MANIFOLD_REPS:
        raise ValueError(f"{rep.value} supports only the vanilla method")
    x = _finite_ambient(rep, x)

    phi = riemannian_grad(r, dl_dr)
    if max_step is not None:
        norm = math.sqrt(phi.dot(phi))
        if tau * norm > max_step:
            tau = max_step / norm
    if rep is RepKind.QUAT4:
        goal = so3._quat_step(x / math.sqrt(x.dot(x)), -tau * phi)
    elif rep is RepKind.TEN_D:
        goal = so3._quat_step(so3.rot_to_quat(r), -tau * phi)
    else:
        goal = goal_rotation(r, phi, tau)
    x_hat_g, x_gp = _goal_terms(rep, x, goal)
    return _blend(x, x_hat_g, x_gp, params.blend_lam)


# ---------------------------------------------------------------------------
# Batched route used by the trainer, for every loss in LOSS_NAMES.  Semantics
# are pinned to the per-sample functions above by equality tests.

def _constraint_rows_batch(qs: np.ndarray) -> np.ndarray:
    """Batched :func:`constraint_rows`, (B, 4, 10), in one scatter."""
    m = np.zeros((qs.shape[0], 4, 10))
    # (A(theta) q)_i = sum_j theta[_SYM4_GATHER[i, j]] q_j
    m[:, np.arange(4)[:, None], _SYM4_GATHER] = qs[:, None, :]
    return m


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
        u, v = xs[:, :3], xs[:, 3:]
        u_g, v_g = goal[:, :, 0], goal[:, :, 1]
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
    st = mt @ w
    s, t = st[:, :, 0], st[:, :, 1]
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
