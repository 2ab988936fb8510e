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
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from . import lin_core, so3
from .representations import (
    _SYM4_INDEX,
    _sym4_batch,
    MANIFOLD_REPS,
    ManifoldPoint,
    RepKind,
    baseline_backward,
    embed,
    representation_map,
    sym4_from_params,
    vanilla_backward_batch,
)
from .riemannian import (
    LossKind,
    euclid_grad,
    euclid_grad_batch,
    goal_rotation,
    riemannian_grad,
)

# Below this squared norm the 10-dim projection direction is considered
# degenerate.  Unreachable for unit quaternions (the norm is >= 1/2); the
# guard protects against malformed callers only.
_MIN_DIRECTION_SQ = 1e-12


class DegenerateProjectionError(ValueError):
    """Inverse projection has no well-conditioned solution for this input."""


class Method(enum.Enum):
    VANILLA = "vanilla"
    MG = "mg"
    PMG = "pmg"
    RPMG = "rpmg"


METHOD_BY_NAME = {m.value: m for m in Method}


@dataclass(frozen=True)
class RpmgParams:
    """Backward-pass configuration: method plus regularization weight.

    ``lam`` must lie in [0, 1] and only affects the RPMG method; MG and PMG
    are documented aliases for lam = 1 and lam = 0 (bit-identical outputs).
    """
    method: Method = Method.RPMG
    lam: float = 0.01

    def __post_init__(self):
        if not 0.0 <= self.lam <= 1.0:
            raise ValueError(f"lam must lie in [0, 1], got {self.lam}")


def map_quat_to_10d(q) -> np.ndarray:
    """Ambient 10-vector whose projection recovers the unit quaternion q.

    Returns the packed parameters of I - q q^T, whose smallest eigenvalue is
    0 with eigenvector exactly q (either sign gives the same matrix).
    """
    q = np.asarray(q, dtype=np.float64)
    return embed(ManifoldPoint(RepKind.TEN_D, q))


def constraint_rows(q) -> np.ndarray:
    """4x10 matrix M with M @ theta == sym4_from_params(theta) @ q for all theta."""
    q0, q1, q2, q3 = (float(v) for v in q)
    return np.array([
        [q0, q1, q2, q3, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
        [0.0, q0, 0.0, 0.0, q1, q2, q3, 0.0, 0.0, 0.0],
        [0.0, 0.0, q0, 0.0, 0.0, q1, 0.0, q2, q3, 0.0],
        [0.0, 0.0, 0.0, q0, 0.0, 0.0, q1, 0.0, q2, q3],
    ])


def _kkt_block(q: np.ndarray) -> np.ndarray:
    """Upper-right 10x4 block of the inverse of [[I, M^T], [M, 0]].

    Obtained by solving the 14x14 system against the four basis vectors
    selecting the constraint rows; analytically equals M^T (M M^T)^{-1}.
    """
    m = constraint_rows(q)
    kkt = np.zeros((14, 14))
    kkt[:10, :10] = np.eye(10)
    kkt[:10, 10:] = m.T
    kkt[10:, :10] = m
    rhs = np.zeros((14, 4))
    rhs[10:, :] = np.eye(4)
    return lin_core.solve_columns(kkt, rhs)[:10, :]


def inverse_project(rep: RepKind, x, r_g) -> np.ndarray:
    """Closest point to x within the inverse image of the goal rotation.

    The sign and ordering constraints that pin down the exact inverse images
    are relaxed to their linear/affine supersets (scale may be negative, the
    10-dim eigenvalue need not be the smallest), so far from the goal the
    result can leave the true inverse image; near it the relaxation is tight.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (rep.ambient_dim,) or not np.isfinite(x).all():
        raise ValueError(f"{rep.value}: need a finite ({rep.ambient_dim},) vector")
    r_g = np.asarray(r_g, dtype=np.float64)

    if rep is RepKind.QUAT4:
        q = so3.rot_to_quat(r_g)
        if float(x @ q) < 0.0:  # nearer sheet of the double cover
            q = -q
        return float(x @ q) * q

    if rep is RepKind.SIX_D:
        u, v = x[:3], x[3:]
        u_g, v_g = r_g[:, 0], r_g[:, 1]
        return np.concatenate([
            float(u @ u_g) * u_g,
            float(v @ u_g) * u_g + float(v @ v_g) * v_g,
        ])

    if rep is RepKind.NINE_D:
        m = x.reshape(3, 3)
        s = 0.5 * (m @ r_g.T + r_g @ m.T)
        return (s @ r_g).reshape(9)

    if rep is RepKind.TEN_D:
        q = so3.rot_to_quat(r_g)
        k = _kkt_block(q)
        s = k @ q
        t = k @ (sym4_from_params(x) @ q)
        ss = float(s @ s)
        if ss < _MIN_DIRECTION_SQ:
            raise DegenerateProjectionError(
                f"projection direction has squared norm {ss:.3e}")
        lam_eig = float(s @ t) / ss
        return x + lam_eig * s - t

    raise ValueError(f"{rep.value} has no manifold inverse image")


def _embed_goal(rep: RepKind, x: np.ndarray, r_g: np.ndarray) -> np.ndarray:
    if rep is RepKind.QUAT4:
        q = so3.rot_to_quat(r_g)
        return -q if float(x @ q) < 0.0 else q
    if rep is RepKind.TEN_D:
        return map_quat_to_10d(so3.rot_to_quat(r_g))
    return embed(representation_map(r_g, rep))


def rpmg_gradient(rep: RepKind, x, r, loss: LossKind, tau: float,
                  params: RpmgParams) -> np.ndarray:
    """Ambient gradient emitted for one sample.

    ``r`` must be the rotation the forward pass produced from ``x`` (passed
    in to avoid recomputing the projection).  Vanilla delegates to the plain
    chain rule and works for all six representations; the manifold methods
    require a representation with a nontrivial projection.
    """
    x = np.asarray(x, dtype=np.float64)
    r = np.asarray(r, dtype=np.float64)
    dl_dr = euclid_grad(loss, r)
    if params.method is Method.VANILLA:
        return baseline_backward(rep, x, dl_dr)
    if rep not in MANIFOLD_REPS:
        raise ValueError(f"{rep.value} supports only the vanilla method")

    phi = riemannian_grad(r, dl_dr)
    r_g = goal_rotation(r, phi, tau)
    x_hat_g = _embed_goal(rep, x, r_g)
    if params.method is Method.MG or (params.method is Method.RPMG and params.lam == 1.0):
        return x - x_hat_g
    x_gp = inverse_project(rep, x, r_g)
    if params.method is Method.PMG or params.lam == 0.0:
        return x - x_gp
    return x - x_gp + params.lam * (x_gp - x_hat_g)


# ---------------------------------------------------------------------------
# Batched route used by the trainer, for every loss in LOSS_NAMES.  Semantics
# are pinned to the per-sample functions above by equality tests.

def _constraint_rows_batch(qs: np.ndarray) -> np.ndarray:
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


def _goal_terms_batch(rep: RepKind, xs: np.ndarray, r_g: np.ndarray):
    """(x_hat_g, x_gp) for a batch of goal rotations."""
    if rep is RepKind.QUAT4:
        q = so3._rot_to_quat_batch(r_g)
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

    q = so3._rot_to_quat_batch(r_g)
    outer = q[:, :, None] * q[:, None, :]
    idx = np.array(_SYM4_INDEX)
    x_hat = (np.eye(4) - outer)[:, idx[:, 0], idx[:, 1]]
    m = _constraint_rows_batch(q)
    mt = m.transpose(0, 2, 1)
    rhs = np.stack([q, np.einsum('bij,bj->bi', _sym4_batch(xs), q)], axis=2)
    w = np.linalg.solve(m @ mt, rhs)
    st = mt @ w
    s, t = st[:, :, 0], st[:, :, 1]
    ss = np.einsum('bi,bi->b', s, s)
    if (ss < _MIN_DIRECTION_SQ).any():
        raise DegenerateProjectionError("projection direction collapsed in batch")
    lam_eig = np.einsum('bi,bi->b', s, t) / ss
    return x_hat, xs + lam_eig[:, None] * s - t


def rpmg_gradient_batch(rep: RepKind, xs, rs, r_gts, tau: float,
                        params: RpmgParams, loss: str = "l2",
                        points=None) -> np.ndarray:
    """Batched :func:`rpmg_gradient` under any loss of ``LOSS_NAMES``.

    rs must be the forward rotations of xs; r_gts are per-sample targets.
    ``loss`` defaults to the squared-Frobenius loss; flow and chamfer need
    the shared (K, 3) point set ``points`` (see :func:`euclid_grad_batch`).
    Row i equals :func:`rpmg_gradient` under the per-sample loss for
    ``r_gts[i]``.
    """
    xs = np.asarray(xs, dtype=np.float64)
    rs = np.asarray(rs, dtype=np.float64)
    dl = euclid_grad_batch(loss, rs, r_gts, points)
    if params.method is Method.VANILLA:
        return vanilla_backward_batch(rep, xs, dl)
    if rep not in MANIFOLD_REPS:
        raise ValueError(f"{rep.value} supports only the vanilla method")

    c = np.einsum('bji,bjk->bik', rs, dl)
    phi = np.stack([c[:, 2, 1] - c[:, 1, 2],
                    c[:, 0, 2] - c[:, 2, 0],
                    c[:, 1, 0] - c[:, 0, 1]], axis=1)
    r_g = rs @ so3._rodrigues_batch(-tau * phi)
    x_hat, x_gp = _goal_terms_batch(rep, xs, r_g)
    if params.method is Method.MG or (params.method is Method.RPMG and params.lam == 1.0):
        return xs - x_hat
    if params.method is Method.PMG or params.lam == 0.0:
        return xs - x_gp
    return xs - x_gp + params.lam * (x_gp - x_hat)
