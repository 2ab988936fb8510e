"""Unit-vector regression on the sphere with the same backward-pass family.

S^2 is the simplest manifold exercising the whole pipeline: the projection
is a normalization, the exponential map is a plane rotation, and the inverse
image of a unit vector is the ray through it.  The emitted gradient mirrors
the rotation case: step along the sphere toward the target, project the raw
output onto the goal's ray, blend with weight ``lam`` through the rotation
layer's own ``rpmg._blend``.

The route is batched only.  ``train_s2`` and the ``tau-converge-s2`` check
share its goal step, ``_s2_goal_batch``, and its angles, ``_row_angles``.
"""

from __future__ import annotations

import numpy as np

from .representations import DegenerateInputError
from .rpmg import _blend

_NORM_MIN = 1e-8
_SMALL_STEP = 1e-6
_ANTIPODAL_TOL = 1e-12

# step size whose single geodesic step lands on the target in the
# small-angle limit (the tangent gradient has norm 2 sin(theta))
TAU_CONVERGE_S2 = 0.5

def _unit_rows(ys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rows of a (B, 3) array normalized, and their norms.

    A row with an inf or NaN entry, or too close to the origin, raises
    ``DegenerateInputError``.
    """
    finite = np.isfinite(ys).all(axis=1)
    if not finite.all():
        raise DegenerateInputError(f"non-finite raw output at sample {int(np.argmin(finite))}")
    norms = np.linalg.norm(ys, axis=1)
    if np.any(norms <= _NORM_MIN):
        raise DegenerateInputError("raw output too close to the origin to normalize")
    return ys / norms[:, None], norms


def _s2_goal_batch(x_hat: np.ndarray, targets: np.ndarray, tau: float) -> np.ndarray:
    """Goal points of (B, 3) unit rows: the geodesic step along v = -tau *
    2((x_hat . t) x_hat - t), the tangent gradient of ||x_hat - t||^2.

    Antipodal rows (x_hat . t <= -1 + ``_ANTIPODAL_TOL``) take the zero
    gradient, so they are stationary; training jitters past them.
    """
    dots = np.sum(x_hat * targets, axis=1)
    antipodal = dots <= -1.0 + _ANTIPODAL_TOL
    grads = np.where(antipodal[:, None], 0.0, 2.0 * (dots[:, None] * x_hat - targets))
    v = -tau * grads
    theta = np.linalg.norm(v, axis=1)
    small = theta < _SMALL_STEP
    with np.errstate(invalid="ignore", divide="ignore"):
        sinc = np.where(small, 1.0 - theta**2 / 6.0, np.sin(theta) / np.where(theta == 0.0, 1.0, theta))
    return np.cos(theta)[:, None] * x_hat + sinc[:, None] * v


def _s2_gradient_batch(ys: np.ndarray, targets: np.ndarray, tau: float, lam: float) -> np.ndarray:
    """Ambient gradients of raw (B, 3) rows regressing unit targets.

    Normalize, take the goal step, project each row onto its goal's ray and
    blend, g = x - x_gp + lam (x_gp - x_hat_g), through ``rpmg._blend``.
    """
    x_hat, _ = _unit_rows(ys)
    x_hat_g = _s2_goal_batch(x_hat, targets, tau)
    return _blend(ys, x_hat_g, np.sum(ys * x_hat_g, axis=1)[:, None] * x_hat_g, lam)


def _row_angles(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Angles in [0, pi] between the rows of two (B, 3) arrays, accurate at
    both ends."""
    return np.arctan2(np.linalg.norm(np.cross(u, v), axis=1), np.sum(u * v, axis=1))
