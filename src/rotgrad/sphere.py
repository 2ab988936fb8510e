"""Unit-vector regression on the sphere with the same backward-pass family.

S^2 is the simplest manifold exercising the whole pipeline: the projection
is a normalization, the exponential map is a plane rotation, and the inverse
image of a unit vector is the ray through it.  The emitted gradient mirrors
the rotation case: step along the sphere toward the target, project the raw
output onto the goal's ray, blend with weight ``lam`` through the rotation
layer's own ``rpmg._blend``.

``s2_rpmg_gradient`` computes that gradient for one raw vector and is the
reference; ``_s2_gradient_batch`` is its vectorized twin over a training
batch, with the same antipodal handling.
"""

from __future__ import annotations

import math

import numpy as np

from .representations import DegenerateInputError
from .rpmg import _blend

_NORM_MIN = 1e-8
_SMALL_STEP = 1e-6
_ANTIPODAL_TOL = 1e-12

# step size whose single geodesic step lands on the target in the
# small-angle limit (the tangent gradient has norm 2 sin(theta))
TAU_CONVERGE_S2 = 0.5

# stationary antipodal targets produce a zero gradient; training jitters past
# them, but the event is worth counting when it happens
_antipodal_events = 0


def antipodal_event_count() -> int:
    return _antipodal_events


def reset_antipodal_event_count() -> None:
    global _antipodal_events
    _antipodal_events = 0


def s2_map(x) -> np.ndarray:
    """Normalize a raw 3-vector onto the unit sphere."""
    x = np.asarray(x, dtype=np.float64)
    n = float(np.linalg.norm(x))
    if n <= _NORM_MIN:
        raise DegenerateInputError(f"vector norm {n:.3e} below {_NORM_MIN:.0e}")
    return x / n


def s2_exp(x_hat, v) -> np.ndarray:
    """Geodesic step on the sphere: cos(|v|) x_hat + sin(|v|) v/|v|.

    ``v`` must be tangent at ``x_hat``; the arc length of the step equals
    |v|.  A series branch keeps the map smooth through v = 0.
    """
    x_hat = np.asarray(x_hat, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    t2 = float(v @ v)
    t = math.sqrt(t2)
    if t < _SMALL_STEP:
        if t2 == 0.0:
            return x_hat.copy()
        # second-order series; the norm error it leaves is O(t^4)
        return (1.0 - t2 / 2.0) * x_hat + (1.0 - t2 / 6.0) * v
    return math.cos(t) * x_hat + (math.sin(t) / t) * v


def s2_riemannian_grad(x_hat, x_hat_gt) -> np.ndarray:
    """Tangent gradient of ||x_hat - x_hat_gt||^2 at x_hat on the sphere.

    Equals the ambient gradient projected onto the tangent plane,
    2((x_hat . x_hat_gt) x_hat - x_hat_gt), independent of any tangent basis
    choice.  Antipodal targets are stationary: the result is zero and a
    diagnostic counter is bumped.
    """
    global _antipodal_events
    x_hat = np.asarray(x_hat, dtype=np.float64)
    x_hat_gt = np.asarray(x_hat_gt, dtype=np.float64)
    dot = float(x_hat @ x_hat_gt)
    if dot <= -1.0 + _ANTIPODAL_TOL:
        _antipodal_events += 1
        return np.zeros(3)
    return 2.0 * (dot * x_hat - x_hat_gt)


def s2_rpmg_gradient(x, x_hat_gt, tau: float, lam: float) -> np.ndarray:
    """Ambient gradient for a raw 3-vector regressing a unit target.

    Pipeline: normalize, step the sphere toward the target by ``tau`` times
    the tangent gradient, project x onto the goal's ray, blend:

        g = x - x_gp + lam * (x_gp - x_hat_g)

    through :func:`rotgrad.rpmg._blend`, so lam = 1 and lam = 0 give the
    plain and projective manifold gradients exactly.
    """
    x = np.asarray(x, dtype=np.float64)
    x_hat = s2_map(x)
    grad = s2_riemannian_grad(x_hat, x_hat_gt)
    x_hat_g = s2_exp(x_hat, -tau * grad)
    return _blend(x, x_hat_g, float(x @ x_hat_g) * x_hat_g, lam)


def _unit_rows(ys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rows of a (B, 3) array normalized, and their norms."""
    norms = np.linalg.norm(ys, axis=1)
    if np.any(norms <= _NORM_MIN):
        raise DegenerateInputError("raw output too close to the origin to normalize")
    return ys / norms[:, None], norms


def _s2_gradient_batch(ys: np.ndarray, targets: np.ndarray, tau: float, lam: float) -> np.ndarray:
    """Vectorized :func:`s2_rpmg_gradient` over rows of (B, 3) arrays.

    Antipodal rows get the zero tangent gradient and bump the event counter
    once each, as in :func:`s2_riemannian_grad`.
    """
    global _antipodal_events
    x_hat, _ = _unit_rows(ys)
    dots = np.sum(x_hat * targets, axis=1)
    antipodal = dots <= -1.0 + _ANTIPODAL_TOL
    _antipodal_events += int(np.count_nonzero(antipodal))
    grads = np.where(antipodal[:, None], 0.0, 2.0 * (dots[:, None] * x_hat - targets))
    v = -tau * grads
    theta = np.linalg.norm(v, axis=1)
    small = theta < _SMALL_STEP
    with np.errstate(invalid="ignore", divide="ignore"):
        sinc = np.where(small, 1.0 - theta**2 / 6.0, np.sin(theta) / np.where(theta == 0.0, 1.0, theta))
    x_hat_g = np.cos(theta)[:, None] * x_hat + sinc[:, None] * v
    return _blend(ys, x_hat_g, np.sum(ys * x_hat_g, axis=1)[:, None] * x_hat_g, lam)


def angle_between(u, v) -> float:
    """Angle between two nonzero 3-vectors, in [0, pi], stable at both ends."""
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    return math.atan2(float(np.linalg.norm(np.cross(u, v))), float(u @ v))
