"""Losses on SO(3) and the Riemannian gradient-descent step.

The update never differentiates through a projection: the Euclidean loss
gradient dL/dR is projected onto the tangent space at R (components along the
body-frame generators R @ hat(e_k)) and one geodesic step of size tau gives
the goal rotation.

For losses whose Riemannian gradient norm is proportional to the distance to
the optimum there is a closed-form converging step size ``tau_converge_for``:
1/4 for the squared-Frobenius loss, 1/2 for the squared-geodesic loss.  Point
losses (flow, chamfer) have no such constant: ``tau_converge_for`` raises
``NoAnalyticTauError`` for them, and the harness trains them under
``tau="auto"`` at fixed presets (``harness.DEFAULT_TAU_BY_LOSS``).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np

from . import so3


# the point-set size cap shared by Flow, Chamfer and euclid_grad_batch
_MAX_POINTS = 4096

# beyond this angle from its target a rotation counts as on the cut locus
_CUT_LOCUS = math.pi - 1e-9

# euclid_grad_batch splits a chamfer batch so that the distance tables it
# builds at once hold at most this many entries
_CHAMFER_CHUNK = 1 << 22


class NoAnalyticTauError(ValueError):
    """Requested the closed-form converging step size of a loss that has none."""


class CutLocusError(ValueError):
    """The squared-geodesic gradient is undefined: the rotation sits at angle
    pi from its target, where every direction descends equally."""


@dataclass(frozen=True)
class L2Frobenius:
    """L(R) = ||R - r_gt||_F^2."""
    r_gt: np.ndarray


@dataclass(frozen=True)
class GeodesicSquared:
    """L(R) = d(R, r_gt)^2 with d the geodesic (angular) distance."""
    r_gt: np.ndarray


@dataclass(frozen=True)
class Flow:
    """L(R) = ||R X - r_gt X||_F^2 over a canonical point set X (3, N)."""
    r_gt: np.ndarray
    points: np.ndarray
    gram: np.ndarray = field(default=None, repr=False)  # X X^T, cached

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=np.float64)
        if pts.ndim != 2 or pts.shape[0] != 3 or pts.shape[1] > _MAX_POINTS:
            raise ValueError(f"flow points must be (3, N<={_MAX_POINTS}), got {pts.shape}")
        object.__setattr__(self, 'points', pts)
        object.__setattr__(self, 'gram', pts @ pts.T)


@dataclass(frozen=True)
class Chamfer:
    """Symmetric Chamfer distance between ``canonical`` and R^T @ observed.

    Both point sets are (N, 3) with N <= 4096; correspondences are recomputed
    at every evaluation and held fixed inside the subgradient.
    """
    canonical: np.ndarray
    observed: np.ndarray

    def __post_init__(self):
        for name in ("canonical", "observed"):
            pts = np.asarray(getattr(self, name), dtype=np.float64)
            if pts.ndim != 2 or pts.shape[1] != 3 or pts.shape[0] > _MAX_POINTS:
                raise ValueError(f"chamfer {name} must be (N<={_MAX_POINTS}, 3), got {pts.shape}")
            object.__setattr__(self, name, pts)


LossKind = Union[L2Frobenius, GeodesicSquared, Flow, Chamfer]

# the trainer's loss names and the class each one builds
_LOSS_CLASSES = {"l2": L2Frobenius, "geodesic": GeodesicSquared, "flow": Flow, "chamfer": Chamfer}
LOSS_NAMES = tuple(_LOSS_CLASSES)


def loss_class(name: str) -> type:
    """The loss class a trainer loss name builds; an unknown name raises ValueError."""
    if name not in _LOSS_CLASSES:
        raise ValueError(f"unknown loss {name!r}; expected one of {LOSS_NAMES}")
    return _LOSS_CLASSES[name]


def make_loss(name: str, r_gt, points=None) -> LossKind:
    """The per-sample loss a name, a target and a shared point set define.

    ``points`` is the (K, 3) point set that flow and chamfer need: flow uses
    ``points.T`` as its point set, chamfer matches ``points`` against
    ``points @ r_gt.T``.  l2 and geodesic ignore it.
    """
    cls = loss_class(name)
    if cls is Flow:
        return Flow(r_gt, points.T)
    if cls is Chamfer:
        return Chamfer(points, points @ r_gt.T)
    return cls(r_gt)


def _sq_dists(z: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Squared distances (..., K, M) between rows of z (K, 3) and y (..., M, 3),
    one coordinate at a time: (dx^2 + dy^2) + dz^2, numpy's order for a length-3 axis."""
    d = z[:, None, 0] - y[..., None, :, 0]
    d2 = d * d
    for c in (1, 2):
        d = np.subtract(z[:, None, c], y[..., None, :, c], out=d)
        d *= d
        d2 += d
    return d2


def _chamfer_pairs(loss: Chamfer, r: np.ndarray):
    """Nearest-neighbor matches between canonical Z and back-rotated observations."""
    y = loss.observed @ r  # row j is r^T @ observed[j]
    d2 = _sq_dists(loss.canonical, y)  # (K, M)
    return y, d2, d2.argmin(axis=1), d2.argmin(axis=0)


def _chamfer_value(d2: np.ndarray, jz: np.ndarray, iy: np.ndarray) -> float:
    """The chamfer loss of a (K, M) distance table and its matches, as
    :func:`_chamfer_pairs` returns them."""
    k, m = d2.shape
    return float(d2[np.arange(k), jz].mean() + d2[iy, np.arange(m)].mean())


def loss_value(loss: LossKind, r) -> float:
    r = np.asarray(r, dtype=np.float64)
    if isinstance(loss, L2Frobenius):
        return float(((r - loss.r_gt) ** 2).sum())
    if isinstance(loss, GeodesicSquared):
        return so3.geodesic_distance(r, loss.r_gt) ** 2
    if isinstance(loss, Flow):
        d = (r - loss.r_gt) @ loss.points
        return float((d * d).sum())
    if isinstance(loss, Chamfer):
        return _chamfer_value(*_chamfer_pairs(loss, r)[1:])
    raise TypeError(f"unknown loss {type(loss).__name__}")


def _euclid_grad(loss: LossKind, r: list, gt: Optional[list] = None) -> list:
    """:func:`euclid_grad` on row-major lists of nine floats: R and, for l2
    and geodesic, the target (read off the loss when ``gt`` is None)."""
    if isinstance(loss, (L2Frobenius, GeodesicSquared)):
        if gt is None:
            gt = so3._rows(loss.r_gt)
        if isinstance(loss, L2Frobenius):
            return [2.0 * (a - b) for a, b in zip(r, gt)]
        theta = so3._geodesic_distance(r, gt)
        if theta > _CUT_LOCUS:
            raise CutLocusError("squared-geodesic gradient is undefined at the cut locus")
        # d/dR of acos((tr(r_gt^T R) - 1) / 2) squared
        factor = 1.0 + theta * theta / 6.0 if theta < 1e-6 else theta / math.sin(theta)
        return [-factor * v for v in gt]
    return euclid_grad(loss, np.reshape(r, (3, 3))).ravel().tolist()


def euclid_grad(loss: LossKind, r) -> np.ndarray:
    """Euclidean gradient dL/dR, treating R as nine free entries."""
    if isinstance(loss, (L2Frobenius, GeodesicSquared)):
        return np.array(_euclid_grad(loss, so3._rows(r))).reshape(3, 3)
    r = np.asarray(r, dtype=np.float64)
    if isinstance(loss, Flow):
        return 2.0 * (r - loss.r_gt) @ loss.gram
    if isinstance(loss, Chamfer):
        y, _, jz, iy = _chamfer_pairs(loss, r)
        k, m = len(loss.canonical), len(loss.observed)
        # each matched term ||z - r^T xobs||^2 contributes -2 xobs (z - y)^T
        e_z = loss.canonical - y[jz]            # (K, 3)
        e_y = loss.canonical[iy] - y            # (M, 3)
        return (-2.0 / k) * loss.observed[jz].T @ e_z + (-2.0 / m) * loss.observed.T @ e_y
    raise TypeError(f"unknown loss {type(loss).__name__}")


def euclid_grad_batch(loss: str, rs, r_gts, points=None) -> np.ndarray:
    """Batched :func:`euclid_grad` over (B, 3, 3) rotations and targets.

    ``loss`` is one of :data:`LOSS_NAMES`.  Row i equals
    ``euclid_grad(make_loss(loss, r_gts[i], points), rs[i])``, with
    ``points`` the shared (K, 3) point set that flow and chamfer need.  A
    geodesic row at the cut locus raises :class:`CutLocusError` naming the
    first such row.
    """
    rs = np.asarray(rs, dtype=np.float64)
    r_gts = np.asarray(r_gts, dtype=np.float64)
    if loss == "l2":
        return 2.0 * (rs - r_gts)
    if loss == "geodesic":
        theta = so3.geodesic_distance_batch(rs, r_gts)
        bad = np.flatnonzero(theta > _CUT_LOCUS)
        if bad.size:
            raise CutLocusError(
                f"squared-geodesic gradient is undefined at the cut locus "
                f"(sample {bad[0]}, angle {theta[bad[0]]!r} rad)")
        small = theta < 1e-6
        factor = np.where(small, 1.0 + theta * theta / 6.0,
                          theta / np.sin(np.where(small, 1.0, theta)))
        return -factor[:, None, None] * r_gts
    if loss not in ("flow", "chamfer"):
        raise ValueError(f"unknown loss {loss!r}; expected one of {LOSS_NAMES}")
    z = np.asarray(points, dtype=np.float64) if points is not None else None
    if z is None or z.ndim != 2 or z.shape[1] != 3 or z.shape[0] > _MAX_POINTS:
        shape = None if z is None else z.shape
        raise ValueError(f"{loss} needs a (N<={_MAX_POINTS}, 3) point set, got {shape}")
    if loss == "flow":
        return 2.0 * (rs - r_gts) @ (z.T @ z)
    # observed[b, j] = r_gt[b] @ z[j]; y[b, j] = r[b]^T @ observed[b, j]
    observed = z @ r_gts.transpose(0, 2, 1)
    y = observed @ rs
    k = len(z)
    out = np.empty_like(rs)
    step = max(1, _CHAMFER_CHUNK // (3 * k * k))
    for lo in range(0, len(rs), step):
        obs, yc = observed[lo:lo + step], y[lo:lo + step]
        d2 = _sq_dists(z, yc)  # (b, K, M)
        jz = (d2.argmin(axis=2) + k * np.arange(len(yc))[:, None]).ravel()  # flat rows matched to z
        iy = d2.argmin(axis=1)
        e_z = z - np.take(yc.reshape(-1, 3), jz, axis=0).reshape(-1, k, 3)
        e_y = z[iy] - yc
        # each matched term ||z - r^T xobs||^2 contributes -2 xobs (z - y)^T
        matched = np.take(obs.reshape(-1, 3), jz, axis=0).reshape(-1, k, 3)
        out[lo:lo + step] = (-2.0 / k) * (np.einsum('bki,bkj->bij', matched, e_z)
                                          + np.einsum('bmi,bmj->bij', obs, e_y))
    return out


def _riemannian_grad(r: list, g: list) -> list:
    """:func:`riemannian_grad` of R and dL/dR given as nine row-major floats:
    the skew part of C = R^T dL/dR, c_ij = sum_k r_ki g_kj."""
    r00, r01, r02, r10, r11, r12, r20, r21, r22 = r
    g00, g01, g02, g10, g11, g12, g20, g21, g22 = g
    return [(r02 * g01 + r12 * g11 + r22 * g21) - (r01 * g02 + r11 * g12 + r21 * g22),
            (r00 * g02 + r10 * g12 + r20 * g22) - (r02 * g00 + r12 * g10 + r22 * g20),
            (r01 * g00 + r11 * g10 + r21 * g20) - (r00 * g01 + r10 * g11 + r20 * g21)]


def riemannian_grad(r, dl_dr) -> np.ndarray:
    """Tangent components of dL/dR at R: phi_k = <dL/dR, R @ hat(e_k)>."""
    return np.array(_riemannian_grad(so3._rows(r), so3._rows(dl_dr)))


def goal_rotation(r, phi_grad, tau: float) -> np.ndarray:
    """One Riemannian gradient-descent step of size tau from R."""
    return so3.exp_so3(r, -tau * np.asarray(phi_grad, dtype=np.float64))


def tau_converge_for(loss) -> float:
    """Step size that lands exactly on the optimum as the error goes to zero."""
    if isinstance(loss, L2Frobenius) or loss is L2Frobenius:
        return 0.25
    if isinstance(loss, GeodesicSquared) or loss is GeodesicSquared:
        return 0.5
    name = loss.__name__ if isinstance(loss, type) else type(loss).__name__
    raise NoAnalyticTauError(f"{name} has no analytic converging step size; supply tau explicitly")


def tau_gt_l2(theta: float) -> float:
    """Exact per-sample step size landing on the target under the squared-
    Frobenius loss at angular error theta: theta / (4 sin theta)."""
    if theta >= math.pi:
        raise ValueError("no finite landing step at the cut locus")
    if theta < 1e-4:
        return 0.25 * (1.0 + theta * theta / 6.0)
    return theta / (4.0 * math.sin(theta))


# the construction-time rules of every entry point; bools pass none of them

def _check_count(name: str, value, minimum: int) -> None:
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool) or value < minimum:
        raise ValueError(f"{name} must be an integer >= {minimum}, got {value!r}")


def _check_positive_real(name: str, value) -> None:
    if not isinstance(value, numbers.Real) or isinstance(value, bool) or not 0.0 < value < math.inf:
        raise ValueError(f"{name} must be a finite positive real, got {value!r}")


def _check_weight(name: str, value) -> None:
    if not isinstance(value, numbers.Real) or isinstance(value, bool) or not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must be a real in [0, 1], got {value!r}")


@dataclass(frozen=True)
class TauSchedule:
    """Staircase ramp from tau_init to tau_converge over total_iters."""
    tau_init: float
    tau_converge: float
    total_iters: int
    n_steps: int = 10

    def __post_init__(self):
        _check_positive_real("tau_init", self.tau_init)
        _check_positive_real("tau_converge", self.tau_converge)
        _check_count("total_iters", self.total_iters, 0)
        _check_count("n_steps", self.n_steps, 1)


def tau_at(schedule: TauSchedule, iteration: int) -> float:
    """Step size at an iteration: piecewise-constant, clamped at tau_converge."""
    if schedule.n_steps == 1 or schedule.total_iters == 0:
        return schedule.tau_converge
    s = (iteration * schedule.n_steps) // schedule.total_iters
    s = min(s, schedule.n_steps - 1)
    tau = schedule.tau_init + s * (schedule.tau_converge - schedule.tau_init) / (schedule.n_steps - 1)
    lo, hi = sorted((schedule.tau_init, schedule.tau_converge))
    return min(max(tau, lo), hi)
