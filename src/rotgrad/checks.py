"""Independent numeric oracles and the named verification checks.

Every closed-form result in the package is re-derived here by a slower,
algorithmically different route (projected gradient descent, finite
differences, brute-force recomputation) and compared against the production
code.  The descent oracle's steps are affine in its iterate, so it takes its
last iterate by repeated squaring of the step map instead of stepping 100,000
times.  The check registry at the bottom powers the ``check`` CLI command;
each check verifies code that the library runs, so ``lin_core`` has none.

Cases are built as arrays: a check takes its random draws in blocks, maps
them with the batched kernels, and reduces its residuals over the stacked
results.  The production function a check verifies (``inverse_project``,
``manifold_map``, ``rpmg_gradient``, ``euclid_grad``, ``baseline_rotation``
and the rest) is still called one case at a time wherever the check
verifies the per-sample route.
"""

from __future__ import annotations

import math
import multiprocessing
import time
from collections import OrderedDict
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Callable, List

import numpy as np

from . import representations as _reps
from . import riemannian as _riem
from . import rpmg as _rpmg
from . import so3
from . import sphere as _sphere
from .representations import MANIFOLD_REPS, DegenerateInputError, RepKind, sym4_from_params
from .riemannian import L2Frobenius
# perfbench's tracer wraps this binding by name; the checks call _riem.euclid_grad
from .riemannian import euclid_grad  # noqa: F401
from .rpmg import Method, RpmgParams
from .sphere import TAU_CONVERGE_S2

_PGD_STEPS = 100_000
_PGD_STEP_SIZE = 1e-3


def _iterate_affine(step_fn: Callable[[np.ndarray], np.ndarray],
                    z0: np.ndarray, steps: int) -> np.ndarray:
    """``steps`` applications of the per-sample affine map ``step_fn`` to z0.

    Each sample's map z -> A z + b is read off ``step_fn`` by probing it at
    0 and at the unit vectors; the ``steps``-th power of the augmented
    matrix [[A, b], [0, 1]] is then applied to [z0; 1] by repeated
    squaring, in about 2 log2(steps) batched products.
    """
    if steps < 0:
        raise ValueError(f"steps must be >= 0, got {steps}")
    n, d = z0.shape
    aug = np.zeros((n, d + 1, d + 1))
    b = step_fn(np.zeros((n, d)))
    aug[:, :d, d] = b
    aug[:, d, d] = 1.0
    for j in range(d):
        e = np.zeros((n, d))
        e[:, j] = 1.0
        aug[:, :d, j] = step_fn(e) - b
    v = np.concatenate([z0, np.ones((n, 1))], axis=1)[:, :, None]
    while steps:
        if steps & 1:
            v = aug @ v
        steps >>= 1
        if steps:
            aug = aug @ aug
    return v[:, :d, 0]


# cases handled at once: attempts drawn by sample_projection_cases, rows
# descended by oracle_inverse_image_batch
_CASE_BLOCK = 256


def oracle_inverse_image_batch(rep: RepKind, xs: np.ndarray, r_gs: np.ndarray,
                               steps: int = _PGD_STEPS,
                               step: float = _PGD_STEP_SIZE) -> np.ndarray:
    """Nearest point to each x over the inverse-image family of its goal.

    Projected gradient descent over the family parameters (scale along the
    quaternion line; three projection coefficients for 6d; a symmetric
    factor for 9d; the linear eigen-feasibility set for 10d).  Each descent
    step is affine in the iterate, so the ``steps``-th iterate is taken by
    repeated squaring of that map (``_iterate_affine``) rather than by
    looping.  Cases are independent and are descended ``_CASE_BLOCK`` at a
    time, which bounds the step matrices held at once; the rows are the
    bits of a whole-stack descent.  Shares no code with the closed forms in
    :mod:`rotgrad.rpmg`.
    """
    xs = np.asarray(xs, dtype=np.float64)
    r_gs = np.asarray(r_gs, dtype=np.float64)
    return np.concatenate([_oracle_block(rep, xs[i:i + _CASE_BLOCK], r_gs[i:i + _CASE_BLOCK],
                                         steps, step)
                           for i in range(0, max(len(xs), 1), _CASE_BLOCK)])


def _oracle_block(rep: RepKind, xs: np.ndarray, r_gs: np.ndarray,
                  steps: int, step: float) -> np.ndarray:
    """``oracle_inverse_image_batch`` of one block of cases."""
    n = xs.shape[0]

    if rep is RepKind.QUAT4:
        q = so3._rot_to_quat_batch(r_gs)
        target = np.einsum('bi,bi->b', xs, q)[:, None]

        def descend(k):
            return k - step * 2.0 * (k - target)

        k = _iterate_affine(descend, np.ones((n, 1)), steps)
        return k * q

    if rep is RepKind.SIX_D:
        u_g, v_g = r_gs[:, :, 0], r_gs[:, :, 1]
        u, v = xs[:, :3], xs[:, 3:]
        target = np.stack([np.einsum('bi,bi->b', u, u_g),
                           np.einsum('bi,bi->b', v, u_g),
                           np.einsum('bi,bi->b', v, v_g)], axis=1)

        def descend(ks):
            return ks - step * 2.0 * (ks - target)

        ks = _iterate_affine(descend, np.tile([1.0, 0.0, 1.0], (n, 1)), steps)
        return np.concatenate([ks[:, :1] * u_g,
                               ks[:, 1:2] * u_g + ks[:, 2:] * v_g], axis=1)

    if rep is RepKind.NINE_D:
        m = xs.reshape(n, 3, 3)
        r_t = np.ascontiguousarray(r_gs.transpose(0, 2, 1))

        def descend(flat):
            s = flat.reshape(n, 3, 3)
            grad = 2.0 * (s @ r_gs - m) @ r_t
            s = s - step * grad
            s = 0.5 * (s + s.transpose(0, 2, 1))
            return s.reshape(n, 9)

        s = _iterate_affine(descend, np.tile(np.eye(3).ravel(), (n, 1)), steps)
        return (s.reshape(n, 3, 3) @ r_gs).reshape(n, 9)

    if rep is RepKind.TEN_D:
        q = so3._rot_to_quat_batch(r_gs)
        # eigen-feasibility constraint rows derived from the bilinear map
        # itself: column j of C is A(e_j) @ q, the last column is -q
        basis = np.stack([sym4_from_params(np.eye(10)[j]) for j in range(10)])
        c = np.empty((n, 4, 11))
        c[:, :, :10] = np.einsum('jkl,bl->bkj', basis, q)
        c[:, :, 10] = -q
        ct = c.transpose(0, 2, 1)
        # orthogonal projector onto the null space of [M, -q]
        proj = np.tile(np.eye(11), (n, 1, 1)) - ct @ np.linalg.solve(c @ ct, c)
        x_pad = np.concatenate([xs, np.zeros((n, 1))], axis=1)

        def descend(z):
            g = np.zeros_like(z)
            g[:, :10] = 2.0 * (z[:, :10] - xs)
            return np.einsum('bij,bj->bi', proj, z - step * g)

        z = _iterate_affine(descend, np.einsum('bij,bj->bi', proj, x_pad), steps)
        return z[:, :10]

    raise ValueError(f"{rep.value} has no manifold inverse image")


def _row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.einsum('bi,bi->b', a, b)


def _row_norms(a: np.ndarray) -> np.ndarray:
    """Norms of the rows of a (B, d) array, each one ddot as ``np.linalg.norm``
    takes it for one row, so the bits match a per-row loop."""
    return np.sqrt((a[:, None, :] @ a[:, :, None])[:, 0, 0])


def _haar_rotations(g: np.ndarray) -> np.ndarray:
    """Rotations of the normalized rows of a (B, 4) Gaussian block.

    Row for row the bits of ``so3.sample_uniform_rotation`` on the same
    draws.  Unlike it, a row is never redrawn: one of squared norm below
    1e-24 (probability about 1e-49 per row) is normalized like any other.
    """
    return _reps._quat_to_rot_batch(g / _row_norms(g)[:, None])


def _embedded(rep: RepKind, rs: np.ndarray) -> np.ndarray:
    """``embed(representation_map(r, rep))`` over a (B, 3, 3) stack."""
    if rep is RepKind.SIX_D:
        return np.concatenate([rs[:, :, 0], rs[:, :, 1]], axis=1)
    if rep is RepKind.NINE_D:
        return rs.reshape(-1, 9)
    if rep not in (RepKind.QUAT4, RepKind.TEN_D):
        raise ValueError(f"{rep.value} has no manifold inverse image")
    q = so3._rot_to_quat_batch(rs)
    if rep is RepKind.QUAT4:
        return q
    return _reps._EYE4_SYM - q[:, _reps._SYM4_ROWS] * q[:, _reps._SYM4_COLS]  # I - q q^T


def _baseline_rotations(rep: RepKind, xs: np.ndarray):
    """Batched ``baseline_rotation`` of the rows of xs, and a mask of the
    rows it could map.  A degenerate row gets the identity and a False
    entry instead of aborting the others."""
    try:
        return _reps.rotations_from_raw(rep, xs), np.ones(len(xs), dtype=bool)
    except DegenerateInputError:
        pass
    rs = np.tile(np.eye(3), (len(xs), 1, 1))
    ok = np.zeros(len(xs), dtype=bool)
    for i, x in enumerate(xs):
        try:
            rs[i] = _reps.rotations_from_raw(rep, x[None])[0]
            ok[i] = True
        except DegenerateInputError:
            pass
    return rs, ok


def sample_projection_cases(rep: RepKind, n: int, seed: int,
                            max_ambient_angle: float = math.pi / 3,
                            goal_step: float = 0.5):
    """Seeded raw outputs paired with nearby goal rotations.

    Raw vectors are noisy scalings of embedded manifold points; goals sit
    within ``goal_step`` radians of the forward rotation.  Pairs are kept
    only when the ambient angle between x and the embedded goal stays below
    ``max_ambient_angle``, the regime the closed-form projections target.

    Attempts are drawn ``_CASE_BLOCK`` at a time and mapped with the
    batched kernels; kept pairs stay in draw order, so the cases for a
    smaller ``n`` are a prefix of those for a larger one.  A raw vector the
    forward map rejects is skipped.
    """
    rng = np.random.default_rng(seed)
    xs, r_gs, kept = [np.empty((0, rep.ambient_dim))], [np.empty((0, 3, 3))], 0
    while kept < n:
        r0 = _haar_rotations(rng.standard_normal((_CASE_BLOCK, 4)))
        x = rng.uniform(0.5, 2.0, (_CASE_BLOCK, 1)) * _embedded(rep, r0)
        x += rng.normal(0.0, 0.3, x.shape)
        delta = rng.standard_normal((_CASE_BLOCK, 3))
        delta *= (rng.uniform(0.0, goal_step, (_CASE_BLOCK, 1))
                  / np.linalg.norm(delta, axis=1, keepdims=True))
        r, ok = _baseline_rotations(rep, x)
        r_g = r @ so3._rodrigues_batch(delta)
        x_hat_g = _embedded(rep, r_g)
        cos = _row_dots(x, x_hat_g) / (np.linalg.norm(x, axis=1) * np.linalg.norm(x_hat_g, axis=1))
        ok &= np.arccos(np.clip(cos, -1.0, 1.0)) < max_ambient_angle
        xs.append(x[ok])
        r_gs.append(r_g[ok])
        kept += int(np.count_nonzero(ok))
    return np.concatenate(xs)[:n], np.concatenate(r_gs)[:n]

# ---------------------------------------------------------------------------
# Named checks.  Each returns a CheckResult with the measured residual so a
# failure report carries numbers, not just a verdict.  Production entry
# points are resolved through their modules at call time, so a test can
# swap in a broken implementation and watch the right check fail.

TOL_PROJECTION_EXCESS = 1e-4
TOL_MEMBERSHIP = 1e-8
TOL_GRAD_REL = 1e-6
TOL_VANILLA_FD = 1e-6
TOL_GRAD_CHAMFER = 1e-3
TOL_HAND_CASE = 1e-9
TOL_GOAL_DIRECTION = 1e-8
TOL_ROUND_TRIP = 1e-8
TOL_IDENTITY = 1e-9
TOL_LIN_RECON = 1e-8
TOL_LIN_ORTH = 1e-9


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one named check.

    ``measured`` is the headline number the verdict was decided on (usually
    a worst-case residual); ``error`` marks a check that raised instead of
    measuring, which callers report as a numeric failure rather than a
    plain check failure.  ``seconds`` is the check's wall time, filled in
    by :func:`run_checks`; it takes no part in equality or the repr, so two
    runs of the same arithmetic compare equal.
    """
    name: str
    passed: bool
    detail: str
    error: bool = False
    measured: float = float("nan")
    seconds: float = field(default=float("nan"), compare=False, repr=False)

    def __post_init__(self):
        # verdicts computed with numpy arrive as numpy.bool_ / numpy.float64
        object.__setattr__(self, "passed", bool(self.passed))
        object.__setattr__(self, "measured", float(self.measured))


def membership_residual(rep: RepKind, x_gp: np.ndarray, r_g: np.ndarray) -> np.ndarray:
    """How far each row of x_gp (B, dim) is from the relaxed inverse image
    of its goal in r_g (B, 3, 3), measured by the defining constraint of
    each family: the (B,) residuals."""
    x_gp = np.asarray(x_gp, dtype=np.float64)
    r_g = np.asarray(r_g, dtype=np.float64)
    if rep is RepKind.QUAT4:
        q = so3._rot_to_quat_batch(r_g)
        return np.linalg.norm(x_gp - _row_dots(x_gp, q)[:, None] * q, axis=1)
    if rep is RepKind.SIX_D:
        u, v = x_gp[:, :3], x_gp[:, 3:]
        u_g, v_g = r_g[:, :, 0], r_g[:, :, 1]
        ru = u - _row_dots(u, u_g)[:, None] * u_g
        rv = v - _row_dots(v, u_g)[:, None] * u_g - _row_dots(v, v_g)[:, None] * v_g
        return np.maximum(np.linalg.norm(ru, axis=1), np.linalg.norm(rv, axis=1))
    if rep is RepKind.NINE_D:
        a = x_gp.reshape(-1, 3, 3) @ r_g.transpose(0, 2, 1)
        return np.linalg.norm(a - a.transpose(0, 2, 1), axis=(1, 2))
    if rep is RepKind.TEN_D:
        q = so3._rot_to_quat_batch(r_g)
        aq = np.einsum('bij,bj->bi', _reps._sym4_batch(x_gp), q)
        return np.linalg.norm(aq - _row_dots(q, aq)[:, None] * q, axis=1)
    raise ValueError(f"{rep.value} has no manifold inverse image")


def _closed_forms(rep: RepKind, xs: np.ndarray, r_gs: np.ndarray) -> np.ndarray:
    """``inverse_project`` of every case, one call per case."""
    return np.array([_rpmg.inverse_project(rep, x, r_g) for x, r_g in zip(xs, r_gs)])


def check_projection_optimality(rep: RepKind, n: int = 1000, seed: int = 101) -> CheckResult:
    """Closed-form projection must not lose to the descent oracle."""
    name = f"projection-optimality-{rep.value}"
    xs, r_gs = sample_projection_cases(rep, n, seed)
    closed = _closed_forms(rep, xs, r_gs)
    oracle = oracle_inverse_image_batch(rep, xs, r_gs)
    d_closed = np.linalg.norm(closed - xs, axis=1)
    d_oracle = np.linalg.norm(oracle - xs, axis=1)
    excess = float(np.max(d_closed - d_oracle))
    return CheckResult(name, excess <= TOL_PROJECTION_EXCESS,
                       f"max distance excess over descent oracle {excess:.3e} "
                       f"(tol {TOL_PROJECTION_EXCESS:.0e}, n={n})",
                       measured=excess)


def check_projection_membership(rep: RepKind, n: int = 1000, seed: int = 151) -> CheckResult:
    """The closed-form projection must land in its goal's relaxed inverse
    image; for 10d, the goal quaternion is an eigenvector of A(x_gp)."""
    name = f"projection-membership-{rep.value}"
    xs, r_gs = sample_projection_cases(rep, n, seed)
    worst = float(np.max(membership_residual(rep, _closed_forms(rep, xs, r_gs), r_gs)))
    return CheckResult(name, worst <= TOL_MEMBERSHIP,
                       f"max constraint residual {worst:.3e} "
                       f"(tol {TOL_MEMBERSHIP:.0e}, n={n})",
                       measured=worst)


def _stencil_steps(h: float) -> np.ndarray:
    """The six rotations exp(s h e_k), k-major, s = +1 then -1; r @ these
    are the bits of ``so3.exp_so3(r, s h e_k)``."""
    return np.array([so3.exp_so3(np.eye(3), s * h * e) for e in np.eye(3) for s in (1.0, -1.0)])


def _chamfer_stencil_values(loss, r: np.ndarray, stencil: np.ndarray):
    """The chamfer values at the stencil rotations, read off the matches that
    test them; None when a nearest-neighbor match flips across the stencil."""
    _, _, jz0, iy0 = _riem._chamfer_pairs(loss, r)
    values = []
    for r_s in stencil:
        _, d2, jz, iy = _riem._chamfer_pairs(loss, r_s)
        if not (np.array_equal(jz, jz0) and np.array_equal(iy, iy0)):
            return None
        values.append(_riem._chamfer_value(d2, jz, iy))
    return values


def check_gradient_fd(loss_name: str, n: int = 100, seed: int = 211) -> CheckResult:
    """Tangent gradient against a central difference of the loss value."""
    name = f"gradient-fd-{loss_name}"
    rng = np.random.default_rng(seed)
    h = 1e-6 if loss_name != "chamfer" else 1e-3
    tol = TOL_GRAD_CHAMFER if loss_name == "chamfer" else TOL_GRAD_REL
    steps = _stencil_steps(h)
    phis, phi_fds = [], []
    attempts = 0
    while len(phis) < n:
        attempts += 1
        if attempts > 50 * n:
            return CheckResult(name, False,
                               f"only {len(phis)}/{n} stable cases found", error=True)
        r = so3.sample_uniform_rotation(rng)
        axis = rng.standard_normal(3)
        axis /= np.linalg.norm(axis)
        r_gt = so3.exp_so3(r, rng.uniform(0.2, 2.9) * axis)
        points = None
        if loss_name == "flow":
            points = rng.uniform(-1.0, 1.0, (3, 32)).T
        elif loss_name == "chamfer":
            points = rng.uniform(-1.0, 1.0, (64, 3))
        loss = _riem.make_loss(loss_name, r_gt, points)
        stencil = r @ steps
        values = (_chamfer_stencil_values(loss, r, stencil) if loss_name == "chamfer"
                  else [_riem.loss_value(loss, r_s) for r_s in stencil])
        if values is None:
            continue
        values = np.array(values)
        phis.append(_riem.riemannian_grad(r, _riem.euclid_grad(loss, r)))
        phi_fds.append((values[0::2] - values[1::2]) / (2.0 * h))
    phis, phi_fds = np.array(phis), np.array(phi_fds)
    rel = np.linalg.norm(phi_fds - phis, axis=1) / np.maximum(1.0, np.linalg.norm(phis, axis=1))
    worst = float(np.max(rel))
    return CheckResult(name, worst <= tol,
                       f"max relative FD residual {worst:.3e} (tol {tol:.0e}, n={n})",
                       measured=worst)


def _vanilla_fd_cases(rng, n: int):
    """n raw 9d and n raw 10d vectors with the hard regimes included.

    9d: half of the matrices have det < 0, where the projection flips the
    last singular direction.  10d: half have their smallest eigengap drawn
    from [5e-4, 2e-3], where the eigenvector derivative grows like 1/gap.
    """
    m = rng.standard_normal((n, 3, 3))
    want = np.where(np.arange(n) < n // 2, -1.0, 1.0)
    m[:, 0] *= (np.sign(np.linalg.det(m)) * want)[:, None]
    a = rng.standard_normal((n, 4, 4))
    a = 0.5 * (a + a.transpose(0, 2, 1))
    vecs = np.linalg.qr(rng.standard_normal((n // 2, 4, 4)))[0]
    lam = np.cumsum(np.concatenate([rng.normal(0.0, 1.0, (n // 2, 1)),
                                    rng.uniform(5e-4, 2e-3, (n // 2, 1)),
                                    rng.uniform(0.2, 2.0, (n // 2, 2))], axis=1), axis=1)
    a[:n // 2] = vecs @ (lam[:, :, None] * vecs.transpose(0, 2, 1))
    return {RepKind.NINE_D: m.reshape(n, 9),
            RepKind.TEN_D: a[:, _reps._SYM4_ROWS, _reps._SYM4_COLS]}


def _forward_map_fd(rep: RepKind, xs: np.ndarray, ws: np.ndarray, h: float) -> np.ndarray:
    """Central difference of <W, R(x)> over every raw coordinate."""
    n, dim = xs.shape
    step = h * np.eye(dim)
    pert = np.concatenate([xs[:, None] + step, xs[:, None] - step], axis=1)
    rs = _reps.rotations_from_raw(rep, pert.reshape(-1, dim)).reshape(n, 2, dim, 3, 3)
    return np.einsum('bij,bkij->bk', ws, rs[:, 0] - rs[:, 1]) / (2.0 * h)


def check_vanilla_backward_fd(n: int = 100, seed: int = 853) -> CheckResult:
    """Closed-form 9d/10d chain rule against differences of the forward map,
    for L(R) = <W, R> with a random W per case.

    The oracle is the Richardson extrapolation of central differences at h
    and h/2 (fourth order): at eigengaps near 1e-3 a plain central
    difference at h = 1e-6 is itself off by about 1e-4.
    """
    name = "vanilla-backward-fd"
    h = 1e-6
    rng = np.random.default_rng(seed)
    worst = 0.0
    for rep, xs in _vanilla_fd_cases(rng, n).items():
        ws = rng.standard_normal((n, 3, 3))
        got = _reps.vanilla_backward_batch(rep, xs, ws)
        fd = (4.0 * _forward_map_fd(rep, xs, ws, h / 2) - _forward_map_fd(rep, xs, ws, h)) / 3.0
        rel = np.linalg.norm(got - fd, axis=1) / np.maximum(1.0, np.linalg.norm(fd, axis=1))
        worst = max(worst, float(np.max(rel)))
    return CheckResult(name, worst <= TOL_VANILLA_FD,
                       f"max relative FD residual {worst:.3e} over 9d and 10d "
                       f"(tol {TOL_VANILLA_FD:.0e}, n={n} per rep)",
                       measured=worst)


def check_gradient_hand_case() -> CheckResult:
    """At R = I with target rot_z(theta) the squared-Frobenius tangent
    gradient is (0, 0, -4 sin theta) exactly."""
    name = "gradient-hand-case"
    worst = 0.0
    for theta in np.linspace(0.05, 3.1, 62):
        dl_dr = _riem.euclid_grad(L2Frobenius(so3.rot_z(theta)), np.eye(3))
        phi = _riem.riemannian_grad(np.eye(3), dl_dr)
        worst = max(worst, float(np.max(np.abs(phi - [0.0, 0.0, -4.0 * math.sin(theta)]))))
    return CheckResult(name, worst <= TOL_HAND_CASE,
                       f"max deviation from (0, 0, -4 sin theta): {worst:.3e} "
                       f"(tol {TOL_HAND_CASE:.0e})",
                       measured=worst)


_TAU_LEMMA_THETAS = (1e-2, 1e-3, 1e-4)


def check_tau_converge(loss_name: str, n: int = 50, seed: int = 307) -> CheckResult:
    """One step at the converging step size lands within theta^3 of the target."""
    name = f"tau-converge-{loss_name}"
    cls = _riem.loss_class(loss_name)
    tau = _riem.tau_converge_for(cls)
    thetas = np.repeat(_TAU_LEMMA_THETAS, n).tolist()
    # per case: the quaternion draw of r, then the draw its axis is made from
    draws = np.random.default_rng(seed).standard_normal((len(thetas), 7))
    rs = _haar_rotations(draws[:, :4])
    axes = draws[:, 4:] / _row_norms(draws[:, 4:])[:, None]
    worst_ratio = 0.0
    for theta, r, axis in zip(thetas, rs, axes):
        r_gt = so3.exp_so3(r, theta * axis)
        phi = _riem.riemannian_grad(r, _riem.euclid_grad(cls(r_gt), r))
        resid = so3.geodesic_distance(_riem.goal_rotation(r, phi, tau), r_gt)
        worst_ratio = max(worst_ratio, resid / theta ** 3)
    return CheckResult(name, worst_ratio <= 1.0,
                       f"max residual / theta^3 = {worst_ratio:.3e} over "
                       f"theta in {_TAU_LEMMA_THETAS} (tau={tau})",
                       measured=worst_ratio)


def check_tau_converge_s2(n: int = 50, seed: int = 311) -> CheckResult:
    """One goal step of ``train_s2``'s kernel at TAU_CONVERGE_S2 lands within
    theta^3 of a target theta away."""
    name = "tau-converge-s2"
    thetas = np.repeat(_TAU_LEMMA_THETAS, n)
    # per case: a start y, then the draw its rotation axis is made from
    ys, draws = np.moveaxis(np.random.default_rng(seed).standard_normal((len(thetas), 2, 3)), 1, 0)
    ys /= np.linalg.norm(ys, axis=1, keepdims=True)
    axes = np.cross(ys, draws)
    axes /= np.linalg.norm(axes, axis=1, keepdims=True)
    ts = (so3._rodrigues_batch(thetas[:, None] * axes) @ ys[:, :, None])[:, :, 0]
    landed = _sphere._s2_goal_batch(ys, ts, TAU_CONVERGE_S2)
    worst_ratio = float(np.max(_sphere._row_angles(landed, ts) / thetas ** 3))
    return CheckResult(name, worst_ratio <= 1.0,
                       f"max residual / theta^3 = {worst_ratio:.3e} over "
                       f"theta in {_TAU_LEMMA_THETAS} (tau={TAU_CONVERGE_S2})",
                       measured=worst_ratio)


def _relative_quat_vectors(r1s: np.ndarray, r2s: np.ndarray) -> np.ndarray:
    """Vector parts of the canonical quaternions of r1^T r2, row by row:
    ``so3.log_so3(r1, r2)`` is a positive multiple of each."""
    return so3._rot_to_quat_batch(np.einsum('bji,bjk->bik', r1s, r2s))[:, 1:]


def check_goal_direction(n: int = 1000, seed: int = 401) -> CheckResult:
    """The squared-Frobenius descent step leaves along the geodesic to the
    target: log_R(R_g) and log_R(R_gt) must be parallel."""
    name = "goal-direction-l2"
    rng = np.random.default_rng(seed)
    draws = rng.standard_normal((n, 7))
    rs = _haar_rotations(draws[:, :4])
    axes = draws[:, 4:] / np.linalg.norm(draws[:, 4:], axis=1, keepdims=True)
    r_gts = rs @ so3._rodrigues_batch(rng.uniform(0.1, 3.0, (n, 1)) * axes)
    tau = _riem.tau_converge_for(L2Frobenius)
    r_gs = np.array([
        _riem.goal_rotation(r, _riem.riemannian_grad(r, _riem.euclid_grad(L2Frobenius(r_gt), r)), tau)
        for r, r_gt in zip(rs, r_gts)])
    u, w = _relative_quat_vectors(rs, r_gs), _relative_quat_vectors(rs, r_gts)
    cos = _row_dots(u, w) / (np.linalg.norm(u, axis=1) * np.linalg.norm(w, axis=1))
    worst = float(np.max(1.0 - cos))
    return CheckResult(name, worst <= TOL_GOAL_DIRECTION,
                       f"max 1 - cosine(step, geodesic) = {worst:.3e} "
                       f"(tol {TOL_GOAL_DIRECTION:.0e}, n={n})",
                       measured=worst)


def check_representation_round_trip(n: int = 1000, seed: int = 449) -> CheckResult:
    name = "representation-round-trip"
    rs = _haar_rotations(np.random.default_rng(seed).standard_normal((n, 4)))
    worst = 0.0
    for rep in MANIFOLD_REPS:
        backs = np.array([
            _reps.baseline_rotation(rep, _reps.embed(_reps.representation_map(r, rep))) for r in rs])
        worst = max(worst, float(np.max(so3.geodesic_distance_batch(backs, rs))))
    return CheckResult(name, worst <= TOL_ROUND_TRIP,
                       f"max round-trip angle {worst:.3e} rad "
                       f"(tol {TOL_ROUND_TRIP:.0e}, n={n} per family)",
                       measured=worst)


def _rep_cases(n: int, seed: int):
    """(rep, xs, r_gs) for every manifold rep: n projection cases each, at
    a seed drawn from ``seed``."""
    seeds = np.random.default_rng(seed).integers(1 << 31, size=len(MANIFOLD_REPS)).tolist()
    return [(rep, *sample_projection_cases(rep, n, rep_seed))
            for rep, rep_seed in zip(MANIFOLD_REPS, seeds)]


def check_lambda_one_equals_mg(n: int = 50, seed: int = 503) -> CheckResult:
    """Full regularization must reproduce the plain manifold gradient bit
    for bit, not merely to rounding."""
    name = "lambda-one-equals-mg"
    mismatches = 0
    for rep, xs, r_gs in _rep_cases(n, seed):
        for x, r_g in zip(xs, r_gs):
            r = _reps.baseline_rotation(rep, x)
            loss = L2Frobenius(r_g)
            g_rpmg = _rpmg.rpmg_gradient(rep, x, r, loss, 0.25,
                                         RpmgParams(Method.RPMG, lam=1.0))
            g_mg = _rpmg.rpmg_gradient(rep, x, r, loss, 0.25,
                                       RpmgParams(Method.MG))
            if not np.array_equal(g_rpmg, g_mg):
                mismatches += 1
    return CheckResult(name, mismatches == 0,
                       f"{mismatches} bitwise mismatches over {n * len(MANIFOLD_REPS)} cases",
                       measured=float(mismatches))


def check_mg_tau_gt_identity(n: int = 200, seed: int = 541) -> CheckResult:
    """At the per-sample landing step size the manifold gradient points
    straight at the embedded target: g = x - embed(target)."""
    name = "mg-tau-gt-identity"
    worst = 0.0
    for rep, xs, r_gts in _rep_cases(n, seed):
        rs = np.array([_reps.baseline_rotation(rep, x) for x in xs])
        thetas = so3.geodesic_distance_batch(rs, r_gts)
        keep = (thetas >= 1e-6) & (thetas <= 3.0)
        xs, rs, r_gts = xs[keep], rs[keep], r_gts[keep]
        gs = np.array([_rpmg.rpmg_gradient(rep, x, r, L2Frobenius(r_gt), _riem.tau_gt_l2(theta),
                                           RpmgParams(Method.MG))
                       for x, r, r_gt, theta in zip(xs, rs, r_gts, thetas[keep].tolist())])
        x_hat_gts = _embedded(rep, r_gts)
        if rep is RepKind.QUAT4:  # the sheet of the double cover nearer x
            x_hat_gts *= np.where(_row_dots(xs, x_hat_gts) < 0.0, -1.0, 1.0)[:, None]
        worst = max(worst, float(np.max(np.abs(gs - (xs - x_hat_gts)))))
    return CheckResult(name, worst <= TOL_IDENTITY,
                       f"max |g - (x - embed(target))| = {worst:.3e} "
                       f"(tol {TOL_IDENTITY:.0e}, n={n} per family)",
                       measured=worst)


def _forward_map_9d_cases(rng, n: int) -> np.ndarray:
    """n raw 3x3 matrices; every fifth, from the first, has column i % 3
    within 1e-9 of column (i + 1) % 3.  One draw for all, in the order of a
    loop that draws each matrix, then its perturbation."""
    near = np.arange(n) % 5 == 0
    sizes = np.where(near, 12, 9)
    z = rng.standard_normal(int(sizes.sum()))
    starts = np.cumsum(sizes) - sizes
    ms = z[starts[:, None] + np.arange(9)].reshape(n, 3, 3)
    i = np.flatnonzero(near)
    ms[i, :, i % 3] = ms[i, :, (i + 1) % 3] + 1e-9 * z[starts[i, None] + np.arange(9, 12)]
    return ms


def check_forward_map_9d(n: int = 1000, seed: int = 701) -> CheckResult:
    """The per-sample 9d map must return the special-orthogonal polar factor.

    R R^T = I and det R = +1 make R a rotation; R^T M symmetric makes it
    the polar factor of M.  All three are plain matrix products.
    """
    name = "forward-map-9d"
    ms = _forward_map_9d_cases(np.random.default_rng(seed), n)
    rs = np.array([_reps.manifold_map(RepKind.NINE_D, m.ravel()).value for m in ms])
    scale = np.maximum(1.0, np.linalg.norm(ms, axis=(1, 2)))
    rtm = rs.transpose(0, 2, 1) @ ms
    polar = np.linalg.norm(rtm - rtm.transpose(0, 2, 1), axis=(1, 2)) / scale
    orth = np.linalg.norm(rs @ rs.transpose(0, 2, 1) - np.eye(3), axis=(1, 2))
    det = np.abs(_row_dots(rs[:, :, 0], np.cross(rs[:, :, 1], rs[:, :, 2])) - 1.0)
    worst = float(np.max(np.maximum(polar, np.maximum(orth, det) / (TOL_LIN_ORTH / TOL_LIN_RECON))))
    return CheckResult(name, worst <= TOL_LIN_RECON,
                       f"max scaled residual {worst:.3e} (tol {TOL_LIN_RECON:.0e}, n={n})",
                       measured=worst)


def _psd_violation(d: np.ndarray) -> np.ndarray:
    """Most negative elementary symmetric function of the eigenvalues of
    each symmetric 4x4 in the (B, 4, 4) stack ``d``, from the traces of its
    powers (Newton's identities).  All are >= 0 exactly when the matrix is
    positive semidefinite."""
    d2 = d @ d
    p1, p2, p3 = (np.einsum('bii->b', p) for p in (d, d2, d2 @ d))
    e2 = 0.5 * (p1 * p1 - p2)
    e3 = (e2 * p1 - p1 * p2 + p3) / 3.0
    return np.maximum(0.0, -np.minimum(np.minimum(p1, e2), e3))


def check_forward_map_10d(n: int = 1000, seed: int = 751) -> CheckResult:
    """The per-sample 10d map must return a unit eigenvector of A(x) for
    its smallest eigenvalue.

    With lambda = q^T A q, the residual A q - lambda q must vanish, and
    A - lambda I must be positive semidefinite, so that no eigenvalue of A
    lies below lambda.  All are plain matrix products.
    """
    name = "forward-map-10d"
    a = np.random.default_rng(seed).standard_normal((n, 4, 4))
    a = 0.5 * (a + a.transpose(0, 2, 1))
    qs = np.array([_reps.manifold_map(RepKind.TEN_D, x).value
                   for x in a[:, _reps._SYM4_ROWS, _reps._SYM4_COLS]])
    scale = np.maximum(1.0, np.linalg.norm(a, axis=(1, 2)))
    aq = np.einsum('bij,bj->bi', a, qs)
    lam = _row_dots(qs, aq)
    resid = np.linalg.norm(aq - lam[:, None] * qs, axis=1) / scale
    unit = np.abs(np.sqrt(_row_dots(qs, qs)) - 1.0)
    shifted = (a - lam[:, None, None] * np.eye(4)) / scale[:, None, None]
    order = np.where(_psd_violation(shifted) <= 1e-12, 0.0, 1.0)
    worst = float(np.max(np.maximum.reduce([resid, unit / (TOL_LIN_ORTH / TOL_LIN_RECON), order])))
    return CheckResult(name, worst <= TOL_LIN_RECON,
                       f"max scaled residual {worst:.3e} (tol {TOL_LIN_RECON:.0e}, n={n})",
                       measured=worst)


def _registry() -> "OrderedDict[str, Callable[[], CheckResult]]":
    checks: "OrderedDict[str, Callable[[], CheckResult]]" = OrderedDict()
    for rep in MANIFOLD_REPS:
        checks[f"projection-optimality-{rep.value}"] = partial(check_projection_optimality, rep)
    for rep in MANIFOLD_REPS:
        checks[f"projection-membership-{rep.value}"] = partial(check_projection_membership, rep)
    for loss_name in ("l2", "geodesic", "flow", "chamfer"):
        checks[f"gradient-fd-{loss_name}"] = partial(check_gradient_fd, loss_name)
    checks["gradient-hand-case"] = check_gradient_hand_case
    checks["vanilla-backward-fd"] = check_vanilla_backward_fd
    checks["tau-converge-l2"] = partial(check_tau_converge, "l2")
    checks["tau-converge-geodesic"] = partial(check_tau_converge, "geodesic")
    checks["tau-converge-s2"] = check_tau_converge_s2
    checks["goal-direction-l2"] = check_goal_direction
    checks["representation-round-trip"] = check_representation_round_trip
    checks["lambda-one-equals-mg"] = check_lambda_one_equals_mg
    checks["mg-tau-gt-identity"] = check_mg_tau_gt_identity
    checks["forward-map-9d"] = check_forward_map_9d
    checks["forward-map-10d"] = check_forward_map_10d
    return checks


CHECKS = _registry()
CHECK_NAMES = tuple(CHECKS)


def _run_named(name: str) -> CheckResult:
    start = time.perf_counter()
    try:
        result = CHECKS[name]()
    except Exception as exc:  # surfaced as a numeric failure, not a crash
        result = CheckResult(name, False, f"raised {type(exc).__name__}: {exc}", error=True)
    return replace(result, seconds=time.perf_counter() - start)


def run_checks(name_filter: str = "", jobs: int = 1) -> List[CheckResult]:
    """Run every check whose name contains ``name_filter``.

    ``jobs`` > 1 fans the checks out over a process pool under the
    platform's default start method.  Under fork (the Linux default before
    Python 3.14) the workers inherit the parent's modules as they stand, so
    a monkeypatched fault fails its checks with any ``jobs``; under spawn
    or forkserver each worker imports the package afresh and sees only
    unpatched code.
    """
    names = [n for n in CHECK_NAMES if name_filter in n]
    if not names:
        raise ValueError(f"no check name contains {name_filter!r}; "
                         f"known checks: {', '.join(CHECK_NAMES)}")
    if jobs <= 1:
        return [_run_named(n) for n in names]
    with multiprocessing.Pool(min(jobs, len(names))) as pool:
        return pool.map(_run_named, names)
