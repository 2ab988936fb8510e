"""The per-sample route against its earlier numpy form.

Each ``_ref_*`` function below is the previous implementation of a
per-sample primitive, kept verbatim apart from calling the other references
instead of the library; ``_ref_finite_ambient`` raises the exceptions of the
one raw-vector rule (``representations._check_dim`` and ``_check_finite``).
The per-sample route now runs on Python floats:
its kernels take and return lists (a 3x3 matrix as nine row-major floats)
and write every sum out in a fixed order, rounding each multiply and add,
where the references' ``@``, ``dot`` and BLAS calls fuse multiply-adds; in
a manifold-method fit step under l2 or geodesic the 9d/10d eigensolver
(``representations._eigh_sym4``) is the only numpy call.  The public
functions are thin wrappers that return the arrays they did.  The inputs
are random ones and edge ones: exact pi rotations with tied diagonals,
q0 = 0 ties, -0.0 entries, rotation angles below ``_SMALL_ANGLE`` and
exactly 0, matrices that are not rotations, NaN, inf and finite values
whose squares overflow, and strided views.  Where the reference raises,
the rewrite must raise an exception of the same type, and where it gives
NaN or inf, the same.

Rows whose arithmetic is unchanged keep the reference's bytes (dtype,
shape and strides included): ``quat_to_rot``, ``rot_to_quat``,
the Euler maps, the 10d map (its point now a C-contiguous array), the
vanilla gradient rows under l2, flow and chamfer.  The others are compared
at stated bounds: the angle, ``geodesic_distance``'s atan2(|vee(C - C^T)|,
tr(C) - 1) of C = r1^T r2 (``_ANGLE_ATOL``); rotations and unit
quaternions from a float kernel (``_ANGLE_ATOL``, relative to the largest
entry); gradient rows (the 6d PMG and RPMG rows with ``_SIX_D_X_ULPS``
eps |x| on top), goal terms and ``inverse_project`` (``_GRAD_RTOL``),
which also compose the quat and 10d goals as quaternions, q (x)
exp(-tau phi / 2), instead of extracting the quaternion of r @
Rodrigues(-tau phi), and solve the 10d projection by Cholesky; the fits,
step by step (``_FIT_STEP_TOL``).

The 9d map runs through the 10d eigen route, so its reference is the SVD
special orthogonalization of ``test_representations`` with the 9d guard on
sigma2 + det(M) sigma3 (``_nine_d_pair_floor``), and the 9d rows of the
map and of the fit loop are compared at their own tolerances
(``_check_nine_d``, ``_NINE_D_ULPS``, ``_NINE_D_FIT_TOL``).

A NaN result matches any NaN.  Where an add or a multiply has two NaN
operands, the sign bit the result keeps depends on the operand order of the
compiled instruction, which IEEE 754 leaves open: numpy's scalar add and
CPython's specialized float add keep different ones, so an input such as
q = (-inf, nan, -0.0, 0.0) gives NaNs of opposite sign on the two routes.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from rotgrad import rpmg, so3
from rotgrad import representations as reps
from rotgrad.harness import FitResult, _resolve_tau, _spawn_rngs, fit_single_rotation
from rotgrad.representations import (
    GRAM_RESIDUAL_MIN,
    EIGENGAP_MIN,
    EIGENGAP_REL_MIN,
    MANIFOLD_REPS,
    QUAT_NORM_MIN,
    SIGMA_SUM_MIN,
    DegenerateInputError,
    ManifoldPoint,
    RepKind,
)
from rotgrad.riemannian import (
    _CUT_LOCUS,
    LOSS_NAMES,
    CutLocusError,
    GeodesicSquared,
    L2Frobenius,
    euclid_grad,
    make_loss,
    riemannian_grad,
)
from rotgrad.rpmg import Method, RpmgParams
from rotgrad.so3 import _SMALL_ANGLE

from test_batched_kernels import EDGE_ROTATIONS, _edge_quats
from test_representations import svd_special_orthogonalization


# ---------------------------------------------------------------------------
# references: the earlier per-sample functions

def _ref_hat(phi) -> np.ndarray:
    x, y, z = phi
    return np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])


def _ref_rodrigues(phi) -> np.ndarray:
    theta2 = float(phi[0] ** 2 + phi[1] ** 2 + phi[2] ** 2)
    theta = math.sqrt(theta2)
    if theta < _SMALL_ANGLE:
        a = 1.0 - theta2 / 6.0
        b = 0.5 - theta2 / 24.0
    else:
        a = math.sin(theta) / theta
        b = (1.0 - math.cos(theta)) / theta2
    k = _ref_hat(phi)
    return np.eye(3) + a * k + b * (k @ k)


def _ref_exp_so3(r, phi) -> np.ndarray:
    return np.asarray(r) @ _ref_rodrigues(np.asarray(phi, dtype=np.float64))


def _ref_quat_to_rot(q) -> np.ndarray:
    q0, q1, q2, q3 = q
    return np.array([
        [2.0 * (q0 * q0 + q1 * q1) - 1.0, 2.0 * (q1 * q2 - q0 * q3), 2.0 * (q1 * q3 + q0 * q2)],
        [2.0 * (q1 * q2 + q0 * q3), 2.0 * (q0 * q0 + q2 * q2) - 1.0, 2.0 * (q2 * q3 - q0 * q1)],
        [2.0 * (q1 * q3 - q0 * q2), 2.0 * (q2 * q3 + q0 * q1), 2.0 * (q0 * q0 + q3 * q3) - 1.0],
    ])


def _ref_rot_to_quat(r) -> np.ndarray:
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
    return _ref_canonical_quat(q)


def _ref_canonical_quat(q: np.ndarray) -> np.ndarray:
    if q[0] < 0.0:
        return -q
    if q[0] == 0.0:
        for c in q[1:]:
            if c != 0.0:
                return q if c > 0.0 else -q
    return q


def _ref_geodesic_distance(r1, r2) -> float:
    q = _ref_rot_to_quat(np.asarray(r1).T @ np.asarray(r2))
    return 2.0 * math.atan2(math.sqrt(float(q[1:] @ q[1:])), q[0])


def _ref_ambient_dim(rep: RepKind) -> int:
    return {"euler": 3, "axis-angle": 3, "quat": 4, "6d": 6, "9d": 9, "10d": 10}[rep.value]


def _ref_check_dim(rep: RepKind, x) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (_ref_ambient_dim(rep),):
        raise ValueError(f"{rep.value}: expected shape ({_ref_ambient_dim(rep)},), got {x.shape}")
    return x


def _nine_d_pair_floor(s):
    """The 9d guard on the pair sum s2 + d s3 of signed singular values s.

    The 9d map's eigengap is 2 (s2 + d s3) and its largest eigenvalue
    magnitude s1 + s2 + s3, so the guard on the gap (at most 2 SIGMA_SUM_MIN
    or EIGENGAP_REL_MIN times that magnitude) is this on the sum."""
    scale = float(s[0] + s[1] + abs(s[2]))
    return max(SIGMA_SUM_MIN, EIGENGAP_REL_MIN * scale / 2.0)


def _ref_manifold_map(rep: RepKind, x) -> ManifoldPoint:
    x = _ref_check_dim(rep, x)
    if rep in (RepKind.EULER3, RepKind.AXIS_ANGLE3):
        return ManifoldPoint(rep, x.copy())

    if rep is RepKind.QUAT4:
        n = float(np.linalg.norm(x))
        if n <= QUAT_NORM_MIN:
            raise DegenerateInputError(f"quat norm {n:.3e} below {QUAT_NORM_MIN:.0e}")
        return ManifoldPoint(rep, x / n)

    if rep is RepKind.SIX_D:
        u, v = x[:3], x[3:]
        nu = float(np.linalg.norm(u))
        if nu <= GRAM_RESIDUAL_MIN:
            raise DegenerateInputError(f"6d first-column norm {nu:.3e} below {GRAM_RESIDUAL_MIN:.0e}")
        u_hat = u / nu
        w = v - float(v @ u_hat) * u_hat
        nw = float(np.linalg.norm(w))
        if nw <= GRAM_RESIDUAL_MIN:
            raise DegenerateInputError(f"6d Gram-Schmidt residual {nw:.3e} below {GRAM_RESIDUAL_MIN:.0e}")
        return ManifoldPoint(rep, np.stack([u_hat, w / nw]))

    if rep is RepKind.NINE_D:
        r, (_, s, _) = svd_special_orthogonalization(x)
        pair, floor = float(s[0, 1] + s[0, 2]), _nine_d_pair_floor(s[0])
        if pair <= floor:
            raise DegenerateInputError(f"9d sigma2+det*sigma3 = {pair:.3e} below {floor:.0e}")
        return ManifoldPoint(rep, r[0])

    vals, vecs = np.linalg.eigh(reps.sym4_from_params(x))
    gap = float(vals[1] - vals[0])
    floor = max(EIGENGAP_MIN, EIGENGAP_REL_MIN * max(abs(vals[0]), abs(vals[3])))
    if gap <= floor:
        raise DegenerateInputError(f"10d smallest-eigenvalue gap {gap:.3e} below {floor:.0e}")
    return ManifoldPoint(rep, _ref_canonical_quat(vecs[:, 0]))


def _ref_rotation_map(point: ManifoldPoint) -> np.ndarray:
    rep, val = point.rep, point.value
    if rep in (RepKind.QUAT4, RepKind.TEN_D):
        return _ref_quat_to_rot(val)
    if rep is RepKind.SIX_D:
        (u0, u1, u2), (v0, v1, v2) = val
        return np.array([[u0, v0, u1 * v2 - u2 * v1],
                         [u1, v1, u2 * v0 - u0 * v2],
                         [u2, v2, u0 * v1 - u1 * v0]])
    if rep is RepKind.NINE_D:
        return val.copy()
    if rep is RepKind.EULER3:
        return reps.euler_xyz_to_rot(val)
    return _ref_exp_so3(np.eye(3), val)


def _ref_baseline_rotation(rep: RepKind, x) -> np.ndarray:
    return _ref_rotation_map(_ref_manifold_map(rep, x))


def _ref_euclid_grad(loss, r) -> np.ndarray:
    r = np.asarray(r, dtype=np.float64)
    if isinstance(loss, L2Frobenius):
        return 2.0 * (r - loss.r_gt)
    if isinstance(loss, GeodesicSquared):
        theta = _ref_geodesic_distance(r, loss.r_gt)
        if theta > _CUT_LOCUS:
            raise CutLocusError("squared-geodesic gradient is undefined at the cut locus")
        factor = 1.0 + theta * theta / 6.0 if theta < 1e-6 else theta / math.sin(theta)
        return -factor * loss.r_gt
    return euclid_grad(loss, r)  # flow and chamfer call no per-sample primitive


def _ref_riemannian_grad(r, dl_dr) -> np.ndarray:
    c = np.asarray(r).T @ np.asarray(dl_dr)
    return np.array([c[2, 1] - c[1, 2], c[0, 2] - c[2, 0], c[1, 0] - c[0, 1]])


def _ref_goal_rotation(r, phi_grad, tau: float) -> np.ndarray:
    return _ref_exp_so3(r, -tau * np.asarray(phi_grad, dtype=np.float64))


def _ref_finite_ambient(rep: RepKind, x) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (_ref_ambient_dim(rep),):
        raise ValueError(f"{rep.value}: expected shape ({_ref_ambient_dim(rep)},), got {x.shape}")
    if not np.isfinite(x).all():
        raise DegenerateInputError(f"{rep.value}: raw vector is not finite")
    return x


def _ref_goal_terms(rep: RepKind, x: np.ndarray, r_g: np.ndarray):
    if rep is RepKind.QUAT4:
        q = _ref_rot_to_quat(r_g)
        dot = float(x @ q)
        if dot < 0.0:
            q = -q
        return q, abs(dot) * q

    if rep is RepKind.SIX_D:
        u, v = x[:3], x[3:]
        u_g, v_g = r_g[:, 0], r_g[:, 1]
        return np.concatenate([u_g, v_g]), np.concatenate([
            float(u @ u_g) * u_g,
            float(v @ u_g) * u_g + float(v @ v_g) * v_g,
        ])

    if rep is RepKind.NINE_D:
        m = x.reshape(3, 3)
        s = 0.5 * (m @ r_g.T + r_g @ m.T)
        return r_g.reshape(9), (s @ r_g).reshape(9)

    q = _ref_rot_to_quat(r_g)
    x_hat = reps._ten_d_embedding(q)
    m = rpmg._constraint_rows_batch(q[None])[0]
    w = np.linalg.solve(m @ m.T, np.stack([q, reps.sym4_from_params(x) @ q], axis=1))
    s, t = w.T @ m
    lam_eig = float(s @ t) / float(s @ s)
    return x_hat, x + lam_eig * s - t


def _ref_rpmg_gradient(rep, x, r, loss, tau, params, max_step=None) -> np.ndarray:
    r = np.asarray(r, dtype=np.float64)
    dl_dr = _ref_euclid_grad(loss, r)
    if params.method is Method.VANILLA:
        return reps.baseline_backward(rep, x, dl_dr)
    if rep not in MANIFOLD_REPS:
        raise ValueError(f"{rep.value} supports only the vanilla method")
    x = _ref_finite_ambient(rep, x)

    phi = _ref_riemannian_grad(r, dl_dr)
    if max_step is not None:
        norm = float(np.linalg.norm(phi))
        if tau * norm > max_step:
            tau = max_step / norm
    r_g = _ref_goal_rotation(r, phi, tau)
    x_hat_g, x_gp = _ref_goal_terms(rep, x, r_g)
    return rpmg._blend(x, x_hat_g, x_gp, params.blend_lam)


def _ref_fit(rep, method, loss, tau, lam, seed, iters, lr, x_init, r_gt) -> FitResult:
    """The earlier ``fit_single_rotation`` for a given start and target."""
    data_rng, init_rng = _spawn_rngs(seed, 2)
    x = np.asarray(x_init, dtype=float).copy()
    errors, norms = [], []
    aborted = False
    diagnostic = ""
    try:
        r_start = _ref_baseline_rotation(rep, x)
    except DegenerateInputError as exc:
        r_start = None
        aborted = True
        diagnostic = f"degenerate raw vector at step 0: {exc}"
    r_gt = np.asarray(r_gt, dtype=float)
    points = data_rng.uniform(-1.0, 1.0, size=(16, 3))
    loss_inst = make_loss(loss, r_gt, points)
    tau_fn, max_step = _resolve_tau(tau, loss)
    params = RpmgParams(method=method, lam=lam)

    if not aborted:
        r = r_start
        for it in range(iters + 1):
            errors.append(_ref_geodesic_distance(r, r_gt))
            norms.append(float(np.linalg.norm(x)))
            if it == iters:
                break
            try:
                g = _ref_rpmg_gradient(rep, x, r, loss_inst, tau_fn(it), params, max_step=max_step)
            except DegenerateInputError as exc:
                aborted = True
                diagnostic = f"degenerate raw vector at step {it}: {exc}"
                break
            except CutLocusError as exc:
                aborted = True
                diagnostic = f"cut locus at step {it}: {exc}"
                break
            if not np.all(np.isfinite(g)):
                aborted = True
                diagnostic = f"non-finite gradient at step {it}"
                break
            x = x - lr * g
            try:
                r = _ref_baseline_rotation(rep, x)
            except DegenerateInputError as exc:
                aborted = True
                diagnostic = f"degenerate raw vector at step {it + 1}: {exc}"
                break
    return FitResult(rep=rep, method=method, errors=np.asarray(errors), norms=np.asarray(norms),
                     r_gt=r_gt, x_final=x, aborted=aborted, diagnostic=diagnostic)


# ---------------------------------------------------------------------------
# comparison

def _same(got, ref):
    """Same bytes: arrays with equal dtype, shape and strides, floats of the
    same type and bits, tuples and manifold points element by element.  A NaN
    matches any NaN (see the module docstring)."""
    if isinstance(ref, tuple):
        assert isinstance(got, tuple) and len(got) == len(ref)
        for g, r in zip(got, ref):
            _same(g, r)
    elif isinstance(ref, ManifoldPoint):
        assert got.rep is ref.rep
        _same(got.value, ref.value)
    elif isinstance(ref, np.ndarray):
        assert isinstance(got, np.ndarray)
        assert (got.dtype, got.shape, got.strides) == (ref.dtype, ref.shape, ref.strides)
        nan = np.isnan(ref)
        assert np.array_equal(np.isnan(got), nan)
        assert np.where(nan, 0.0, got).tobytes() == np.where(nan, 0.0, ref).tobytes()
    else:
        assert type(got) is type(ref)
        assert np.float64(got).tobytes() == np.float64(ref).tobytes() or math.isnan(got) and math.isnan(ref)


def _check(fn, ref_fn, *args):
    """fn(*args) gives ref_fn(*args)'s bytes, or raises its exception type."""
    with np.errstate(all="ignore"):
        try:
            want = ref_fn(*args)
        except Exception as exc:  # the type is what is compared
            with pytest.raises(Exception) as info:
                fn(*args)
            assert type(info.value) is type(exc), (info.value, exc)
            return
        _same(fn(*args), want)


def _check_close(fn, ref_fn, rtol, *args, atol=0.0):
    """fn(*args) within ``rtol`` of ref_fn(*args), relative to the
    reference's largest finite entry, plus ``atol``, with its dtype, shape,
    NaN positions and infinities, or raises its exception type."""
    with np.errstate(all="ignore"):
        try:
            want = ref_fn(*args)
        except Exception as exc:  # the type is what is compared
            with pytest.raises(Exception) as info:
                fn(*args)
            assert type(info.value) is type(exc), (info.value, exc)
            return
        got = fn(*args)
    assert (got.dtype, got.shape) == (want.dtype, want.shape)
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    assert np.array_equal(got[np.isinf(want)], want[np.isinf(want)])  # the same infinities
    finite = np.isfinite(want)
    got, want = got[finite], want[finite]
    scale = np.abs(want).max(initial=0.0)
    assert np.abs(got - want).max(initial=0.0) <= rtol * scale + atol, (got, want)


# the trace-skew angle against the reference's quaternion angle, on
# rotations (orthonormal within 1e-15): measured up to 1.3e-15 apart over
# 20,000 random pairs.  Also the bound on the entries of rotations and unit
# quaternions (the Rodrigues matrix, exp_so3, the quat, 6d and axis-angle
# maps) against the reference's, relative to the largest entry: measured
# up to 1.2e-15
_ANGLE_ATOL = 4e-15
# a gradient row that reads the angle, a quaternion goal or any float
# kernel against the reference's row, relative to its largest entry and to
# the goal step's angle past 1 rad (both routes carry a step to about eps
# times its angle, and tau = 50 steps reach 100 rad): measured up to 0.96 of
# the bound (a quat PMG row at tau = 50).  Also the bound on riemannian_grad
# (3.7e-14 on matrices that are not rotations), the goal terms and
# inverse_project (1.5e-15), relative to the largest entry
_GRAD_RTOL = 1e-13
# the 6d PMG and RPMG rows x - x_gp also get this many eps |x| on top: both
# routes round x_gp, a point near x, to about eps |x|, so a row far smaller
# than x is set by that rounding (measured 1.14 eps |x| on a row 460x
# smaller than x, whose bound relative to the row alone is 0.98 eps |x|)
_SIX_D_X_ULPS = 2


def _moves(rep, method, loss) -> bool:
    """Whether the trace-skew angle or a float kernel of the manifold
    methods reaches a gradient row; the vanilla rows under l2, flow and
    chamfer keep the reference's bytes."""
    return loss == "geodesic" or method is not Method.VANILLA


def _is_rotation(r) -> bool:
    with np.errstate(all="ignore"):
        return bool(np.isfinite(r).all() and np.abs(r.T @ r - np.eye(3)).max() <= 1e-15
                    and np.linalg.det(r) > 0.0)


# the eigen route and the SVD reference are both backward stable, so their
# 9d rotations differ by a few eps times the map's condition number
# s1 / (s2 + d s3), d = sign det M; the random inputs here reach 23 eps
_NINE_D_ULPS = 64


def _check_nine_d(fn, ref_fn, x):
    """fn(NINE_D, x) against ref_fn(NINE_D, x): rotations of the same dtype
    and shape within _NINE_D_ULPS eps times the condition number, or both
    raise DegenerateInputError.  A row whose pair sum s2 + d s3 lies within
    that rounding of the guard's floor may be rejected by one route only."""
    _, (_, s, _) = svd_special_orthogonalization(x)
    pair = float(s[0, 1] + s[0, 2])
    eps = np.finfo(float).eps
    slack = _NINE_D_ULPS * eps * float(s[0, 0])
    results = []
    for f in (fn, ref_fn):
        try:
            with np.errstate(all="ignore"):
                results.append(f(RepKind.NINE_D, x))
        except DegenerateInputError:
            results.append(None)
    got, want = results
    if (got is None) != (want is None):
        assert abs(pair - _nine_d_pair_floor(s[0])) <= slack, (x, got, want)
        return
    if want is not None:
        got, want = (getattr(v, "value", v) for v in (got, want))
        assert (got.dtype, got.shape) == (want.dtype, want.shape)
        assert np.abs(got - want).max() <= _NINE_D_ULPS * eps * max(1.0, float(s[0, 0]) / pair)


# ---------------------------------------------------------------------------
# inputs

SPECIAL = np.array([0.0, -0.0, 1.0, -1.0, 0.5, 1e-300, -5e-324, 1e200, -1e200,
                    np.inf, -np.inf, np.nan])


def _random_rotations(rng, n):
    q = rng.standard_normal((n, 4))
    return np.array([_ref_quat_to_rot(v / np.linalg.norm(v)) for v in q])


def _matrices(seed):
    """Rotations, their edge cases, and 3x3 matrices that are not rotations."""
    rng = np.random.default_rng(seed)
    rots = _random_rotations(rng, 512)
    base = np.repeat(EDGE_ROTATIONS, 4, axis=0)
    ties = base + rng.choice([-2e-16, -1e-16, 0.0, 1e-16, 2e-16], size=base.shape)
    others = [rng.standard_normal((64, 3, 3)), np.zeros((1, 3, 3)), -np.eye(3)[None],
              np.diag([1.0, 1.0, -1.0])[None], rng.choice(SPECIAL, size=(128, 3, 3)),
              np.where(rng.random(rots.shape) < 0.1, rng.choice(SPECIAL, size=rots.shape), rots)]
    return np.concatenate([rots, EDGE_ROTATIONS, ties, *others])


def _vectors(seed, n):
    """Random n-vectors at several scales, with special entries mixed in."""
    rng = np.random.default_rng(seed)
    scale = 10.0 ** rng.uniform(-12, 3, size=(96, 1))
    plain = rng.standard_normal((96, n)) * scale
    mixed = np.where(rng.random((96, n)) < 0.25, rng.choice(SPECIAL, size=(96, n)), plain)
    return np.concatenate([plain, mixed, rng.choice(SPECIAL, size=(64, n)),
                           np.zeros((1, n)), np.full((1, n), -0.0)])


def _phis():
    """Tangent vectors about every angle regime of Rodrigues' formula."""
    rng = np.random.default_rng(5)
    dirs = rng.standard_normal((8, 3))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    angles = [0.0, 1e-300, 1e-12, 1e-7, 0.999e-6, _SMALL_ANGLE, 1.001e-6, 1e-3, 1.0, math.pi,
              1e3, 1.3e154, 1.5e154, 1e200]
    scaled = (dirs[:, None, :] * np.array(angles)[None, :, None]).reshape(-1, 3)
    axes = np.concatenate([np.eye(3), -np.eye(3)])
    spread = rng.standard_normal((2000, 3)) * rng.uniform(0.0, 4.0, size=(2000, 1))
    return np.concatenate([scaled, (axes[:, None, :] * np.array(angles)[None, :, None]).reshape(-1, 3),
                           np.full((1, 3), -0.0), _vectors(6, 3), spread])


# ---------------------------------------------------------------------------
# so3

def _rodrigues_matrix(phi):
    return np.array(so3._rodrigues(*phi.tolist())).reshape(3, 3)


def test_hat_and_rodrigues():
    for phi in _phis():
        # hat(phi)^2 and r @ Rodrigues round each product and sum on floats
        _check_close(_rodrigues_matrix, _ref_rodrigues, _ANGLE_ATOL, phi)
        _check_close(so3.exp_so3, _ref_exp_so3, _ANGLE_ATOL, EDGE_ROTATIONS[5], phi)


def test_quat_to_rot():
    quats = np.concatenate([_edge_quats(), _vectors(7, 4)])
    for q in quats:
        _check(so3.quat_to_rot, _ref_quat_to_rot, q)
    _check(so3.quat_to_rot, _ref_quat_to_rot, [1, 0, 0, 0])


def test_rot_to_quat_and_canonical_quat():
    for r in _matrices(8):
        _check(so3.rot_to_quat, _ref_rot_to_quat, r)
        _check(so3.rot_to_quat, _ref_rot_to_quat, r.T)  # a strided view
    for q in np.concatenate([_edge_quats(), _vectors(9, 4)]):
        _check(so3.canonical_quat, _ref_canonical_quat, q)
    column = np.arange(8.0).reshape(4, 2)[:, 0] - 3.0  # strided, returned as is
    _check(so3.canonical_quat, _ref_canonical_quat, column)


def _small_angle_pairs(rng):
    """(r1, r2, theta): r2 = r1 Rodrigues(theta n) at angles below 1e-8."""
    for theta in (1e-8, 1e-9, 1e-12, 1e-300, 0.0):
        for r1 in (np.eye(3), _random_rotations(rng, 1)[0]):
            axis = rng.standard_normal(3)
            yield r1, r1 @ _ref_rodrigues(theta * axis / np.linalg.norm(axis)), theta


def test_geodesic_distance():
    mats = _matrices(10)
    rng = np.random.default_rng(11)
    rotations = [r for r in mats if _is_rotation(r)]
    pairs = list(zip(mats, mats[rng.permutation(len(mats))]))
    pairs += list(zip(rotations, [rotations[i] for i in rng.permutation(len(rotations))]))
    pairs += [(np.eye(3), r) for r in EDGE_ROTATIONS] + [(r, r) for r in EDGE_ROTATIONS]
    with np.errstate(all="ignore"):
        for r1, r2 in pairs:
            got = so3.geodesic_distance(r1, r2)  # any 3x3 input gives a float
            assert type(got) is float
            if _is_rotation(r1) and _is_rotation(r2):
                assert abs(got - _ref_geodesic_distance(r1, r2)) <= _ANGLE_ATOL, (r1, r2)
    for r in EDGE_ROTATIONS:
        if set(np.abs(r).ravel().tolist()) <= {0.0, 1.0}:  # r^T r is exactly I
            assert so3.geodesic_distance(r, r) == 0.0 == _ref_geodesic_distance(r, r)
        if np.array_equal(r, r.T) and not np.array_equal(r, np.eye(3)):
            # half turns, tied diagonals among them: exactly pi, as the reference
            assert so3.geodesic_distance(np.eye(3), r) == math.pi == _ref_geodesic_distance(np.eye(3), r)
    for r1, r2, theta in _small_angle_pairs(rng):
        got = so3.geodesic_distance(r1, r2)
        assert abs(got - _ref_geodesic_distance(r1, r2)) <= _ANGLE_ATOL
        if np.array_equal(r1, np.eye(3)):
            assert abs(got - theta) <= 4.0 * np.finfo(float).eps * theta


# ---------------------------------------------------------------------------
# representations

def test_ambient_dim_table():
    for rep in RepKind:
        assert rep.ambient_dim == _ref_ambient_dim(rep)


@pytest.mark.parametrize("rep", list(RepKind), ids=lambda r: r.value)
def test_manifold_map_and_rotation_map(rep):
    n = _ref_ambient_dim(rep)
    xs = _vectors(12 + n, n)
    # the references predate the guard that rejects non-finite raw vectors;
    # test_representations pins that guard in a child process
    xs = xs[np.isfinite(xs).all(axis=1)]
    # near the quat and 6d guards, and rank-deficient 9d inputs
    tiny = np.concatenate([np.full((1, n), 1e-9), np.full((1, n), 0.4e-8)])
    wide = np.ascontiguousarray(xs[:8].T)  # (n, 8): its columns are strided views
    if rep is RepKind.NINE_D:
        for x in np.concatenate([xs, tiny]):
            _check_nine_d(reps.manifold_map, _ref_manifold_map, x)
            _check_nine_d(reps.baseline_rotation, _ref_baseline_rotation, x)
        for j in range(wide.shape[1]):
            _check_nine_d(reps.manifold_map, _ref_manifold_map, wide[:, j])
        return
    rows = list(np.concatenate([xs, tiny])) + [wide[:, j] for j in range(wide.shape[1])]
    if rep is RepKind.EULER3:  # the Euler maps run no float kernel
        for x in rows:
            _check(reps.manifold_map, _ref_manifold_map, rep, x)
            _check(reps.baseline_rotation, _ref_baseline_rotation, rep, x)
        return
    if rep is RepKind.TEN_D:
        # eigh's column, read into a new array: the reference's bits in a
        # C-contiguous point, where the reference returned a strided view
        for x in rows:
            _check(lambda rep, x: reps.manifold_map(rep, x).value,
                   lambda rep, x: np.ascontiguousarray(_ref_manifold_map(rep, x).value), rep, x)
            _check(reps.baseline_rotation, _ref_baseline_rotation, rep, x)
        return
    # quat and 6d sum their norms and dot products on floats, and the
    # axis-angle rotation is a Rodrigues matrix
    for x in rows:
        _check_close(lambda rep, x: reps.manifold_map(rep, x).value,
                     lambda rep, x: _ref_manifold_map(rep, x).value, _ANGLE_ATOL, rep, x)
        _check_close(reps.baseline_rotation, _ref_baseline_rotation, _ANGLE_ATOL, rep, x)


def test_six_d_collinear_and_edge_columns():
    u = np.array([1.0, -0.0, 2.0])
    for x in (np.concatenate([u, 3.0 * u]), np.concatenate([u, 3.0 * u + 1e-9]),
              np.concatenate([u, -u]), np.array([1e-300, 0.0, 0.0, 1.0, 1.0, 0.0])):
        _check(reps.manifold_map, _ref_manifold_map, RepKind.SIX_D, x)
    rng = np.random.default_rng(13)
    for val in rng.choice(SPECIAL, size=(256, 2, 3)):
        _check(reps.rotation_map, _ref_rotation_map, ManifoldPoint(RepKind.SIX_D, val))


# ---------------------------------------------------------------------------
# riemannian and rpmg

def test_riemannian_grad():
    mats = _matrices(14)
    rng = np.random.default_rng(15)
    for r, g in zip(mats, mats[rng.permutation(len(mats))]):
        _check_close(riemannian_grad, _ref_riemannian_grad, _GRAD_RTOL, r, g)


def test_finite_ambient():
    """rpmg_gradient and inverse_project raise DegenerateInputError on a raw
    vector with a NaN or an infinity, and a plain ValueError on one of the
    wrong length, as the forward maps do."""
    r = np.eye(3)
    for rep in MANIFOLD_REPS:
        n = _ref_ambient_dim(rep)
        xs = _vectors(16, n)
        bad = xs[~np.isfinite(xs).all(axis=1)]
        assert np.isnan(bad).any() and np.isposinf(bad).any() and np.isneginf(bad).any()
        cases = ([(x, DegenerateInputError) for x in bad]
                 + [(np.zeros(n + 1), ValueError), (np.zeros(n - 1), ValueError)])
        for x, error in cases:
            for method in (Method.MG, Method.PMG, Method.RPMG):
                with pytest.raises(ValueError) as info:
                    rpmg.rpmg_gradient(rep, x, r, L2Frobenius(r), 0.25, RpmgParams(method))
                assert type(info.value) is error, (rep, x, info.value)
            with pytest.raises(ValueError) as info:
                rpmg.inverse_project(rep, x, r)
            assert type(info.value) is error, (rep, x, info.value)


def _goal_of(rep, r_g):
    """The goal ``_goal_terms`` reads for the reference's rotation."""
    return _ref_rot_to_quat(r_g) if rep in rpmg._QUAT_GOAL_REPS else r_g


def _goal_term(k):
    """Term k of ``_goal_terms`` (a list of floats) for the reference's
    arguments, as an array."""
    return lambda rep, x, r_g: np.array(rpmg._goal_terms(rep, x.tolist(), _goal_of(rep, r_g).ravel().tolist())[k])


@pytest.mark.parametrize("rep", MANIFOLD_REPS, ids=lambda r: r.value)
def test_goal_terms(rep):
    rng = np.random.default_rng(17)
    n = _ref_ambient_dim(rep)
    rots = np.concatenate([_random_rotations(rng, 48), EDGE_ROTATIONS])
    xs = rng.standard_normal((len(rots), n))
    xs[::7] = np.where(xs[::7] > 0.5, -0.0, xs[::7])
    for x, r_g in zip(xs, rots):
        # quat and 10d take the goal as a quaternion, the reference its rotation
        for k in (0, 1):
            _check_close(_goal_term(k), lambda *args: _ref_goal_terms(*args)[k], _GRAD_RTOL, rep, x, r_g)


@pytest.mark.parametrize("rep", rpmg._QUAT_GOAL_REPS, ids=lambda r: r.value)
def test_inverse_project_converts_the_goal_rotation_itself(rep):
    rng = np.random.default_rng(21)
    rots = np.concatenate([_random_rotations(rng, 48), EDGE_ROTATIONS])
    xs = rng.standard_normal((len(rots), _ref_ambient_dim(rep)))
    for x, r_g in zip(xs, rots):
        _check_close(rpmg.inverse_project, lambda rep, x, r_g: _ref_goal_terms(rep, x, r_g)[1],
                     _GRAD_RTOL, rep, x, r_g)


def test_quat_step_composes_rodrigues():
    """q (x) exp(phi / 2) is the quaternion of R(q) Rodrigues(phi), and a
    zero step returns q itself."""
    rng = np.random.default_rng(22)
    quats = np.concatenate([_edge_quats(), rng.standard_normal((96, 4))])
    quats = quats[np.abs(quats).sum(axis=1) > 0.0]
    quats /= np.linalg.norm(quats, axis=1, keepdims=True)
    phis = _phis()
    phis = phis[np.isfinite(phis).all(axis=1) & (np.abs(phis).max(axis=1) <= 1e3)]
    for q in quats:
        for phi in ([0.0, 0.0, 0.0], [-0.0, -0.0, -0.0]):
            assert np.array_equal(so3._quat_step(q.tolist(), phi), q)
    for q, phi in zip(quats[rng.integers(0, len(quats), len(phis))], phis):
        got = _ref_quat_to_rot(so3._quat_step(q.tolist(), phi.tolist()))
        want = _ref_quat_to_rot(q) @ _ref_rodrigues(phi)
        assert np.abs(got - want).max() <= 4e-15 * max(1.0, float(np.linalg.norm(phi)))


def _exact_pmg_row(x, e):
    """x - (x . y) y / |y|^2 for y = x (x) e, in exact rational arithmetic:
    the PMG row for the goal direction of x turned by the quaternion e."""
    x = [Fraction(v) for v in x]
    y = so3._hamilton(x, [Fraction(v) for v in e])
    k = sum(a * b for a, b in zip(x, y)) / sum(b * b for b in y)
    return np.array([float(a - k * b) for a, b in zip(x, y)])


# the quat PMG row against the exact row for the goal its step quaternion
# gives, relative to the row: measured up to 2.1 eps (the difference
# x - x_gp: 3.3e8 eps, at the 1e-8 rad steps)
_QUAT_PMG_RTOL = 8.0 * np.finfo(float).eps


def test_quat_pmg_row_keeps_its_precision_near_the_goal():
    """The per-sample quat PMG row is (b . b) x - c x (x) (0, b), not the
    difference x - x_gp, so it keeps its relative precision as the goal step
    shrinks; the difference is off by about eps |x|, 2e-12 of a row 1e-4 the
    size of x."""
    rng = np.random.default_rng(28)
    for angle in (1e-8, 1e-6, 1e-4, 1e-2, 1.0, 3.0):
        for _ in range(32):
            x = rng.standard_normal(4) * rng.uniform(0.3, 3.0)
            step = rng.standard_normal(3)
            step *= angle / np.linalg.norm(step)
            q = reps._forward_one(RepKind.QUAT4, x.tolist())[1]
            got = np.array(rpmg._quat_rows(x.tolist(), q, step.tolist(), 0.0))
            want = _exact_pmg_row(x, so3._half_step(step.tolist()))
            assert np.abs(got - want).max() <= _QUAT_PMG_RTOL * np.abs(want).max(), angle


@pytest.mark.parametrize("rep", rpmg._QUAT_GOAL_REPS, ids=lambda r: r.value)
def test_zero_goal_step_keeps_the_forward_quaternion(rep):
    """At tau = 0 the goal is the forward's quaternion: MG emits x minus
    the embedded forward point, exactly (both read the forward's q)."""
    rng = np.random.default_rng(24)
    for _ in range(64):
        x = rng.standard_normal(_ref_ambient_dim(rep)) * rng.uniform(0.3, 3.0)
        point = reps.manifold_map(rep, x)
        r = reps.rotation_map(point)
        g = rpmg.rpmg_gradient(rep, x, r, L2Frobenius(_random_rotations(rng, 1)[0]), 0.0,
                               RpmgParams(Method.MG))
        assert np.array_equal(g, x - reps.embed(point))


def _gradient_cases(rep, seed):
    rng = np.random.default_rng(seed)
    for _ in range(24):
        r_gt = _random_rotations(rng, 1)[0]
        x = rng.standard_normal(_ref_ambient_dim(rep)) * rng.uniform(0.3, 3.0)
        yield x, r_gt
    # at the target, and half a turn from it (the geodesic cut locus)
    x = reps.embed(reps.representation_map(EDGE_ROTATIONS[3], rep))
    yield x, EDGE_ROTATIONS[3]
    yield x, EDGE_ROTATIONS[3] @ np.diag([1.0, -1.0, -1.0])


def _goal_step_angle(r, loss, tau, cap) -> float:
    """tau |phi| under the cap, by the references; 0 where they raise."""
    try:
        phi = _ref_riemannian_grad(r, _ref_euclid_grad(loss, r))
    except CutLocusError:
        return 0.0
    step = tau * float(np.linalg.norm(phi))
    return step if cap is None else min(step, cap)


@pytest.mark.parametrize("rep", MANIFOLD_REPS, ids=lambda r: r.value)
@pytest.mark.parametrize("method", list(Method), ids=lambda m: m.value)
def test_rpmg_gradient(rep, method):
    params = RpmgParams(method=method, lam=0.01)
    points = np.random.default_rng(18).uniform(-1.0, 1.0, size=(16, 3))
    x_rounding = rep is RepKind.SIX_D and method in (Method.PMG, Method.RPMG)
    for x, r_gt in _gradient_cases(rep, 19):
        atol = _SIX_D_X_ULPS * np.finfo(float).eps * np.abs(x).max() if x_rounding else 0.0
        r = _ref_baseline_rotation(rep, x)
        for loss in LOSS_NAMES:
            loss_inst = make_loss(loss, r_gt, points)
            for tau, cap in ((0.25, None), (0.5, 1.0), (50.0, None), (3.0, 0.3)):
                args = (rep, x, r, loss_inst, tau, params, cap)
                if _moves(rep, method, loss):
                    rtol = _GRAD_RTOL * max(1.0, _goal_step_angle(r, loss_inst, tau, cap))
                    _check_close(rpmg.rpmg_gradient, _ref_rpmg_gradient, rtol, *args, atol=atol)
                else:
                    _check(rpmg.rpmg_gradient, _ref_rpmg_gradient, *args)
    bad = np.full(_ref_ambient_dim(rep), np.nan)
    _check(rpmg.rpmg_gradient, _ref_rpmg_gradient, rep, bad, np.eye(3),
           L2Frobenius(np.eye(3)), 0.25, params, None)


def test_ten_d_fit_step_projects_once(monkeypatch):
    """A 10d fit step runs one eigensolve, its forward's, and reads the
    goal's starting quaternion off that forward: no rot_to_quat."""
    calls = []
    eigh = reps._eigh_sym4

    def counting(a):
        calls.append(a.shape)
        return eigh(a)

    def refuse(*args):
        raise AssertionError("rot_to_quat called")

    rng = np.random.default_rng(26)
    # a given start and target: drawing them takes a rot_to_quat of its own
    x_init = reps.embed(reps.representation_map(_random_rotations(rng, 1)[0], RepKind.TEN_D))
    r_gt = _random_rotations(rng, 1)[0]
    monkeypatch.setattr(reps, "_eigh_sym4", counting)
    monkeypatch.setattr(so3, "rot_to_quat", refuse)
    for method in (Method.MG, Method.PMG, Method.RPMG):
        for loss in ("l2", "geodesic"):
            calls.clear()
            fit = fit_single_rotation(RepKind.TEN_D, method, loss=loss, iters=25,
                                      x_init=x_init + 0.1 * rng.standard_normal(10), r_gt=r_gt)
            assert not fit.aborted and calls == [(4, 4)] * 26  # the start and one per step


# the unrolled Cholesky solve against LU (np.linalg.solve) on M M^T, relative
# to the largest entry of the solution: P's eigenvalues lie in [1/2, 2], so
# both are within a few eps of the exact solution; measured up to 4.3 eps
# over 20,000 random unit q
_CHOLESKY_RTOL = 8.0 * np.finfo(float).eps


def test_cholesky_solve_matches_lu():
    rng = np.random.default_rng(27)
    axes = np.concatenate([np.eye(4), -np.eye(4)])
    ties = _edge_quats()
    ties = ties[ties[:, 0] == 0.0]  # q0 = 0 ties
    rand = rng.standard_normal((256, 4))
    quats = np.concatenate([axes, ties, rand / np.linalg.norm(rand, axis=1, keepdims=True)])
    assert len(ties) > 0
    for q in quats:
        m = rpmg._constraint_rows_batch(q[None])[0]
        b, c = rng.standard_normal(4), rng.standard_normal(4) * 10.0
        want = np.linalg.solve(m @ m.T, np.stack([b, c], axis=1)).T
        got = np.array(rpmg._solve_normal(q.tolist(), b.tolist(), c.tolist()))
        assert np.abs(got - want).max() <= _CHOLESKY_RTOL * np.abs(want).max(), q


# ---------------------------------------------------------------------------
# the fit loop

# absolute bound on each 9d step against the reference's step from the same
# raw vector, for the errors, the norms and the raw vector; steps differ by
# at most 2.3e-12 (a geodesic error near 0), most by a few 1e-15
_NINE_D_FIT_TOL = 1e-11
# the same bound for the quat, 6d and 10d fits: measured up to 6.4e-14 (a
# 10d angle after one step), the raw vector to 2.9e-14
_FIT_STEP_TOL = 1e-12


def _check_fit_steps(args, tol):
    """The fit, step by step against the reference's step from the same raw
    vector, within ``tol``.  The whole fits cannot be compared: under flow's
    tau = 50 preset, last-bit differences part them by 0.1-1 rad within 40
    steps.  The chained one-step fits are the whole fit bit for bit."""
    full = fit_single_rotation(**args)
    x = args["x_init"]
    for k in range(args["iters"]):
        got = fit_single_rotation(**{**args, "iters": 1, "x_init": x})
        with np.errstate(all="ignore"):
            want = _ref_fit(**{**args, "iters": 1, "x_init": x})
        # the abort kind: degenerate raw vector, cut locus or non-finite gradient
        kind = [f.diagnostic.split(" at step")[0] for f in (got, want)]
        assert (got.aborted, kind[0]) == (want.aborted, kind[1])
        for field in ("errors", "norms", "x_final"):
            a, b = getattr(got, field), getattr(want, field)
            assert a.shape == b.shape and np.abs(a - b).max(initial=0.0) <= tol
        _same(got.errors, full.errors[k:k + len(got.errors)])
        _same(got.norms, full.norms[k:k + len(got.norms)])
        x = got.x_final
        if got.aborted:
            break
    assert full.aborted == got.aborted
    _same(x, full.x_final)


@pytest.mark.parametrize("rep", MANIFOLD_REPS, ids=lambda r: r.value)
def test_fit_loop(rep):
    rng = np.random.default_rng(20)
    for method in Method:
        for loss in LOSS_NAMES:
            x_init = rng.standard_normal(_ref_ambient_dim(rep))
            r_gt = _random_rotations(rng, 1)[0]
            args = dict(rep=rep, method=method, loss=loss, tau="auto", lam=0.01, seed=3,
                        iters=40, lr=0.05, x_init=x_init, r_gt=r_gt)
            # every fit records float-kernel angles and norms (math.hypot)
            _check_fit_steps(args, _NINE_D_FIT_TOL if rep is RepKind.NINE_D else _FIT_STEP_TOL)
