"""The per-sample route against its earlier numpy-scalar form, byte for byte.

Each ``_ref_*`` function below is the previous implementation of a
per-sample primitive, kept verbatim apart from calling the other references
instead of the library.  The rewrites read their scalars once with
``tolist()`` and do the scalar arithmetic on Python floats; ``@``, ``dot``
and ``numpy.linalg`` stay numpy calls.  On every input they must return the
same bytes (dtype, shape and strides included) or, where the reference
raises, raise an exception of the same type.  The inputs are random ones and
edge ones: exact pi rotations with tied diagonals, q0 = 0 ties, -0.0
entries, rotation angles below ``_SMALL_ANGLE`` and exactly 0, matrices
that are not rotations, NaN, inf and finite values whose squares overflow,
and strided views.

A NaN result matches any NaN.  Where an add or a multiply has two NaN
operands, the sign bit the result keeps depends on the operand order of the
compiled instruction, which IEEE 754 leaves open: numpy's scalar add and
CPython's specialized float add keep different ones, so an input such as
q = (-inf, nan, -0.0, 0.0) gives NaNs of opposite sign on the two routes.
"""

import math

import numpy as np
import pytest

from rotgrad import rpmg, so3
from rotgrad import representations as reps
from rotgrad.harness import FitResult, _resolve_tau, _spawn_rngs, fit_single_rotation
from rotgrad.representations import (
    GRAM_RESIDUAL_MIN,
    EIGENGAP_MIN,
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
        u, s, vt = np.linalg.svd(x.reshape(3, 3))
        if s[1] + s[2] <= SIGMA_SUM_MIN:
            raise DegenerateInputError(
                f"9d singular values sigma2+sigma3 = {s[1] + s[2]:.3e} below {SIGMA_SUM_MIN:.0e}")
        u[:, 2] *= np.linalg.det(u @ vt)
        return ManifoldPoint(rep, u @ vt)

    vals, vecs = np.linalg.eigh(reps.sym4_from_params(x))
    gap = float(vals[1] - vals[0])
    if gap <= EIGENGAP_MIN:
        raise DegenerateInputError(f"10d smallest-eigenvalue gap {gap:.3e} below {EIGENGAP_MIN:.0e}")
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
    if x.shape != (_ref_ambient_dim(rep),) or not np.isfinite(x).all():
        raise ValueError(f"{rep.value}: need a finite ({_ref_ambient_dim(rep)},) vector")
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
    m = rpmg.constraint_rows(q)
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

def test_hat_and_rodrigues():
    for phi in _phis():
        _check(so3.hat, _ref_hat, phi)
        _check(so3._rodrigues, _ref_rodrigues, phi)
        _check(so3.exp_so3, _ref_exp_so3, EDGE_ROTATIONS[5], phi)
    _check(so3.hat, _ref_hat, (0.0, -0.0, 2))  # a sequence, as hat accepts


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


def test_geodesic_distance():
    mats = _matrices(10)
    rng = np.random.default_rng(11)
    for r1, r2 in zip(mats, mats[rng.permutation(len(mats))]):
        _check(so3.geodesic_distance, _ref_geodesic_distance, r1, r2)
    for r in EDGE_ROTATIONS:
        _check(so3.geodesic_distance, _ref_geodesic_distance, np.eye(3), r)
        _check(so3.geodesic_distance, _ref_geodesic_distance, r, r)


# ---------------------------------------------------------------------------
# representations

def test_ambient_dim_table():
    for rep in RepKind:
        assert rep.ambient_dim == _ref_ambient_dim(rep)


@pytest.mark.parametrize("rep", list(RepKind), ids=lambda r: r.value)
def test_manifold_map_and_rotation_map(rep):
    n = _ref_ambient_dim(rep)
    xs = _vectors(12 + n, n)
    if rep is RepKind.NINE_D:
        # np.linalg.svd never returns on a 3x3 matrix with an inf entry
        xs = xs[~np.isinf(xs).any(axis=1)]
    # near the quat and 6d guards, and rank-deficient 9d inputs
    tiny = np.concatenate([np.full((1, n), 1e-9), np.full((1, n), 0.4e-8)])
    for x in np.concatenate([xs, tiny]):
        _check(reps.manifold_map, _ref_manifold_map, rep, x)
        _check(reps.baseline_rotation, _ref_baseline_rotation, rep, x)
    wide = np.ascontiguousarray(xs[:8].T)  # (n, 8): its columns are strided views
    for j in range(wide.shape[1]):
        _check(reps.manifold_map, _ref_manifold_map, rep, wide[:, j])


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
        _check(riemannian_grad, _ref_riemannian_grad, r, g)


def test_finite_ambient():
    for rep in MANIFOLD_REPS:
        n = _ref_ambient_dim(rep)
        for x in _vectors(16, n):
            _check(rpmg._finite_ambient, _ref_finite_ambient, rep, x)
        _check(rpmg._finite_ambient, _ref_finite_ambient, rep, np.zeros(n + 1))


@pytest.mark.parametrize("rep", MANIFOLD_REPS, ids=lambda r: r.value)
def test_goal_terms(rep):
    rng = np.random.default_rng(17)
    n = _ref_ambient_dim(rep)
    rots = np.concatenate([_random_rotations(rng, 48), EDGE_ROTATIONS])
    xs = rng.standard_normal((len(rots), n))
    xs[::7] = np.where(xs[::7] > 0.5, -0.0, xs[::7])
    for x, r_g in zip(xs, rots):
        _check(rpmg._goal_terms, _ref_goal_terms, rep, x, r_g)


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


@pytest.mark.parametrize("rep", MANIFOLD_REPS, ids=lambda r: r.value)
@pytest.mark.parametrize("method", list(Method), ids=lambda m: m.value)
def test_rpmg_gradient(rep, method):
    params = RpmgParams(method=method, lam=0.01)
    points = np.random.default_rng(18).uniform(-1.0, 1.0, size=(16, 3))
    for x, r_gt in _gradient_cases(rep, 19):
        r = _ref_baseline_rotation(rep, x)
        for loss in LOSS_NAMES:
            loss_inst = make_loss(loss, r_gt, points)
            for tau, cap in ((0.25, None), (0.5, 1.0), (50.0, None), (3.0, 0.3)):
                _check(rpmg.rpmg_gradient, _ref_rpmg_gradient,
                       rep, x, r, loss_inst, tau, params, cap)
    bad = np.full(_ref_ambient_dim(rep), np.nan)
    _check(rpmg.rpmg_gradient, _ref_rpmg_gradient, rep, bad, np.eye(3),
           L2Frobenius(np.eye(3)), 0.25, params, None)


# ---------------------------------------------------------------------------
# the fit loop

@pytest.mark.parametrize("rep", MANIFOLD_REPS, ids=lambda r: r.value)
def test_fit_loop(rep):
    rng = np.random.default_rng(20)
    for method in Method:
        for loss in LOSS_NAMES:
            x_init = rng.standard_normal(_ref_ambient_dim(rep))
            r_gt = _random_rotations(rng, 1)[0]
            args = dict(rep=rep, method=method, loss=loss, tau="auto", lam=0.01, seed=3,
                        iters=40, lr=0.05, x_init=x_init, r_gt=r_gt)
            with np.errstate(all="ignore"):
                want = _ref_fit(**args)
            got = fit_single_rotation(**args)
            assert (got.aborted, got.diagnostic) == (want.aborted, want.diagnostic)
            for field in ("errors", "norms", "r_gt", "x_final"):
                _same(getattr(got, field), getattr(want, field))
