import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import rotgrad
from rotgrad import so3
from rotgrad.checks import _forward_map_fd, _vanilla_fd_cases
from rotgrad.harness import BLAS_THREAD_VARS
from rotgrad.representations import (
    _NINE_TO_TEN,
    _SYM4_COLS,
    _SYM4_ROWS,
    MANIFOLD_REPS,
    DegenerateInputError,
    ManifoldPoint,
    _eigh_sym4,
    _sym4_batch,
    RepKind,
    baseline_backward,
    baseline_rotation,
    embed,
    euler_xyz_to_rot,
    manifold_map,
    representation_map,
    rot_to_euler_xyz,
    rotation_map,
    rotations_from_raw,
    sym4_from_params,
    vanilla_backward_batch,
)

ALL_REPS = list(RepKind)


def random_raw(rep, rng, scale=1.0):
    x = rng.standard_normal(rep.ambient_dim) * scale
    if rep is RepKind.AXIS_ANGLE3:
        x = x / np.linalg.norm(x) * rng.uniform(0.1, 2.5)
    if rep is RepKind.EULER3:
        x = rng.uniform(-1.2, 1.2, 3)  # stay away from the asin branch edges
    return x


# axis-angle rows at the Rodrigues branch edges: theta = 0, 5e-7 (forward
# series), 5e-5 (backward series), 1 and pi - 1e-6
AXIS_ANGLE_EDGES = np.outer([0.0, 5e-7, 5e-5, 1.0, math.pi - 1e-6], [2.0 / 3.0, -1.0 / 3.0, 2.0 / 3.0])


def with_edges(rep, xs):
    return np.concatenate([xs, AXIS_ANGLE_EDGES]) if rep is RepKind.AXIS_ANGLE3 else xs


def assert_rotation(r, tol=1e-9):
    assert np.linalg.norm(r.T @ r - np.eye(3)) <= tol
    assert np.linalg.det(r) == pytest.approx(1.0, abs=tol)


# ---------------------------------------------------------------------------
# 9d reference: special orthogonalization through the SVD of M (Levinson et
# al. 2020), against which the library's eigen route is tested

def svd_special_orthogonalization(xs):
    """R = U diag(1, 1, d) V^T with d = det(U V^T), for (B, 9) rows, and the
    signed factors (U', s', V^T): U' is U with its third column times d and
    s' = (s1, s2, d s3), so M = U' diag(s') V^T and R = U' V^T."""
    u, s, vt = np.linalg.svd(np.reshape(xs, (-1, 3, 3)))
    d = np.linalg.det(u @ vt)
    u[:, :, 2] *= d[:, None]
    s[:, 2] *= d
    return u @ vt, (u, s, vt)


def svd_nine_d_backward(xs, gs):
    """dL/dx of R = U' V^T: a perturbation turns R by U' W V^T with W skew,
    W_ij = (C_ij - C_ji) / (s'_i + s'_j) and C = U'^T dM V, so
    dL/dM = U' K V^T with K_ij = (B_ij - B_ji) / (s'_i + s'_j), B = U'^T G V."""
    _, (u, s, vt) = svd_special_orthogonalization(xs)
    b = np.swapaxes(u, 1, 2) @ gs @ np.swapaxes(vt, 1, 2)
    denom = s[:, :, None] + s[:, None, :]
    denom[:, [0, 1, 2], [0, 1, 2]] = 1.0  # diagonal of B - B^T is zero
    k = (b - np.swapaxes(b, 1, 2)) / denom
    return (u @ k @ vt).reshape(-1, 9)


def nine_d_cases(rng, n):
    """n raw 9d rows, the first half with det M < 0 and the rest det M > 0."""
    xs = rng.standard_normal((n, 9))
    want = np.where(np.arange(n) < n // 2, -1.0, 1.0)
    xs[:, :3] *= (np.sign(np.linalg.det(xs.reshape(-1, 3, 3))) * want)[:, None]
    assert np.array_equal(np.sign(np.linalg.det(xs.reshape(-1, 3, 3))), want)
    return xs


# ---------------------------------------------------------------------------
# projections

def test_quat_projection_is_normalization():
    x = np.array([0.0, 2.0, 0.0, 0.0])
    assert np.allclose(manifold_map(RepKind.QUAT4, x).value, [0.0, 1.0, 0.0, 0.0])


def test_six_d_projection_orthonormal():
    rng = np.random.default_rng(0)
    for _ in range(100):
        p = manifold_map(RepKind.SIX_D, rng.standard_normal(6))
        u, v = p.value
        assert np.linalg.norm(u) == pytest.approx(1.0, abs=1e-12)
        assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)
        assert float(u @ v) == pytest.approx(0.0, abs=1e-12)


def test_nine_d_projection_fixes_rotations():
    rng = np.random.default_rng(1)
    for _ in range(50):
        r = so3.sample_uniform_rotation(rng)
        assert np.linalg.norm(manifold_map(RepKind.NINE_D, r.ravel()).value - r) <= 1e-12


def test_nine_d_projection_is_nearest_rotation():
    # projection maximizes <M, R>; compare against many random rotations
    rng = np.random.default_rng(2)
    for _ in range(20):
        m = rng.standard_normal((3, 3))
        r_star = manifold_map(RepKind.NINE_D, m.ravel()).value
        assert_rotation(r_star)
        best = float((m * r_star).sum())
        for _ in range(200):
            r = so3.sample_uniform_rotation(rng)
            assert float((m * r).sum()) <= best + 1e-12


@pytest.mark.parametrize("batch", [1, 32, 4096])
def test_nine_d_map_is_svd_special_orthogonalization(batch):
    # both routes, det M of both signs
    xs = nine_d_cases(np.random.default_rng(30 + batch), batch)
    want, _ = svd_special_orthogonalization(xs)
    rs = rotations_from_raw(RepKind.NINE_D, xs)
    assert np.abs(rs - want).max() <= 1e-12
    for x, r in zip(xs[:64], want):
        assert np.abs(baseline_rotation(RepKind.NINE_D, x) - r).max() <= 1e-12


def test_nine_d_backward_is_the_svd_closed_form():
    # relative to max(1, |dL/dx|), as vanilla-backward-fd reads it; the eigen
    # and SVD closed forms agree to about 2e-13 on these rows
    rng = np.random.default_rng(31)
    xs = nine_d_cases(rng, 4096)
    gs = rng.standard_normal((len(xs), 3, 3))
    got = vanilla_backward_batch(RepKind.NINE_D, xs, gs)
    want = svd_nine_d_backward(xs, gs)
    rel = np.linalg.norm(got - want, axis=1) / np.maximum(1.0, np.linalg.norm(want, axis=1))
    assert rel.max() <= 1e-11


def test_nine_d_projection_negative_determinant():
    rng = np.random.default_rng(3)
    m = rng.standard_normal((3, 3))
    if np.linalg.det(m) > 0:
        m[0] *= -1.0
    assert_rotation(manifold_map(RepKind.NINE_D, m.ravel()).value)


def test_ten_d_projection_recovers_quaternion():
    rng = np.random.default_rng(4)
    for _ in range(100):
        q = rng.standard_normal(4)
        q /= np.linalg.norm(q)
        q = so3.canonical_quat(q)
        x = (np.eye(4) - np.outer(q, q))[_SYM4_ROWS, _SYM4_COLS]
        assert np.allclose(manifold_map(RepKind.TEN_D, x).value, q, atol=1e-9)


def test_sym4_param_layout():
    a = sym4_from_params(np.arange(1.0, 11.0))
    assert np.array_equal(a, np.array([[1.0, 2, 3, 4],
                                       [2, 5, 6, 7],
                                       [3, 6, 8, 9],
                                       [4, 7, 9, 10]]))
    assert np.array_equal(a[_SYM4_ROWS, _SYM4_COLS], np.arange(1.0, 11.0))


@pytest.mark.parametrize("n", [9, 11])
def test_sym4_rejects_wrong_parameter_count(n):
    # too few entries must not leave (3, 3) unset, too many not be dropped
    with pytest.raises(ValueError, match=r"\(10,\)"):
        sym4_from_params(np.arange(float(n)))


def test_projection_scale_invariance():
    rng = np.random.default_rng(5)
    for rep in (RepKind.QUAT4, RepKind.SIX_D, RepKind.NINE_D):
        for _ in range(50):
            x = random_raw(rep, rng)
            k = rng.uniform(0.2, 5.0)
            a = rotation_map(manifold_map(rep, x))
            b = rotation_map(manifold_map(rep, k * x))
            assert so3.geodesic_distance(a, b) <= 1e-9


def test_six_d_gram_schmidt_invariance():
    # scaling either column positively or adding first-column multiples to the
    # second leaves the projection fixed
    rng = np.random.default_rng(6)
    for _ in range(50):
        x = rng.standard_normal(6)
        u, v = x[:3], x[3:]
        u_hat = u / np.linalg.norm(u)
        y = np.concatenate([rng.uniform(0.2, 4.0) * u,
                            rng.uniform(0.2, 4.0) * v + rng.uniform(-3, 3) * u_hat])
        a = manifold_map(RepKind.SIX_D, x).value
        b = manifold_map(RepKind.SIX_D, y).value
        assert np.allclose(a, b, atol=1e-9)


def test_degenerate_inputs_raise():
    with pytest.raises(DegenerateInputError, match="quat norm"):
        manifold_map(RepKind.QUAT4, np.zeros(4))
    with pytest.raises(DegenerateInputError, match="first-column"):
        manifold_map(RepKind.SIX_D, np.array([0.0, 0, 0, 1, 0, 0]))
    with pytest.raises(DegenerateInputError, match="Gram-Schmidt"):
        manifold_map(RepKind.SIX_D, np.array([1.0, 0, 0, 2.0, 0, 0]))
    with pytest.raises(DegenerateInputError, match="9d smallest-eigenvalue gap"):
        manifold_map(RepKind.NINE_D, np.outer([1.0, 0, 0], [1.0, 0, 0]).ravel())
    # det M < 0 with sigma2 = sigma3: the eigengap 2 (sigma2 - sigma3) is 0
    with pytest.raises(DegenerateInputError, match="9d smallest-eigenvalue gap"):
        manifold_map(RepKind.NINE_D, np.diag([2.0, 1.0, -1.0]).ravel())
    with pytest.raises(DegenerateInputError, match="eigengap|gap"):
        manifold_map(RepKind.TEN_D, np.eye(4)[_SYM4_ROWS, _SYM4_COLS])
    # a gap within rounding of the eigenvalue scale, though far above the
    # absolute floors
    for rep, x in _ROUNDING_GAP_ROWS:
        with pytest.raises(DegenerateInputError, match=f"{rep.value} smallest-eigenvalue gap"):
            manifold_map(rep, x)


def _same_eigh(a):
    """_eigh_sym4(a) and np.linalg.eigh(a) give the same dtype, shape and bytes."""
    got, ref = _eigh_sym4(a), np.linalg.eigh(a)
    for g, r in zip(got, ref):
        assert g.dtype == r.dtype and g.shape == r.shape and g.tobytes() == r.tobytes()


def test_eigh_sym4_is_numpy_eigh_byte_for_byte():
    """The private gufunc both forward routes call against the public eigh:
    a numpy whose kernel or wrapper diverges fails here."""
    rng = np.random.default_rng(30)
    a = rng.standard_normal((2000, 4, 4)) * rng.uniform(0.01, 100.0, (2000, 1, 1))
    for m in a + a.transpose(0, 2, 1):
        _same_eigh(m)
    # spectra with the two smallest eigenvalues 1e-12 to 1e-3 apart
    vecs = np.linalg.qr(rng.standard_normal((200, 4, 4)))[0]
    gaps = 10.0 ** rng.uniform(-12.0, -3.0, 200)
    lam = np.stack([np.zeros(200), gaps, gaps + 0.5, gaps + 1.5], axis=1) + rng.normal(0.0, 1.0, (200, 1))
    for m in vecs @ (lam[:, :, None] * vecs.transpose(0, 2, 1)):
        _same_eigh(m)
    b = rng.standard_normal((32, 4, 4))
    _same_eigh(b + b.transpose(0, 2, 1))
    # vanilla-backward-fd's cases: 9d rows with det < 0, 10d eigengaps in [5e-4, 2e-3]
    cases = _vanilla_fd_cases(np.random.default_rng(853), 100)
    for thetas in (cases[RepKind.NINE_D] @ _NINE_TO_TEN.T, cases[RepKind.TEN_D]):
        forms = _sym4_batch(thetas)
        _same_eigh(forms)
        for m in forms:
            _same_eigh(m)


def _large_entry_row(n, big):
    """[1, 2, ..., n - 1, big]: ordinary entries and one large one."""
    x = np.arange(1.0, n + 1.0)
    x[-1] = big
    return x


# rows whose eigengap is O(1) to 1e184 but at most 1e3 eps times A's largest
# eigenvalue magnitude; each returned a rotation set by rounding
_ROUNDING_GAP_ROWS = [(RepKind.TEN_D, _large_entry_row(10, 1e16)),
                      (RepKind.TEN_D, _large_entry_row(10, 1e200)),
                      (RepKind.NINE_D, _large_entry_row(9, 1e16)),
                      (RepKind.NINE_D, _large_entry_row(9, 1e50))]


@pytest.mark.parametrize("rep", [RepKind.NINE_D, RepKind.TEN_D], ids=lambda r: r.value)
def test_large_entry_rows_below_the_rounding_floor_reach_their_limit(rep):
    # as the last entry grows, the rotation tends to a limit; the rows at
    # 1e8 and 1e12 keep their gaps at 2.8e3 (10d) and 5.7e4 (9d) times the
    # rounding floor's eps scale and agree on that limit on both routes
    n = rep.ambient_dim
    xs = np.stack([_large_entry_row(n, 1e8), _large_entry_row(n, 1e12)])
    rs = rotations_from_raw(rep, xs)
    for x, r in zip(xs, rs):
        assert np.array_equal(rotation_map(manifold_map(rep, x)), r)
    assert np.abs(rs[0] - rs[1]).max() <= 2e-4


def test_wrong_dimension_raises():
    with pytest.raises(ValueError):
        manifold_map(RepKind.QUAT4, np.zeros(3))


# ---------------------------------------------------------------------------
# round trips

@pytest.mark.parametrize("rep", ALL_REPS, ids=lambda r: r.value)
def test_rotation_representation_roundtrip(rep):
    rng = np.random.default_rng(7)
    for _ in range(100):
        r = so3.sample_uniform_rotation(rng)
        back = rotation_map(representation_map(r, rep))
        assert np.linalg.norm(back - r) <= 1e-9


@pytest.mark.parametrize("rep", ALL_REPS, ids=lambda r: r.value)
def test_embed_is_projection_fixed_point(rep):
    rng = np.random.default_rng(8)
    for _ in range(50):
        r = so3.sample_uniform_rotation(rng)
        x = embed(representation_map(r, rep))
        assert x.shape == (rep.ambient_dim,)
        assert so3.geodesic_distance(baseline_rotation(rep, x), r) <= 1e-9
        p = manifold_map(rep, x)
        r2 = rotation_map(p)
        assert so3.geodesic_distance(r2, r) <= 1e-9


def test_projection_idempotent():
    rng = np.random.default_rng(9)
    for rep in MANIFOLD_REPS:
        for _ in range(30):
            x = random_raw(rep, rng)
            p1 = manifold_map(rep, x)
            p2 = manifold_map(rep, embed(p1))
            assert np.allclose(embed(p1), embed(p2), atol=1e-9)


def test_euler_convention():
    a, b, c = 0.3, -0.7, 1.1
    r = euler_xyz_to_rot((a, b, c))
    assert np.allclose(r, so3.rot_x(a) @ so3.rot_y(b) @ so3.rot_z(c), atol=1e-15)
    assert np.allclose(rot_to_euler_xyz(r), [a, b, c], atol=1e-12)
    assert np.allclose(baseline_rotation(RepKind.EULER3, np.array([a, 0.0, 0.0])),
                       so3.rot_x(a), atol=1e-15)


def test_axis_angle_forward():
    r = baseline_rotation(RepKind.AXIS_ANGLE3, np.array([0.0, 0.0, math.pi / 2]))
    assert np.allclose(r, so3.rot_z(math.pi / 2), atol=1e-12)


# ---------------------------------------------------------------------------
# batched paths agree with per-sample paths

@pytest.mark.parametrize("rep", ALL_REPS, ids=lambda r: r.value)
def test_batched_forward_matches_single(rep):
    rng = np.random.default_rng(10)
    xs = with_edges(rep, np.stack([random_raw(rep, rng) for _ in range(64)]))
    rs = rotations_from_raw(rep, xs)
    for i in range(len(xs)):
        assert so3.geodesic_distance(rs[i], baseline_rotation(rep, xs[i])) <= 1e-9
        if rep is RepKind.AXIS_ANGLE3:
            assert np.max(np.abs(rs[i] - so3.exp_so3(np.eye(3), xs[i]))) <= 1e-12


@pytest.mark.parametrize("rep", [RepKind.NINE_D, RepKind.TEN_D], ids=lambda r: r.value)
@pytest.mark.parametrize("batch", [1, 32])
def test_nine_ten_d_forward_is_the_batched_map_byte_for_byte(rep, batch):
    # same numpy factorization, same guard, same arithmetic on both routes
    xs = _factor_cases(rep, np.random.default_rng(11))[:batch]
    rs = rotations_from_raw(rep, xs)
    assert np.array_equal(np.stack([baseline_rotation(rep, x) for x in xs]), rs)


def test_nine_d_negative_det_sigma_tie_is_the_same_on_both_routes():
    # det M < 0 with sigma2 = sigma3: both forward routes reject the tie,
    # where the eigengap 2 (sigma2 - sigma3) vanishes and the projection jumps
    m = np.diag([2.0, 1.0, -1.0]).ravel()
    text = _message(lambda: baseline_rotation(RepKind.NINE_D, m))
    assert text.startswith("9d smallest-eigenvalue gap 0.000e+00")
    assert _message(lambda: rotations_from_raw(RepKind.NINE_D, m[None])).endswith("sample 0")


def test_batched_forward_rejects_degenerate():
    xs = np.zeros((3, 4))
    xs[0] = [1.0, 0, 0, 0]
    with pytest.raises(DegenerateInputError, match="sample 1"):
        rotations_from_raw(RepKind.QUAT4, xs)


@pytest.mark.parametrize("rep", ALL_REPS, ids=lambda r: r.value)
def test_batched_backward_matches_single(rep):
    rng = np.random.default_rng(11)
    xs = with_edges(rep, np.stack([random_raw(rep, rng) for _ in range(16)]))
    gs = rng.standard_normal((len(xs), 3, 3))
    out = vanilla_backward_batch(rep, xs, gs)
    for i in range(len(xs)):
        assert np.allclose(out[i], baseline_backward(rep, xs[i], gs[i]), atol=1e-9)


# ---------------------------------------------------------------------------
# chain rule against finite differences of a scalar functional

@pytest.mark.parametrize("rep", ALL_REPS, ids=lambda r: r.value)
def test_baseline_backward_matches_fd(rep):
    rng = np.random.default_rng(12)
    h = 1e-6
    for _ in range(100):
        x = random_raw(rep, rng)
        w = rng.standard_normal((3, 3))  # L(R) = <W, R>, dL/dR = W

        got = baseline_backward(rep, x, w)
        fd = np.empty(rep.ambient_dim)
        for k in range(rep.ambient_dim):
            e = np.zeros(rep.ambient_dim)
            e[k] = h
            lp = float((w * baseline_rotation(rep, x + e)).sum())
            lm = float((w * baseline_rotation(rep, x - e)).sum())
            fd[k] = (lp - lm) / (2.0 * h)
        assert np.linalg.norm(got - fd) <= 1e-4 * max(1.0, np.linalg.norm(fd))


# ---------------------------------------------------------------------------
# closed-form 9d/10d backward

@pytest.mark.parametrize("rep", [RepKind.NINE_D, RepKind.TEN_D], ids=lambda r: r.value)
def test_closed_form_backward_matches_fd_batched(rep):
    rng = np.random.default_rng(13)
    for _ in range(10):
        xs = rng.standard_normal((32, rep.ambient_dim))
        if rep is RepKind.NINE_D:
            xs[:16, :3] *= -np.sign(np.linalg.det(xs[:16].reshape(-1, 3, 3)))[:, None]
            assert (np.linalg.det(xs[:16].reshape(-1, 3, 3)) < 0).all()
        gs = rng.standard_normal((32, 3, 3))
        got = vanilla_backward_batch(rep, xs, gs)
        fd = _forward_map_fd(rep, xs, gs, 1e-6)
        rel = np.linalg.norm(got - fd, axis=1) / np.maximum(1.0, np.linalg.norm(fd, axis=1))
        assert rel.max() <= 1e-6


def _quat_backward_explicit_jacobian(xs, gs):
    """The quaternion chain rule through an explicit (B, 4, 3, 3) dR/dq."""
    n = np.linalg.norm(xs, axis=1)
    q = xs / n[:, None]
    q0, q1, q2, q3 = q.T
    z = np.zeros_like(q0)
    dr = 2.0 * np.stack([
        np.stack([np.stack([2 * q0, -q3, q2], -1), np.stack([q3, 2 * q0, -q1], -1),
                  np.stack([-q2, q1, 2 * q0], -1)], -2),
        np.stack([np.stack([2 * q1, q2, q3], -1), np.stack([q2, z, -q0], -1),
                  np.stack([q3, q0, z], -1)], -2),
        np.stack([np.stack([z, q1, q0], -1), np.stack([q1, 2 * q2, q3], -1),
                  np.stack([-q0, q3, z], -1)], -2),
        np.stack([np.stack([z, -q0, q1], -1), np.stack([q0, z, q2], -1),
                  np.stack([q1, q2, 2 * q3], -1)], -2)], axis=1)
    gq = np.einsum('bij,bkij->bk', gs, dr)
    return (gq - np.einsum('bk,bk->b', gq, q)[:, None] * q) / n[:, None]


def test_quat_backward_matches_explicit_jacobian():
    rng = np.random.default_rng(14)
    xs = rng.standard_normal((256, 4)) * rng.uniform(0.1, 10.0, (256, 1))
    gs = rng.standard_normal((256, 3, 3))
    got = vanilla_backward_batch(RepKind.QUAT4, xs, gs)
    assert np.abs(got - _quat_backward_explicit_jacobian(xs, gs)).max() <= 1e-12


def test_vanilla_backward_makes_no_forward_call(monkeypatch):
    import rotgrad.representations as reps

    rng = np.random.default_rng(15)
    cases = {rep: np.stack([random_raw(rep, rng) for _ in range(8)]) for rep in ALL_REPS}

    def forbidden(rep, xs):
        raise AssertionError(f"forward map called from the {rep.value} backward")

    monkeypatch.setattr(reps, "rotations_from_raw", forbidden)
    for rep, xs in cases.items():
        out = reps.vanilla_backward_batch(rep, xs, rng.standard_normal((8, 3, 3)))
        assert out.shape == xs.shape and np.isfinite(out).all()


def test_nine_d_backward_rejects_negative_det_sigma_tie():
    # det M < 0 with sigma2 = sigma3: R = U diag(1, 1, -1) V^T jumps here,
    # and the backward raises the forward's guard
    xs = np.stack([np.eye(3).ravel(), np.diag([2.0, 1.0, -1.0]).ravel()])
    with pytest.raises(DegenerateInputError, match="9d smallest-eigenvalue gap .* sample 1"):
        rotations_from_raw(RepKind.NINE_D, xs)
    with pytest.raises(DegenerateInputError, match="9d smallest-eigenvalue gap .* sample 1"):
        vanilla_backward_batch(RepKind.NINE_D, xs, np.ones((2, 3, 3)))


def test_closed_form_backward_keeps_forward_guards():
    xs9 = np.stack([np.eye(3).ravel(), np.outer([1.0, 0, 0], [1.0, 0, 0]).ravel()])
    with pytest.raises(DegenerateInputError, match="9d smallest-eigenvalue gap .* sample 1"):
        vanilla_backward_batch(RepKind.NINE_D, xs9, np.ones((2, 3, 3)))
    xs10 = np.stack([np.diag([0.0, 1.0, 2.0, 3.0]), np.eye(4)])[:, _SYM4_ROWS, _SYM4_COLS]
    with pytest.raises(DegenerateInputError, match="10d smallest-eigenvalue gap .* sample 1"):
        vanilla_backward_batch(RepKind.TEN_D, xs10, np.ones((2, 3, 3)))


# ---------------------------------------------------------------------------
# the backward reads the forward's factors

def _factor_cases(rep, rng):
    """B = 32 raw rows; 9d rows 0-15 have det M < 0, 10d rows 0-7 an
    eigengap of 1e-8, a hundred times the guard."""
    xs = np.stack([random_raw(rep, rng) for _ in range(32)])
    if rep is RepKind.NINE_D:
        xs[:16, :3] *= -np.sign(np.linalg.det(xs[:16].reshape(-1, 3, 3)))[:, None]
        assert (np.linalg.det(xs[:16].reshape(-1, 3, 3)) < 0).all()
    if rep is RepKind.TEN_D:
        for i in range(8):
            q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
            xs[i] = (q @ np.diag([0.5, 0.5 + 1e-8, 1.5, 2.0]) @ q.T)[_SYM4_ROWS, _SYM4_COLS]
        gaps = np.diff(np.linalg.eigvalsh(np.stack([sym4_from_params(x) for x in xs[:8]]))[:, :2])
        assert (gaps > 1e-10).all() and (gaps < 1e-7).all()
    return xs


@pytest.mark.parametrize("rep", ALL_REPS, ids=lambda r: r.value)
def test_backward_given_forward_factors_is_bit_identical(rep):
    rng = np.random.default_rng(16)
    xs = _factor_cases(rep, rng)
    gs = rng.standard_normal((32, 3, 3))
    rs, factors = rotations_from_raw(rep, xs, return_factors=True)
    assert np.array_equal(rs, rotations_from_raw(rep, xs))
    got = vanilla_backward_batch(rep, xs, gs, factors)
    assert np.array_equal(got, vanilla_backward_batch(rep, xs, gs))
    assert np.isfinite(got).all()


def _message(fn):
    with pytest.raises(DegenerateInputError) as info:
        fn()
    return str(info.value)


@pytest.mark.parametrize("rep, bad", [
    (RepKind.QUAT4, np.zeros(4)),
    (RepKind.SIX_D, np.array([0.0, 0, 0, 1, 0, 0])),
    (RepKind.SIX_D, np.array([1.0, 0, 0, 2, 0, 0])),
    (RepKind.NINE_D, np.outer([1.0, 0, 0], [1.0, 0, 0]).ravel()),
    (RepKind.NINE_D, np.diag([2.0, 1.0, -1.0]).ravel()),
    (RepKind.TEN_D, np.eye(4)[_SYM4_ROWS, _SYM4_COLS]),
    *_ROUNDING_GAP_ROWS,
], ids=["quat-norm", "6d-first-column", "6d-gram-schmidt", "9d-sigma-sum", "9d-negative-det-tie",
        "10d-eigengap", "10d-rounding-gap-1e16", "10d-rounding-gap-1e200", "9d-rounding-gap-1e16",
        "9d-rounding-gap-1e50"])
def test_factors_raise_every_forward_guard_with_the_same_text(rep, bad):
    xs = np.stack([embed(representation_map(np.eye(3), rep)), bad])
    gs = np.ones((2, 3, 3))
    text = _message(lambda: vanilla_backward_batch(rep, xs, gs))
    assert "sample 1" in text
    assert _message(lambda: rotations_from_raw(rep, xs, return_factors=True)) == text


def test_factors_keep_the_nine_d_negative_det_sigma_tie_guard():
    # the forward rejects the tie, so no factors of it reach a backward
    xs = np.stack([np.eye(3).ravel(), np.diag([2.0, 1.0, -1.0]).ravel()])
    gs = np.ones((2, 3, 3))
    text = _message(lambda: rotations_from_raw(RepKind.NINE_D, xs, return_factors=True))
    assert text.startswith("9d smallest-eigenvalue gap") and text.endswith("sample 1")
    assert _message(lambda: vanilla_backward_batch(RepKind.NINE_D, xs, gs)) == text


def test_inline_cross_matches_numpy_cross_byte_for_byte():
    from rotgrad.representations import _cross_batch

    edges = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 1e-310, -1e-310, 1.5])
    rng = np.random.default_rng(17)
    a = rng.choice(edges, size=(4096, 3))
    b = rng.choice(edges, size=(4096, 3))
    with np.errstate(invalid="ignore", over="ignore", under="ignore"):
        got, ref = _cross_batch(a, b), np.cross(a, b)
    assert got.tobytes() == ref.tobytes()


# ---------------------------------------------------------------------------
# non-finite raw vectors: each case runs in a child process under a timeout,
# since a LAPACK call can hang on a matrix with an inf entry (OpenBLAS's 3x3
# SVD did) and a regression must fail the suite rather than stall it

_CHILD_TIMEOUT_S = 60.0

_NON_FINITE_CHILD = """
import sys
import numpy as np
from rotgrad.representations import (DegenerateInputError, RepKind, baseline_backward,
    baseline_rotation, embed, manifold_map, representation_map, rotations_from_raw,
    vanilla_backward_batch)

rep = RepKind(sys.argv[1])
base = embed(representation_map(np.eye(3), rep)) + 0.25
routes = {
    "manifold_map": lambda x: manifold_map(rep, x),
    "baseline_rotation": lambda x: baseline_rotation(rep, x),
    "baseline_backward": lambda x: baseline_backward(rep, x, np.ones((3, 3))),
    "rotations_from_raw": lambda x: rotations_from_raw(rep, np.stack([base, x])),
    "vanilla_backward_batch": lambda x: vanilla_backward_batch(
        rep, np.stack([base, x]), np.ones((2, 3, 3))),
}
for value in map(float, sys.argv[2:]):
    for slot in range(rep.ambient_dim):
        x = base.copy()
        x[slot] = value
        for name, route in routes.items():
            try:
                route(x)
                print(f"{name} {value} slot {slot}: returned")
            except DegenerateInputError as exc:
                batched = name in ("rotations_from_raw", "vanilla_backward_batch")
                if batched and not str(exc).endswith("at sample 1"):
                    print(f"{name} {value} slot {slot}: {exc}")
            except Exception as exc:
                print(f"{name} {value} slot {slot}: {type(exc).__name__}")
print("done")
"""

_TRAIN_ABORT_CHILD = """
import sys
import numpy as np
from rotgrad import Method, nn
from rotgrad.harness import ExperimentConfig, train
from rotgrad.representations import RepKind

# the last row's first entries take the values given
where, method, values = sys.argv[1], Method(sys.argv[2]), list(map(float, sys.argv[3:]))
config = ExperimentConfig(rep=RepKind.NINE_D, method=method, iters=4, eval_every=2,
                          n_rotations=64)
forward = nn.forward
calls = []

def overflowing(mlp, x, **kwargs):
    ys, cache = forward(mlp, x, **kwargs)
    calls.append(len(x))
    # the first call calibrates the output head
    if len(calls) > 1 and (where == "batch") == (len(x) == config.batch):
        ys[-1, :len(values)] = values
    return ys, cache

nn.forward = overflowing
report = train(config)
print(report.aborted, report.diagnostic)
"""


def _run_child(code, *args):
    """The child's output lines; the test fails if it runs past the timeout."""
    env = {**os.environ, **dict.fromkeys(BLAS_THREAD_VARS, "1")}
    src = str(Path(rotgrad.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    try:
        done = subprocess.run([sys.executable, "-c", code, *args], env=env, text=True,
                              capture_output=True, timeout=_CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        pytest.fail(f"no answer within {_CHILD_TIMEOUT_S} s for {args}", pytrace=False)
    assert done.returncode == 0, done.stderr
    return done.stdout.strip().splitlines()


@pytest.mark.parametrize("values", [("inf", "-inf"), ("nan",)], ids=["inf", "nan"])
@pytest.mark.parametrize("rep", ALL_REPS, ids=lambda r: r.value)
def test_non_finite_raw_vectors_raise_degenerate_on_both_routes(rep, values):
    # every entry of a valid raw vector in turn, on the per-sample and the
    # batched forward and backward maps
    assert _run_child(_NON_FINITE_CHILD, rep.value, *values) == ["done"]


@pytest.mark.parametrize("method", ["vanilla", "rpmg"])
@pytest.mark.parametrize("where, diagnostic", [
    ("eval", "degenerate raw output in evaluation at iteration 0: 9d: non-finite raw output at sample 12"),
    ("batch", "degenerate sample at iteration 0: 9d: non-finite raw output at sample 31"),
], ids=["eval", "batch"])
def test_train_aborts_on_a_non_finite_nine_d_output(method, where, diagnostic):
    assert _run_child(_TRAIN_ABORT_CHILD, where, method, "inf") == [f"True {diagnostic}"]


_OVERFLOW_FIT_CHILD = """
import numpy as np
from rotgrad.harness import fit_single_rotation
from rotgrad.representations import DegenerateInputError, RepKind, manifold_map

x = np.full(9, 1e308)
try:
    manifold_map(RepKind.NINE_D, x)
except DegenerateInputError as exc:
    print(exc)
fit = fit_single_rotation(RepKind.NINE_D, x_init=x)
print(fit.aborted, fit.diagnostic)
"""


def test_fit_aborts_on_an_overflowing_nine_d_raw_vector():
    # a finite x whose theta = L x overflows: the eigensolver returns a NaN
    # spectrum, whose NaN gap fails the per-sample guard
    message = "9d smallest-eigenvalue gap nan below 2e-08"
    assert _run_child(_OVERFLOW_FIT_CHILD) == [
        message, f"True degenerate raw vector at step 0: {message}"]


@pytest.mark.parametrize("method", ["vanilla", "rpmg"])
@pytest.mark.parametrize("where, diagnostic", [
    ("eval", "degenerate raw output in evaluation at iteration 0: "
             "9d smallest-eigenvalue gap below 2e-08 at sample 12"),
    ("batch", "degenerate sample at iteration 0: 9d smallest-eigenvalue gap below 2e-08 at sample 31"),
], ids=["eval", "batch"])
def test_train_aborts_on_an_overflowing_nine_d_output(method, where, diagnostic):
    # the batched guard: a finite row whose theta overflows has a NaN gap
    assert _run_child(_TRAIN_ABORT_CHILD, where, method, *["1e308"] * 9) == [f"True {diagnostic}"]
