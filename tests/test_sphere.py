"""The batched S^2 kernel against a per-sample reference kept here.

The reference computes one raw vector at a time on the formulas of
``rotgrad.sphere``'s docstrings; tests below check the reference against
its own definitions, then the batched kernel against the reference.
"""

import math

import numpy as np
import pytest

from rotgrad.representations import DegenerateInputError
from rotgrad.rpmg import _blend
from rotgrad.sphere import (
    _row_angles,
    _s2_goal_batch,
    _s2_gradient_batch,
    _unit_rows,
)


def s2_map(x):
    """Normalize a raw 3-vector onto the unit sphere."""
    x = np.asarray(x, dtype=np.float64)
    n = float(np.linalg.norm(x))
    if n <= 1e-8:
        raise DegenerateInputError(f"vector norm {n:.3e} below 1e-8")
    return x / n


def s2_exp(x_hat, v):
    """Geodesic step cos(|v|) x_hat + sin(|v|) v/|v| for v tangent at x_hat,
    with a second-order series below |v| = 1e-6."""
    x_hat = np.asarray(x_hat, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    t2 = float(v @ v)
    t = math.sqrt(t2)
    if t < 1e-6:
        if t2 == 0.0:
            return x_hat.copy()
        return (1.0 - t2 / 2.0) * x_hat + (1.0 - t2 / 6.0) * v
    return math.cos(t) * x_hat + (math.sin(t) / t) * v


def s2_riemannian_grad(x_hat, x_hat_gt):
    """Tangent gradient 2((x_hat . x_hat_gt) x_hat - x_hat_gt) of
    ||x_hat - x_hat_gt||^2; zero at an antipodal target."""
    x_hat = np.asarray(x_hat, dtype=np.float64)
    x_hat_gt = np.asarray(x_hat_gt, dtype=np.float64)
    dot = float(x_hat @ x_hat_gt)
    if dot <= -1.0 + 1e-12:
        return np.zeros(3)
    return 2.0 * (dot * x_hat - x_hat_gt)


def s2_rpmg_gradient(x, x_hat_gt, tau, lam):
    """g = x - x_gp + lam (x_gp - x_hat_g) for one raw 3-vector."""
    x = np.asarray(x, dtype=np.float64)
    x_hat = s2_map(x)
    x_hat_g = s2_exp(x_hat, -tau * s2_riemannian_grad(x_hat, x_hat_gt))
    return _blend(x, x_hat_g, float(x @ x_hat_g) * x_hat_g, lam)


def angle_between(u, v):
    """Angle between two nonzero 3-vectors, in [0, pi]."""
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    return math.atan2(float(np.linalg.norm(np.cross(u, v))), float(u @ v))


def gradient_row(x, gt, tau, lam):
    """The batched kernel on one raw vector (B = 1)."""
    return _s2_gradient_batch(np.asarray(x)[None], np.asarray(gt)[None], tau, lam)[0]


def unit(rng):
    v = rng.standard_normal(3)
    return v / np.linalg.norm(v)


def tangent(rng, x_hat):
    v = rng.standard_normal(3)
    v -= float(v @ x_hat) * x_hat
    return v


def test_s2_map_basics():
    np.testing.assert_allclose(s2_map([0.0, 0.0, 3.0]), [0.0, 0.0, 1.0])
    rng = np.random.default_rng(0)
    for _ in range(100):
        x = rng.standard_normal(3) * rng.uniform(0.1, 5.0)
        u = s2_map(x)
        assert abs(np.linalg.norm(u) - 1.0) <= 1e-12
        np.testing.assert_allclose(s2_map(u), u, atol=1e-12)             # idempotent
        np.testing.assert_allclose(s2_map(3.7 * x), u, atol=1e-12)       # scale invariant
    with pytest.raises(DegenerateInputError):
        s2_map([1e-9, 0.0, 0.0])


def test_s2_exp_examples():
    e1, e3 = np.eye(3)[0], np.eye(3)[2]
    x = s2_map([0.3, -0.4, 0.5])
    assert np.array_equal(s2_exp(x, np.zeros(3)), x)
    np.testing.assert_allclose(s2_exp(e3, (math.pi / 2) * e1), e1, atol=1e-15)


def test_s2_exp_arc_length_and_unit():
    rng = np.random.default_rng(1)
    for _ in range(200):
        x = unit(rng)
        v = tangent(rng, x)
        v *= rng.uniform(1e-8, math.pi - 1e-3) / np.linalg.norm(v)
        y = s2_exp(x, v)
        assert abs(np.linalg.norm(y) - 1.0) <= 1e-9
        assert abs(angle_between(x, y) - np.linalg.norm(v)) <= 1e-9


def test_s2_exp_series_branch_is_continuous():
    rng = np.random.default_rng(2)
    x = unit(rng)
    v = tangent(rng, x)
    v /= np.linalg.norm(v)
    below = s2_exp(x, 0.999e-6 * v)
    above = s2_exp(x, 1.001e-6 * v)
    assert np.linalg.norm(below - above) <= 1e-8


def test_s2_grad_examples():
    e1, e3 = np.eye(3)[0], np.eye(3)[2]
    assert np.array_equal(s2_riemannian_grad(e3, e3), np.zeros(3))
    np.testing.assert_allclose(s2_riemannian_grad(e3, e1), [-2.0, 0.0, 0.0], atol=1e-15)


def test_s2_grad_tangency_and_fd():
    rng = np.random.default_rng(3)
    h = 1e-6
    for _ in range(100):
        x = unit(rng)
        gt = unit(rng)
        g = s2_riemannian_grad(x, gt)
        assert abs(float(g @ x)) <= 1e-9
        # FD in an orthonormal tangent basis
        c1 = tangent(rng, x)
        c1 /= np.linalg.norm(c1)
        c2 = np.cross(x, c1)
        for c in (c1, c2):
            f = lambda s: float(((s2_exp(x, s * c) - gt) ** 2).sum())
            fd = (f(h) - f(-h)) / (2 * h)
            assert abs(fd - float(g @ c)) <= 1e-6 * max(1.0, abs(fd))


def test_s2_grad_basis_independent():
    # ambient-form result equals the explicit tangent-basis construction for
    # any orthonormal basis of the tangent plane
    rng = np.random.default_rng(4)
    for _ in range(100):
        x = unit(rng)
        gt = unit(rng)
        c1 = tangent(rng, x)
        c1 /= np.linalg.norm(c1)
        c2 = np.cross(x, c1)
        ambient = 2.0 * (x - gt)
        built = float(ambient @ c1) * c1 + float(ambient @ c2) * c2
        np.testing.assert_allclose(s2_riemannian_grad(x, gt), built, atol=1e-12)


def test_s2_antipodal_target_is_stationary():
    e3 = np.eye(3)[2]
    assert np.array_equal(s2_riemannian_grad(e3, -e3), np.zeros(3))
    goal = _s2_goal_batch(e3[None], -e3[None], 0.3)
    assert np.array_equal(goal, e3[None])


def test_s2_gradient_batch_matches_per_sample():
    rng = np.random.default_rng(13)
    for lam in (0.0, 0.01, 0.3, 1.0):
        ys = rng.standard_normal((40, 3)) * rng.uniform(0.2, 3.0, size=(40, 1))
        ts = rng.standard_normal((40, 3))
        ts /= np.linalg.norm(ts, axis=1, keepdims=True)
        batch = _s2_gradient_batch(ys, ts, 0.3, lam)
        for i in range(40):
            single = s2_rpmg_gradient(ys[i], ts[i], 0.3, lam)
            np.testing.assert_allclose(batch[i], single, atol=1e-9)


def test_s2_gradient_batch_matches_reference_at_antipodal_rows():
    # one row exactly antipodal, one at x_hat . t = -1 + 1e-13, one regular
    t = np.array([0.0, 0.0, 1.0])
    delta = math.sqrt(2e-13)
    ys = np.array([[0.0, 0.0, -2.0], [0.7 * math.sin(delta), 0.0, -0.7 * math.cos(delta)], [1.0, 0.5, 0.2]])
    ts = np.stack([t, t, t])
    assert np.sum(ys[1] / np.linalg.norm(ys[1]) * t) <= -1.0 + 1e-12
    for lam in (0.0, 0.01, 1.0):
        batch = _s2_gradient_batch(ys, ts, 0.3, lam)
        for i in range(3):
            np.testing.assert_allclose(batch[i], s2_rpmg_gradient(ys[i], ts[i], 0.3, lam), atol=1e-12)


def test_s2_rpmg_converged_is_zero():
    rng = np.random.default_rng(5)
    for _ in range(50):
        gt = unit(rng)
        g = gradient_row(gt, gt, tau=0.5, lam=0.01)
        assert np.linalg.norm(g) <= 1e-12


def test_s2_rpmg_norm_contraction_at_lam0():
    rng = np.random.default_rng(6)
    for _ in range(500):
        x = rng.standard_normal(3) * rng.uniform(0.2, 3.0)
        gt = unit(rng)
        g = gradient_row(x, gt, tau=rng.uniform(0.05, 0.5), lam=0.0)
        x_gp = x - g
        assert np.linalg.norm(x_gp) <= np.linalg.norm(x) + 1e-12


def test_s2_rpmg_goal_tangency():
    rng = np.random.default_rng(7)
    for _ in range(200):
        x = rng.standard_normal(3) * rng.uniform(0.2, 3.0)
        gt = unit(rng)
        x_hat = s2_map(x)
        grad = s2_riemannian_grad(x_hat, gt)
        assert abs(float(grad @ x_hat)) <= 1e-9
        x_hat_g = _s2_goal_batch(_unit_rows(x[None])[0], gt[None], 0.3)[0]
        assert abs(np.linalg.norm(x_hat_g) - 1.0) <= 1e-9


def test_s2_half_step_lands_on_target():
    rng = np.random.default_rng(8)
    for theta in (1e-2, 1e-3, 1e-4):
        x = unit(rng)
        c = tangent(rng, x)
        c /= np.linalg.norm(c)
        gt = s2_exp(x, theta * c)
        landed = _s2_goal_batch(x[None], gt[None], 0.5)
        assert _row_angles(landed, gt[None])[0] <= theta ** 3


def test_row_angles_match_reference():
    rng = np.random.default_rng(10)
    us = rng.standard_normal((50, 3))
    vs = rng.standard_normal((50, 3))
    vs[0] = us[0]
    vs[1] = -2.0 * us[1]
    angles = _row_angles(us, vs)
    assert angles[0] == 0.0 and angles[1] == math.pi
    for u, v, a in zip(us, vs, angles):
        assert abs(a - angle_between(u, v)) <= 1e-15


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan], ids=["inf", "-inf", "nan"])
def test_unit_rows_names_the_first_non_finite_row(bad):
    ys = np.ones((4, 3))
    ys[2, 1] = bad
    ys[3, 0] = bad
    with pytest.raises(DegenerateInputError, match="non-finite raw output at sample 2"):
        _unit_rows(ys)
    with pytest.raises(DegenerateInputError, match="non-finite raw output at sample 2"):
        _s2_gradient_batch(ys, np.tile([0.0, 0.0, 1.0], (4, 1)), 0.5, 0.01)


def test_s2_lambda_short_circuits():
    rng = np.random.default_rng(9)
    for _ in range(20):
        x = rng.standard_normal(3)
        gt = unit(rng)
        tau = rng.uniform(0.05, 0.5)
        x_hat_g = _s2_goal_batch(_unit_rows(x[None])[0], gt[None], tau)[0]
        x_gp = np.sum(x * x_hat_g) * x_hat_g
        assert np.array_equal(gradient_row(x, gt, tau, 1.0), x - x_hat_g)
        assert np.array_equal(gradient_row(x, gt, tau, 0.0), x - x_gp)
