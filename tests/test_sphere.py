import math

import numpy as np
import pytest

from rotgrad.representations import DegenerateInputError
from rotgrad.sphere import (
    _s2_gradient_batch,
    angle_between,
    antipodal_event_count,
    reset_antipodal_event_count,
    s2_exp,
    s2_map,
    s2_riemannian_grad,
    s2_rpmg_gradient,
)


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


def test_s2_antipodal_counted():
    reset_antipodal_event_count()
    e3 = np.eye(3)[2]
    g = s2_riemannian_grad(e3, -e3)
    assert np.array_equal(g, np.zeros(3))
    assert antipodal_event_count() == 1
    reset_antipodal_event_count()
    assert antipodal_event_count() == 0


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


def test_s2_gradient_batch_counts_antipodal_rows():
    # one row exactly antipodal, one at x_hat . t = -1 + 1e-13, one regular
    t = np.array([0.0, 0.0, 1.0])
    delta = math.sqrt(2e-13)
    ys = np.array([[0.0, 0.0, -2.0], [0.7 * math.sin(delta), 0.0, -0.7 * math.cos(delta)], [1.0, 0.5, 0.2]])
    ts = np.stack([t, t, t])
    assert np.sum(ys[1] / np.linalg.norm(ys[1]) * t) <= -1.0 + 1e-12
    for lam in (0.0, 0.01, 1.0):
        reset_antipodal_event_count()
        batch = _s2_gradient_batch(ys, ts, 0.3, lam)
        assert antipodal_event_count() == 2
        for i in range(3):
            np.testing.assert_allclose(batch[i], s2_rpmg_gradient(ys[i], ts[i], 0.3, lam), atol=1e-12)
    reset_antipodal_event_count()


def test_s2_rpmg_converged_is_zero():
    rng = np.random.default_rng(5)
    for _ in range(50):
        gt = unit(rng)
        g = s2_rpmg_gradient(gt, gt, tau=0.5, lam=0.01)
        assert np.linalg.norm(g) <= 1e-12


def test_s2_rpmg_norm_contraction_at_lam0():
    rng = np.random.default_rng(6)
    for _ in range(500):
        x = rng.standard_normal(3) * rng.uniform(0.2, 3.0)
        gt = unit(rng)
        g = s2_rpmg_gradient(x, gt, tau=rng.uniform(0.05, 0.5), lam=0.0)
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
        x_hat_g = s2_exp(x_hat, -0.3 * grad)
        assert abs(np.linalg.norm(x_hat_g) - 1.0) <= 1e-9


def test_s2_half_step_lands_on_target():
    rng = np.random.default_rng(8)
    for theta in (1e-2, 1e-3, 1e-4):
        x = unit(rng)
        c = tangent(rng, x)
        c /= np.linalg.norm(c)
        gt = s2_exp(x, theta * c)
        grad = s2_riemannian_grad(x, gt)
        landed = s2_exp(x, -0.5 * grad)
        assert angle_between(landed, gt) <= theta ** 3


def test_s2_lambda_short_circuits():
    rng = np.random.default_rng(9)
    for _ in range(20):
        x = rng.standard_normal(3)
        gt = unit(rng)
        tau = rng.uniform(0.05, 0.5)
        x_hat = s2_map(x)
        x_hat_g = s2_exp(x_hat, -tau * s2_riemannian_grad(x_hat, gt))
        x_gp = float(x @ x_hat_g) * x_hat_g
        assert np.array_equal(s2_rpmg_gradient(x, gt, tau, 1.0), x - x_hat_g)
        assert np.array_equal(s2_rpmg_gradient(x, gt, tau, 0.0), x - x_gp)
