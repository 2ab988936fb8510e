import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from rotgrad import riemannian, so3
from rotgrad.riemannian import (
    Chamfer,
    CutLocusError,
    Flow,
    GeodesicSquared,
    L2Frobenius,
    NoAnalyticTauError,
    TauSchedule,
    euclid_grad,
    euclid_grad_batch,
    goal_rotation,
    loss_value,
    riemannian_grad,
    tau_at,
    tau_converge_for,
    tau_gt_l2,
)


def rotations(seed, n):
    rng = np.random.default_rng(seed)
    return [so3.sample_uniform_rotation(rng) for _ in range(n)]


def make_loss(name, r_gt, rng):
    if name == "l2":
        return L2Frobenius(r_gt)
    if name == "geodesic":
        return GeodesicSquared(r_gt)
    if name == "flow":
        return Flow(r_gt, rng.uniform(-1, 1, (3, 24)))
    pts = rng.uniform(-1, 1, (24, 3))
    return Chamfer(pts, pts @ r_gt.T + rng.normal(0, 0.05, (24, 3)))


# ---------------------------------------------------------------------------
# loss values

def test_l2_matches_chordal_identity():
    for r1, r2 in zip(rotations(0, 20), rotations(1, 20)):
        d = so3.geodesic_distance(r1, r2)
        assert loss_value(L2Frobenius(r2), r1) == pytest.approx(4 - 4 * math.cos(d), abs=1e-8)


def test_losses_vanish_at_target():
    rng = np.random.default_rng(2)
    r = rotations(3, 1)[0]
    pts = rng.uniform(-1, 1, (16, 3))
    assert loss_value(L2Frobenius(r), r) == 0.0
    assert loss_value(GeodesicSquared(r), r) == 0.0
    assert loss_value(Flow(r, pts.T), r) == 0.0
    # perfectly aligned observation: chamfer distance and gradient are zero
    cham = Chamfer(pts, pts @ r.T)
    assert loss_value(cham, r) == pytest.approx(0.0, abs=1e-12)
    assert np.allclose(euclid_grad(cham, r), 0.0, atol=1e-9)


def test_point_set_size_limit():
    with pytest.raises(ValueError):
        Flow(np.eye(3), np.zeros((3, 5000)))
    with pytest.raises(ValueError):
        Chamfer(np.zeros((5000, 3)), np.zeros((4, 3)))


# ---------------------------------------------------------------------------
# Euclidean gradients against finite differences

def fd_grad(fn, r, h=1e-6):
    g = np.empty((3, 3))
    for i in range(3):
        for j in range(3):
            e = np.zeros((3, 3))
            e[i, j] = h
            g[i, j] = (fn(r + e) - fn(r - e)) / (2 * h)
    return g


@pytest.mark.parametrize("name", ["l2", "flow", "chamfer"])
def test_euclid_grad_matches_fd(name):
    rng = np.random.default_rng(4)
    for k in range(30):
        r = so3.sample_uniform_rotation(rng)
        loss = make_loss(name, so3.sample_uniform_rotation(rng), rng)
        if name == "chamfer":
            # stay away from correspondence switches: both nearest-neighbor
            # margins must be wide relative to the FD step
            _, d2 = None, ((loss.canonical[:, None, :] - (loss.observed @ r)[None]) ** 2).sum(-1)
            part = np.partition(d2, 1, axis=1)
            if (part[:, 1] - part[:, 0]).min() < 1e-3:
                continue
        got = euclid_grad(loss, r)
        fd = fd_grad(lambda m: loss_value(loss, m), r)
        assert np.linalg.norm(got - fd) <= 1e-4 * max(1.0, np.linalg.norm(fd))


def test_geodesic_grad_matches_fd():
    # FD the defining formula directly; loss_value assumes rotation inputs
    rng = np.random.default_rng(5)
    checked = 0
    while checked < 30:
        r, r_gt = so3.sample_uniform_rotation(rng), so3.sample_uniform_rotation(rng)
        theta = so3.geodesic_distance(r, r_gt)
        if not 0.1 < theta < math.pi - 0.2:
            continue
        checked += 1

        def f(m):
            return math.acos(max(-1.0, min(1.0, (np.trace(r_gt.T @ m) - 1) / 2))) ** 2

        got = euclid_grad(GeodesicSquared(r_gt), r)
        fd = fd_grad(f, r)
        assert np.linalg.norm(got - fd) <= 1e-4 * max(1.0, np.linalg.norm(fd))


def test_geodesic_grad_small_angle_branch():
    r_gt = rotations(6, 1)[0]
    near = so3.exp_so3(r_gt, np.array([1e-8, 0, 0]))
    assert np.allclose(euclid_grad(GeodesicSquared(r_gt), near), -r_gt, atol=1e-7)


def test_geodesic_grad_cut_locus_raises():
    r_gt = np.eye(3)
    r = so3.exp_so3(np.eye(3), np.array([math.pi - 1e-12, 0, 0]))
    with pytest.raises(CutLocusError, match="cut locus"):
        euclid_grad(GeodesicSquared(r_gt), r)


# ---------------------------------------------------------------------------
# batched Euclidean gradient

@pytest.mark.parametrize("name", ["l2", "geodesic", "flow", "chamfer"])
def test_euclid_grad_batch_matches_per_sample(name):
    rng = np.random.default_rng(10)
    points = rng.uniform(-1, 1, (24, 3))
    rs = np.stack(rotations(11, 30))
    r_gts = np.stack(rotations(12, 30))
    r_gts[0] = rs[0]  # zero error
    r_gts[1] = so3.exp_so3(rs[1], np.array([1e-8, 0, 0]))  # small-angle branch
    r_gts[2] = so3.exp_so3(rs[2], np.array([0, math.pi - 1e-6, 0]))  # near the cut locus
    batch = euclid_grad_batch(name, rs, r_gts, points)
    assert batch.shape == (30, 3, 3)
    for i in range(30):
        one = euclid_grad(riemannian.make_loss(name, r_gts[i], points), rs[i])
        assert np.linalg.norm(batch[i] - one) <= 1e-9 * max(1.0, np.linalg.norm(one)), i


def test_euclid_grad_batch_chamfer_chunks_agree(monkeypatch):
    rng = np.random.default_rng(13)
    points = rng.uniform(-1, 1, (8, 3))
    rs, r_gts = np.stack(rotations(14, 7)), np.stack(rotations(15, 7))
    whole = euclid_grad_batch("chamfer", rs, r_gts, points)
    monkeypatch.setattr(riemannian, "_CHAMFER_CHUNK", 2 * 3 * 8 * 8)  # two rows a chunk
    assert np.array_equal(euclid_grad_batch("chamfer", rs, r_gts, points), whole)


def test_make_loss_rejects_unknown_name():
    with pytest.raises(ValueError) as exc:
        riemannian.make_loss("nope", np.eye(3))
    assert str(exc.value) == f"unknown loss 'nope'; expected one of {riemannian.LOSS_NAMES}"
    assert riemannian.LOSS_NAMES == ("l2", "geodesic", "flow", "chamfer")


def test_loss_class_maps_each_name_and_rejects_unknown_ones():
    points = np.arange(12.0).reshape(4, 3)
    for name in riemannian.LOSS_NAMES:
        loss = riemannian.make_loss(name, np.eye(3), points)
        assert riemannian.loss_class(name) is type(loss)
    with pytest.raises(ValueError, match="unknown loss 'nope'"):
        riemannian.loss_class("nope")


def test_euclid_grad_batch_cut_locus_names_first_row():
    rs = np.stack(rotations(16, 5))
    r_gts = rs.copy()
    r_gts[2] = rs[2] @ so3.rot_z(math.pi)
    r_gts[4] = rs[4] @ so3.rot_y(math.pi)
    with pytest.raises(CutLocusError, match="sample 2"):
        euclid_grad_batch("geodesic", rs, r_gts)


def test_euclid_grad_batch_rejects_bad_input():
    rs = np.stack(rotations(17, 2))
    with pytest.raises(ValueError, match="unknown loss"):
        euclid_grad_batch("huber", rs, rs)
    with pytest.raises(ValueError, match="point set"):
        euclid_grad_batch("flow", rs, rs)
    with pytest.raises(ValueError, match="point set"):
        euclid_grad_batch("chamfer", rs, rs, np.zeros((4097, 3)))
    with pytest.raises(ValueError, match="point set"):
        euclid_grad_batch("chamfer", rs, rs, np.zeros((3, 16)))


# ---------------------------------------------------------------------------
# Riemannian gradient

def test_riemannian_grad_hand_case():
    for theta in (0.2, 1.0, 2.5):
        r_gt = so3.rot_z(theta)
        phi = riemannian_grad(np.eye(3), euclid_grad(L2Frobenius(r_gt), np.eye(3)))
        assert np.allclose(phi, [0.0, 0.0, -4.0 * math.sin(theta)], atol=1e-9)


def test_riemannian_grad_component_formula():
    # at R = I with the squared-Frobenius loss the tangent components reduce
    # to antisymmetric differences of r_gt
    r_gt = rotations(7, 1)[0]
    phi = riemannian_grad(np.eye(3), euclid_grad(L2Frobenius(r_gt), np.eye(3)))
    expected = 2.0 * np.array([r_gt[1, 2] - r_gt[2, 1],
                               r_gt[2, 0] - r_gt[0, 2],
                               r_gt[0, 1] - r_gt[1, 0]])
    assert np.allclose(phi, expected, atol=1e-12)


def test_riemannian_grad_ignores_normal_directions():
    # perturbations of the form S @ R (S symmetric) are orthogonal to every
    # tangent direction R @ hat(e_k) and must not change the projection
    rng = np.random.default_rng(8)
    for _ in range(50):
        r = so3.sample_uniform_rotation(rng)
        g = rng.standard_normal((3, 3))
        s = rng.standard_normal((3, 3))
        s = s + s.T
        assert np.allclose(riemannian_grad(r, g), riemannian_grad(r, g + s @ r), atol=1e-9)


@pytest.mark.parametrize("name", ["l2", "geodesic", "flow", "chamfer"])
def test_riemannian_grad_matches_manifold_fd(name):
    rng = np.random.default_rng(9)
    h = 1e-6
    tol = 1e-3 if name == "chamfer" else 1e-6
    checked = 0
    while checked < 25:
        r = so3.sample_uniform_rotation(rng)
        loss = make_loss(name, so3.sample_uniform_rotation(rng), rng)
        if name == "geodesic" and not 0.1 < so3.geodesic_distance(r, loss.r_gt) < math.pi - 0.2:
            continue
        checked += 1
        got = riemannian_grad(r, euclid_grad(loss, r))
        fd = np.empty(3)
        for k in range(3):
            e = np.zeros(3)
            e[k] = h
            fd[k] = (loss_value(loss, so3.exp_so3(r, e)) - loss_value(loss, so3.exp_so3(r, -e))) / (2 * h)
        assert np.linalg.norm(got - fd) <= tol * max(1.0, np.linalg.norm(fd))


# ---------------------------------------------------------------------------
# goal rotation and converging step sizes

def test_goal_rotation_hand_case():
    for theta in (0.3, 1.2):
        r_gt = so3.rot_z(theta)
        phi = riemannian_grad(np.eye(3), euclid_grad(L2Frobenius(r_gt), np.eye(3)))
        r_g = goal_rotation(np.eye(3), phi, 0.25)
        assert np.linalg.norm(r_g - so3.rot_z(math.sin(theta))) <= 1e-9


def test_tau_converge_values():
    assert tau_converge_for(L2Frobenius(np.eye(3))) == 0.25
    assert tau_converge_for(GeodesicSquared(np.eye(3))) == 0.5
    assert tau_converge_for(L2Frobenius) == 0.25
    with pytest.raises(NoAnalyticTauError):
        tau_converge_for(Flow(np.eye(3), np.zeros((3, 4))))
    with pytest.raises(NoAnalyticTauError):
        tau_converge_for(Chamfer(np.zeros((4, 3)), np.zeros((4, 3))))


@pytest.mark.parametrize("loss_cls,tau", [(L2Frobenius, 0.25), (GeodesicSquared, 0.5)])
def test_tau_converge_lemma(loss_cls, tau):
    # one step at the converging tau leaves at most a cubic residual
    rng = np.random.default_rng(10)
    for theta in (1e-2, 1e-3, 1e-4):
        axis = rng.standard_normal(3)
        axis /= np.linalg.norm(axis)
        r = so3.sample_uniform_rotation(rng)
        r_gt = so3.exp_so3(r, axis * theta)
        phi = riemannian_grad(r, euclid_grad(loss_cls(r_gt), r))
        r_g = goal_rotation(r, phi, tau)
        assert so3.geodesic_distance(r_g, r_gt) <= theta ** 3


def test_goal_step_follows_geodesic():
    # the L2 tangent gradient points along the geodesic to the target
    rng = np.random.default_rng(11)
    for _ in range(200):
        r, r_gt = so3.sample_uniform_rotation(rng), so3.sample_uniform_rotation(rng)
        phi = riemannian_grad(r, euclid_grad(L2Frobenius(r_gt), r))
        r_g = goal_rotation(r, phi, 0.1)
        a = so3.log_so3(r, r_g)
        b = so3.log_so3(r, r_gt)
        cos = float(a @ b) / (np.linalg.norm(a) * np.linalg.norm(b))
        assert cos >= 1.0 - 1e-8


def test_tau_gt_lands_on_target():
    rng = np.random.default_rng(12)
    for _ in range(100):
        r = so3.sample_uniform_rotation(rng)
        axis = rng.standard_normal(3)
        axis /= np.linalg.norm(axis)
        theta = rng.uniform(1e-3, 2.9)
        r_gt = so3.exp_so3(r, axis * theta)
        phi = riemannian_grad(r, euclid_grad(L2Frobenius(r_gt), r))
        r_g = goal_rotation(r, phi, tau_gt_l2(theta))
        assert so3.geodesic_distance(r_g, r_gt) <= 1e-9


# ---------------------------------------------------------------------------
# tau schedule

def test_tau_schedule_endpoints():
    s = TauSchedule(0.05, 0.25, total_iters=5000, n_steps=10)
    assert tau_at(s, 0) == 0.05
    assert tau_at(s, 499) == 0.05
    assert tau_at(s, 500) == pytest.approx(0.05 + 0.2 / 9)
    assert tau_at(s, 4999) == 0.25
    assert tau_at(s, 123456) == 0.25  # clamped past the end


def test_tau_schedule_single_step_is_constant():
    s = TauSchedule(0.05, 0.25, total_iters=100, n_steps=1)
    assert tau_at(s, 0) == 0.25
    assert tau_at(s, 99) == 0.25


@given(st.integers(0, 10_000))
def test_tau_schedule_monotone_and_bounded(i):
    s = TauSchedule(0.05, 0.25, total_iters=5000, n_steps=10)
    tau = tau_at(s, i)
    assert 0.05 <= tau <= 0.25
    assert tau <= tau_at(s, min(i + 1, 10_000))


def test_tau_schedule_validation():
    with pytest.raises(ValueError):
        TauSchedule(0.1, 0.2, total_iters=10, n_steps=0)


@pytest.mark.parametrize("ends", [(-0.5, -0.25), (0.0, 0.25), (0.1, -0.2), (math.nan, 0.25),
                                  (0.1, math.inf), (True, 0.25), ("0.1", 0.25)])
def test_tau_schedule_rejects_ends_that_are_not_finite_positive_reals(ends):
    with pytest.raises(ValueError, match="must be a finite positive real"):
        TauSchedule(*ends, total_iters=20)
