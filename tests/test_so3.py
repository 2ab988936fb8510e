import math

import numpy as np
import pytest

from rotgrad.so3 import (
    _rot_to_quat_batch,
    canonical_quat,
    exp_so3,
    geodesic_distance,
    geodesic_distance_batch,
    log_so3,
    quat_to_rot,
    rot_to_quat,
    rot_x,
    rot_y,
    rot_z,
    sample_uniform_rotation,
)


def random_rotations(seed, n):
    rng = np.random.default_rng(seed)
    return [sample_uniform_rotation(rng) for _ in range(n)]


def test_exp_axis_example():
    for theta in (0.3, 1.0, 2.5):
        assert np.allclose(exp_so3(np.eye(3), [0.0, 0.0, theta]), rot_z(theta), atol=1e-12)


def test_exp_produces_rotations():
    rng = np.random.default_rng(1)
    for _ in range(200):
        r = exp_so3(np.eye(3), rng.standard_normal(3) * rng.uniform(0, 4))
        assert np.allclose(r.T @ r, np.eye(3), atol=1e-12)
        assert np.linalg.det(r) == pytest.approx(1.0, abs=1e-12)


def test_exp_small_angle_branch_is_continuous():
    # compare the Taylor branch against the trig branch across the threshold
    axis = np.array([0.3, -0.5, 0.8])
    axis /= np.linalg.norm(axis)
    below = exp_so3(np.eye(3), axis * 0.999e-6)
    above = exp_so3(np.eye(3), axis * 1.001e-6)
    assert np.linalg.norm(below - above) < 1e-8


def test_exp_log_roundtrip():
    rots = random_rotations(2, 200)
    for r1, r2 in zip(rots[::2], rots[1::2]):
        phi = log_so3(r1, r2)
        assert np.linalg.norm(phi) <= math.pi + 1e-12
        assert np.linalg.norm(exp_so3(r1, phi) - r2) <= 1e-7


def test_log_near_pi():
    rng = np.random.default_rng(3)
    for _ in range(100):
        axis = rng.standard_normal(3)
        axis /= np.linalg.norm(axis)
        theta = math.pi - 10.0 ** rng.uniform(-9, -2)
        r2 = exp_so3(np.eye(3), axis * theta)
        phi = log_so3(np.eye(3), r2)
        assert np.linalg.norm(exp_so3(np.eye(3), phi) - r2) <= 1e-7
        assert np.linalg.norm(phi) == pytest.approx(theta, abs=1e-7)


def test_log_zero():
    r = random_rotations(4, 1)[0]
    assert np.allclose(log_so3(r, r), 0.0, atol=1e-12)


def test_geodesic_distance_examples():
    r = random_rotations(5, 1)[0]
    assert geodesic_distance(r, r) == pytest.approx(0.0, abs=1e-12)
    assert geodesic_distance(np.eye(3), rot_z(1.0)) == pytest.approx(1.0, abs=1e-12)


def test_geodesic_distance_properties():
    rots = random_rotations(6, 60)
    g = random_rotations(7, 1)[0]
    for r1, r2 in zip(rots[::2], rots[1::2]):
        d = geodesic_distance(r1, r2)
        assert 0.0 <= d <= math.pi
        assert d == pytest.approx(geodesic_distance(r2, r1), abs=1e-12)
        # bi-invariance of the metric
        assert d == pytest.approx(geodesic_distance(g @ r1, g @ r2), abs=1e-9)
        # chordal identity ||R1 - R2||_F^2 = 4 - 4 cos d
        assert np.linalg.norm(r1 - r2) ** 2 == pytest.approx(4.0 - 4.0 * math.cos(d), abs=1e-8)
    batch = geodesic_distance_batch(np.stack(rots[::2]), np.stack(rots[1::2]))
    single = [geodesic_distance(r1, r2) for r1, r2 in zip(rots[::2], rots[1::2])]
    assert np.allclose(batch, single, rtol=0.0, atol=1e-12)


def test_quat_rot_roundtrip():
    rng = np.random.default_rng(8)
    for _ in range(300):
        q = rng.standard_normal(4)
        q /= np.linalg.norm(q)
        q = canonical_quat(q)
        r = quat_to_rot(q)
        assert np.allclose(r.T @ r, np.eye(3), atol=1e-12)
        assert np.allclose(rot_to_quat(r), q, atol=1e-9)


def test_quat_double_cover():
    rng = np.random.default_rng(9)
    q = rng.standard_normal(4)
    q /= np.linalg.norm(q)
    assert np.allclose(quat_to_rot(q), quat_to_rot(-q), atol=1e-15)


def test_rot_to_quat_near_pi():
    # trace near -1 breaks the naive single-branch formula; ours must not care
    rng = np.random.default_rng(10)
    for _ in range(200):
        axis = rng.standard_normal(3)
        axis /= np.linalg.norm(axis)
        r = exp_so3(np.eye(3), axis * (math.pi - 10.0 ** rng.uniform(-12, -3)))
        q = rot_to_quat(r)
        assert q[0] >= 0.0
        assert np.linalg.norm(quat_to_rot(q) - r) <= 1e-9


def test_rot_to_quat_exact_pi_ties():
    # for R = 2 n n^T - I with n3 == 0, q0 computes to exactly zero and the
    # tie-break must leave the first nonzero component positive, on the
    # batched route too
    ns = np.array([[-0.6, 0.8, 0.0], [0.8, -0.6, 0.0], [0.0, -1.0, 0.0], [1.0, 0.0, 0.0]])
    rs = 2.0 * np.einsum("bi,bj->bij", ns, ns) - np.eye(3)
    qs = _rot_to_quat_batch(rs)
    for r, q_batch in zip(rs, qs):
        q = rot_to_quat(r)
        assert q[0] == 0.0
        nz = q[1:][q[1:] != 0.0]
        assert nz[0] > 0.0
        assert np.linalg.norm(quat_to_rot(q) - r) <= 1e-9
        np.testing.assert_allclose(q_batch, q, atol=1e-15)


def test_rot_to_quat_agrees_with_trace_formula():
    # direct trace-based extraction is valid away from the 180-degree regime
    for r in random_rotations(11, 200):
        if np.trace(r) <= -0.9:
            continue
        q0 = math.sqrt(1.0 + np.trace(r)) / 2.0
        ref = np.array([q0,
                        (r[2, 1] - r[1, 2]) / (4.0 * q0),
                        (r[0, 2] - r[2, 0]) / (4.0 * q0),
                        (r[1, 0] - r[0, 1]) / (4.0 * q0)])
        assert np.allclose(rot_to_quat(r), ref, atol=1e-9)


def test_sample_uniform_rotation_validity_and_determinism():
    a = random_rotations(12, 50)
    b = random_rotations(12, 50)
    for r1, r2 in zip(a, b):
        assert np.array_equal(r1, r2)
        assert np.allclose(r1.T @ r1, np.eye(3), atol=1e-12)
        assert np.linalg.det(r1) == pytest.approx(1.0, abs=1e-12)


def test_haar_angle_distribution():
    # rotation angle under Haar measure has density (1 - cos t) / pi on [0, pi]
    n = 50_000
    rng = np.random.default_rng(13)
    angles = np.array([geodesic_distance(np.eye(3), sample_uniform_rotation(rng))
                       for _ in range(n)])
    bins = np.linspace(0.0, math.pi, 21)
    counts, _ = np.histogram(angles, bins)
    cdf = (bins - np.sin(bins)) / math.pi
    expected = n * np.diff(cdf)
    chi2 = float(((counts - expected) ** 2 / expected).sum())
    assert chi2 < 43.82  # chi-square df=19, alpha=0.001


def test_haar_entry_means_vanish():
    n = 50_000
    rng = np.random.default_rng(14)
    total = np.zeros((3, 3))
    for _ in range(n):
        total += sample_uniform_rotation(rng)
    mean = total / n
    # Var(R_ij) = 1/3 under Haar; keep each entry within 3 sigma of zero
    assert (np.abs(mean) <= 3.0 * math.sqrt(1.0 / 3.0 / n)).all()


def test_axis_helpers():
    assert np.allclose(rot_x(0.2) @ rot_x(-0.2), np.eye(3), atol=1e-15)
    assert np.allclose(rot_y(math.pi / 2) @ np.array([0, 0, 1.0]), [1.0, 0, 0], atol=1e-15)
    assert np.allclose(rot_z(math.pi / 2) @ np.array([1.0, 0, 0]), [0, 1.0, 0], atol=1e-15)
