import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rotgrad import rpmg, so3
from rotgrad.checks import oracle_inverse_image_batch, sample_projection_cases
from rotgrad.representations import (
    MANIFOLD_REPS,
    ManifoldPoint,
    RepKind,
    baseline_backward,
    baseline_rotation,
    embed,
    manifold_map,
    representation_map,
    rotations_from_raw,
    sym4_from_params,
)
from rotgrad.riemannian import (
    CutLocusError,
    GeodesicSquared,
    L2Frobenius,
    euclid_grad,
    make_loss,
)
from rotgrad.rpmg import (
    Method,
    RpmgParams,
    constraint_rows,
    inverse_project,
    rpmg_gradient,
    rpmg_gradient_batch,
)


def random_raw(rng, rep):
    return rng.standard_normal(rep.ambient_dim) * rng.uniform(0.5, 2.0)


def test_params_validation():
    with pytest.raises(ValueError):
        RpmgParams(Method.RPMG, lam=1.5)
    with pytest.raises(ValueError):
        RpmgParams(Method.RPMG, lam=-0.1)


# ---------------------------------------------------------------------------
# quaternion-to-10d embedding

def test_map_quat_identity_example():
    got = embed(ManifoldPoint(RepKind.TEN_D, np.array([1.0, 0.0, 0.0, 0.0])))
    expect = np.array([0, 0, 0, 0, 1, 0, 0, 1, 0, 1], dtype=np.float64)
    np.testing.assert_array_equal(got, expect)


def test_map_quat_roundtrip():
    rng = np.random.default_rng(0)
    for _ in range(1000):
        q = rng.standard_normal(4)
        q /= np.linalg.norm(q)
        back = manifold_map(RepKind.TEN_D, embed(ManifoldPoint(RepKind.TEN_D, q))).value
        assert min(np.linalg.norm(back - q), np.linalg.norm(back + q)) <= 1e-9


def test_map_quat_eigen_structure():
    rng = np.random.default_rng(1)
    for _ in range(50):
        q = rng.standard_normal(4)
        q /= np.linalg.norm(q)
        a = sym4_from_params(embed(ManifoldPoint(RepKind.TEN_D, q)))
        assert np.linalg.norm(a @ q) <= 1e-12
        np.testing.assert_allclose(np.linalg.eigvalsh(a), [0.0, 1.0, 1.0, 1.0], atol=1e-12)


def test_constraint_rows_bilinear_identity():
    rng = np.random.default_rng(2)
    for _ in range(50):
        q = rng.standard_normal(4)
        theta = rng.standard_normal(10)
        lhs = constraint_rows(q) @ theta
        rhs = sym4_from_params(theta) @ q
        assert np.linalg.norm(lhs - rhs) <= 1e-12


# ---------------------------------------------------------------------------
# inverse projection closed forms

@pytest.mark.parametrize("rep", MANIFOLD_REPS, ids=lambda r: r.value)
def test_fixed_point_on_manifold(rep):
    rng = np.random.default_rng(3)
    for _ in range(50):
        r_g = so3.sample_uniform_rotation(rng)
        x = embed(representation_map(r_g, rep))
        assert np.linalg.norm(inverse_project(rep, x, r_g) - x) <= 1e-9


def test_quat_line_example():
    x = np.array([1.0, 1.0, 0.0, 0.0])
    got = inverse_project(RepKind.QUAT4, x, np.eye(3))
    np.testing.assert_allclose(got, [1.0, 0.0, 0.0, 0.0], atol=1e-15)
    # numeric minimization over the line k * (1,0,0,0) lands on the same point
    ks = np.linspace(-3, 3, 60001)
    d = ((x[None, :] - ks[:, None] * np.array([1.0, 0, 0, 0])) ** 2).sum(1)
    assert abs(ks[d.argmin()] - 1.0) <= 1e-4


def test_quat_reversed_direction():
    # raw output on the far sheet: the projection lands on the negated
    # quaternion, reversing the nominal goal direction
    rng = np.random.default_rng(4)
    for _ in range(50):
        r_g = so3.sample_uniform_rotation(rng)
        q = so3.rot_to_quat(r_g)
        x = rng.standard_normal(4)
        if float(x @ q) > 0:
            x = x - 2.0 * float(x @ q) * q
        if abs(float(x @ q)) < 1e-3:
            continue
        pi_gp = manifold_map(RepKind.QUAT4, inverse_project(RepKind.QUAT4, x, r_g)).value
        assert np.linalg.norm(pi_gp + q) <= 1e-9


def test_nine_d_symmetric_factor_is_fixed():
    rng = np.random.default_rng(5)
    for _ in range(50):
        r_g = so3.sample_uniform_rotation(rng)
        s0 = rng.standard_normal((3, 3))
        s0 = s0 + s0.T
        x = (s0 @ r_g).reshape(9)
        assert np.linalg.norm(inverse_project(RepKind.NINE_D, x, r_g) - x) <= 1e-9


def test_ten_d_eigen_constraint_residual():
    rng = np.random.default_rng(6)
    for _ in range(200):
        x = rng.standard_normal(10) * rng.uniform(0.5, 2.0)
        r_g = so3.sample_uniform_rotation(rng)
        q = so3.rot_to_quat(r_g)
        a = sym4_from_params(inverse_project(RepKind.TEN_D, x, r_g))
        lam = float(q @ a @ q)
        assert np.linalg.norm(a @ q - lam * q) <= 1e-8


def _bordered_kkt_projection(x, r_g):
    """10d x_gp through the bordered 14x14 KKT system [[I, M^T], [M, 0]],
    whose upper-right block is M^T (M M^T)^{-1}."""
    q = so3.rot_to_quat(r_g)
    m = constraint_rows(q)
    kkt = np.zeros((14, 14))
    kkt[:10, :10] = np.eye(10)
    kkt[:10, 10:] = m.T
    kkt[10:, :10] = m
    rhs = np.zeros((14, 4))
    rhs[10:, :] = np.eye(4)
    k = np.linalg.solve(kkt, rhs)[:10, :]
    s, t = k @ q, k @ (sym4_from_params(x) @ q)
    return x + float(s @ t) / float(s @ s) * s - t


def test_ten_d_projection_matches_bordered_kkt_solve():
    xs, r_gs = sample_projection_cases(RepKind.TEN_D, 300, 31)
    rng = np.random.default_rng(32)
    far = [(rng.standard_normal(10) * rng.uniform(0.2, 3.0), so3.sample_uniform_rotation(rng))
           for _ in range(300)]
    for x, r_g in list(zip(xs, r_gs)) + far:
        ref = _bordered_kkt_projection(x, r_g)
        got = inverse_project(RepKind.TEN_D, x, r_g)
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


def _axis_angle_rotation(axis, angle):
    axis = np.array(axis)
    return so3.exp_so3(np.eye(3), angle * axis / np.linalg.norm(axis))


_axes = st.tuples(*([st.floats(-1.0, 1.0)] * 3)).filter(lambda a: np.linalg.norm(a) > 1e-3)
_any_3x3 = st.builds(
    lambda entries, k: np.reshape(entries, (3, 3)) * 10.0 ** k,
    st.lists(st.floats(-1.0, 1.0), min_size=9, max_size=9), st.integers(-8, 8))
_goal_matrices = st.one_of(
    st.builds(_axis_angle_rotation, _axes, st.floats(0.0, math.pi)),
    st.builds(_axis_angle_rotation, _axes, st.floats(0.0, 1e-6).map(lambda e: math.pi - e)),
    _any_3x3,
)


@settings(max_examples=300, deadline=None)
@given(_goal_matrices)
def test_goal_quaternion_is_unit_and_projection_direction_bounded(r):
    # the 10d closed form divides by |s|^2, s = M^T (M M^T)^{-1} q; for a
    # unit q, M M^T = diag(1 - q*q) + q q^T has eigenvalues <= 2, so
    # |s|^2 >= 1/2 whatever 3x3 matrix the quaternion came from
    for q in (so3.rot_to_quat(r), so3._rot_to_quat_batch(r[None])[0]):
        assert abs(float(q @ q) - 1.0) <= 1e-12
        # M, column by column, from its definition M theta = A(theta) q
        m = np.stack([sym4_from_params(e) @ q for e in np.eye(10)], axis=1)
        s = m.T @ np.linalg.solve(m @ m.T, q)
        assert float(s @ s) >= 0.5 - 1e-12


@pytest.mark.parametrize("rep", MANIFOLD_REPS, ids=lambda r: r.value)
def test_goal_terms_rows_match_batch(rep):
    # goals out to pi and no ambient-angle filter; the two routes extract
    # the quaternion and reduce differently, so rows agree to rounding only
    xs, r_gs = sample_projection_cases(rep, 300, seed=41, max_ambient_angle=math.inf,
                                       goal_step=math.pi)
    quat_goal = rep in rpmg._QUAT_GOAL_REPS  # these take the goal as a quaternion
    batch = rpmg._goal_terms_batch(rep, xs, so3._rot_to_quat_batch(r_gs) if quat_goal else r_gs)
    for i, (x, r_g) in enumerate(zip(xs, r_gs)):
        goal = so3.rot_to_quat(r_g) if quat_goal else r_g  # the kernel reads lists of floats
        for one, rows in zip(rpmg._goal_terms(rep, x.tolist(), goal.ravel().tolist()), batch):
            scale = max(np.linalg.norm(rows[i]), np.linalg.norm(x))
            assert np.linalg.norm(np.array(one) - rows[i]) <= 1e-12 * scale, i


def test_blend_lam_fixes_mg_and_pmg():
    assert RpmgParams(Method.MG, lam=0.3).blend_lam == 1.0
    assert RpmgParams(Method.PMG, lam=0.3).blend_lam == 0.0
    assert RpmgParams(Method.RPMG, lam=0.3).blend_lam == 0.3


@pytest.mark.parametrize("method", [Method.MG, Method.PMG, Method.RPMG],
                         ids=lambda m: m.value)
def test_manifold_methods_reject_non_finite_raw_vector(method):
    x = np.array([1.0, np.nan, 0.0, 0.0])
    r = np.eye(3)
    with pytest.raises(ValueError, match="need a finite"):
        rpmg_gradient(RepKind.QUAT4, x, r, L2Frobenius(r), 0.25, RpmgParams(method))


def test_ten_d_projection_needs_no_dense_solver(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("lin_core.solve_columns called")

    monkeypatch.setattr("rotgrad.lin_core.solve_columns", refuse)
    rng = np.random.default_rng(33)
    x, r, loss = _random_case(rng, RepKind.TEN_D)
    assert np.isfinite(inverse_project(RepKind.TEN_D, x, so3.sample_uniform_rotation(rng))).all()
    for params in (RpmgParams(Method.PMG), RpmgParams(Method.RPMG, lam=0.01)):
        assert np.isfinite(rpmg_gradient(RepKind.TEN_D, x, r, loss, 0.2, params)).all()


@pytest.mark.parametrize("rep,filter_kind", [
    (RepKind.QUAT4, "dot"),
    (RepKind.SIX_D, "coeffs"),
    (RepKind.NINE_D, "posdef"),
], ids=lambda v: v.value if isinstance(v, RepKind) else v)
def test_membership_recovers_goal(rep, filter_kind):
    # where the relaxed sign/ordering constraints hold, projecting the
    # projection point forward recovers the goal rotation
    xs, r_gs = sample_projection_cases(rep, 200, seed=7)
    kept = 0
    for x, r_g in zip(xs, r_gs):
        if filter_kind == "dot":
            if float(x @ so3.rot_to_quat(r_g)) <= 0:
                continue
        elif filter_kind == "coeffs":
            if float(x[:3] @ r_g[:, 0]) <= 0 or float(x[3:] @ r_g[:, 1]) <= 0:
                continue
        else:
            m = x.reshape(3, 3)
            s = 0.5 * (m @ r_g.T + r_g @ m.T)
            if np.linalg.eigvalsh(s).min() <= 1e-6:
                continue
        kept += 1
        x_gp = inverse_project(rep, x, r_g)
        assert so3.geodesic_distance(baseline_rotation(rep, x_gp), r_g) <= 1e-6
    assert kept >= 100  # the near-goal sampler must exercise the filtered regime


def test_norm_contraction_quat_6d_9d():
    rng = np.random.default_rng(8)
    for rep in (RepKind.QUAT4, RepKind.SIX_D, RepKind.NINE_D):
        for _ in range(1000):
            x = random_raw(rng, rep)
            r_g = so3.sample_uniform_rotation(rng)
            x_gp = inverse_project(rep, x, r_g)
            assert np.linalg.norm(x_gp) <= np.linalg.norm(x) + 1e-12


def test_norm_contraction_10d_reported():
    # no closed-form guarantee exists for the 10-dim projection; measure and
    # report the ratio instead of asserting it
    rng = np.random.default_rng(9)
    ratios = []
    for _ in range(10_000):
        x = random_raw(rng, RepKind.TEN_D)
        r_g = so3.sample_uniform_rotation(rng)
        x_gp = inverse_project(RepKind.TEN_D, x, r_g)
        ratios.append(np.linalg.norm(x_gp) / np.linalg.norm(x))
    ratios = np.array(ratios)
    assert np.isfinite(ratios).all()
    print(f"\n10d norm ratio ||x_gp||/||x||: min {ratios.min():.4f} "
          f"median {np.median(ratios):.4f} max {ratios.max():.4f} "
          f"contracting fraction {(ratios <= 1.0).mean():.4f}")


@pytest.mark.parametrize("rep", MANIFOLD_REPS, ids=lambda r: r.value)
def test_projection_matches_pgd_oracle(rep):
    xs, r_gs = sample_projection_cases(rep, 200, seed=10)
    oracle = oracle_inverse_image_batch(rep, xs, r_gs)
    for x, r_g, y in zip(xs, r_gs, oracle):
        x_gp = inverse_project(rep, x, r_g)
        closed = np.linalg.norm(x - x_gp)
        numeric = np.linalg.norm(x - y)
        assert closed <= numeric + 1e-4
        # minimality: the closed form is the family optimum, not merely better
        assert abs(closed - numeric) <= 1e-4


# ---------------------------------------------------------------------------
# gradient assembly

def _random_case(rng, rep):
    while True:
        x = random_raw(rng, rep)
        try:
            r = baseline_rotation(rep, x)
        except ValueError:
            continue
        return x, r, L2Frobenius(so3.sample_uniform_rotation(rng))


@pytest.mark.parametrize("rep", list(RepKind), ids=lambda r: r.value)
def test_vanilla_delegates_to_baseline(rep):
    rng = np.random.default_rng(11)
    x, r, loss = _random_case(rng, rep)
    got = rpmg_gradient(rep, x, r, loss, 0.0, RpmgParams(Method.VANILLA))
    expect = baseline_backward(rep, x, euclid_grad(loss, r))
    assert np.array_equal(got, expect)


def test_manifold_methods_require_manifold():
    rng = np.random.default_rng(12)
    for rep in (RepKind.EULER3, RepKind.AXIS_ANGLE3):
        x, r, loss = _random_case(rng, rep)
        with pytest.raises(ValueError, match="vanilla"):
            rpmg_gradient(rep, x, r, loss, 0.25, RpmgParams(Method.RPMG))


@pytest.mark.parametrize("rep", MANIFOLD_REPS, ids=lambda r: r.value)
def test_lambda_short_circuits_bitwise(rep):
    rng = np.random.default_rng(13)
    for _ in range(20):
        x, r, loss = _random_case(rng, rep)
        tau = rng.uniform(0.05, 0.5)
        mg = rpmg_gradient(rep, x, r, loss, tau, RpmgParams(Method.MG))
        lam1 = rpmg_gradient(rep, x, r, loss, tau, RpmgParams(Method.RPMG, lam=1.0))
        assert np.array_equal(mg, lam1)
        pmg = rpmg_gradient(rep, x, r, loss, tau, RpmgParams(Method.PMG))
        lam0 = rpmg_gradient(rep, x, r, loss, tau, RpmgParams(Method.RPMG, lam=0.0))
        assert np.array_equal(pmg, lam0)


@pytest.mark.parametrize("rep", MANIFOLD_REPS, ids=lambda r: r.value)
def test_converged_case_zero_gradient(rep):
    rng = np.random.default_rng(14)
    for _ in range(20):
        r0 = so3.sample_uniform_rotation(rng)
        x = embed(representation_map(r0, rep))
        r = baseline_rotation(rep, x)
        loss = L2Frobenius(r)
        for params in (RpmgParams(Method.VANILLA), RpmgParams(Method.MG),
                       RpmgParams(Method.PMG), RpmgParams(Method.RPMG, lam=0.01)):
            g = rpmg_gradient(rep, x, r, loss, 0.25, params)
            assert np.linalg.norm(g) <= 1e-9


@pytest.mark.parametrize("rep", MANIFOLD_REPS, ids=lambda r: r.value)
def test_projective_gradient_never_larger(rep):
    rng = np.random.default_rng(15)
    for _ in range(250):
        x, r, loss = _random_case(rng, rep)
        tau = rng.uniform(0.05, 0.5)
        g_m = rpmg_gradient(rep, x, r, loss, tau, RpmgParams(Method.MG))
        g_pm = rpmg_gradient(rep, x, r, loss, tau, RpmgParams(Method.PMG))
        assert np.linalg.norm(g_pm) <= np.linalg.norm(g_m) + 1e-9


@pytest.mark.parametrize("rep", list(RepKind), ids=lambda r: r.value)
def test_batch_matches_per_sample(rep):
    rng = np.random.default_rng(16)
    n = 40
    xs = np.stack([_random_case(rng, rep)[0] for _ in range(n)])
    r_gts = np.stack([so3.sample_uniform_rotation(rng) for _ in range(n)])
    rs = rotations_from_raw(rep, xs)
    methods = [RpmgParams(Method.VANILLA)]
    if rep in MANIFOLD_REPS:
        methods += [RpmgParams(Method.MG), RpmgParams(Method.PMG),
                    RpmgParams(Method.RPMG, lam=0.01)]
    for params in methods:
        batch = rpmg_gradient_batch(rep, xs, rs, r_gts, 0.2, params)
        for i in range(n):
            one = rpmg_gradient(rep, xs[i], rs[i], L2Frobenius(r_gts[i]), 0.2, params)
            assert np.linalg.norm(batch[i] - one) <= 1e-9, (params.method, i)


@pytest.mark.parametrize("loss", ["geodesic", "flow", "chamfer"])
@pytest.mark.parametrize("rep", list(RepKind), ids=lambda r: r.value)
def test_batch_matches_per_sample_every_loss(rep, loss):
    rng = np.random.default_rng(17)
    n = 40
    points = rng.uniform(-1.0, 1.0, (16, 3))
    xs = np.stack([_random_case(rng, rep)[0] for _ in range(n)])
    r_gts = np.stack([so3.sample_uniform_rotation(rng) for _ in range(n)])
    rs = rotations_from_raw(rep, xs)
    methods = [RpmgParams(Method.VANILLA)]
    if rep in MANIFOLD_REPS:
        methods += [RpmgParams(Method.MG), RpmgParams(Method.PMG),
                    RpmgParams(Method.RPMG, lam=0.01)]
    for params in methods:
        batch = rpmg_gradient_batch(rep, xs, rs, r_gts, 0.2, params, loss=loss, points=points)
        for i in range(n):
            one = rpmg_gradient(rep, xs[i], rs[i], make_loss(loss, r_gts[i], points),
                                0.2, params)
            assert np.linalg.norm(batch[i] - one) <= 1e-9, (params.method, i)


def test_batch_geodesic_raises_cut_locus_on_one_row():
    rng = np.random.default_rng(18)
    rep = RepKind.NINE_D
    xs = np.stack([_random_case(rng, rep)[0] for _ in range(6)])
    rs = rotations_from_raw(rep, xs)
    r_gts = np.stack([so3.sample_uniform_rotation(rng) for _ in range(6)])
    r_gts[3] = rs[3] @ so3.rot_x(math.pi)
    for params in (RpmgParams(Method.VANILLA), RpmgParams(Method.RPMG)):
        with pytest.raises(CutLocusError, match="sample 3"):
            rpmg_gradient_batch(rep, xs, rs, r_gts, 0.5, params, loss="geodesic")


# ---------------------------------------------------------------------------
# the goal-step cap

def test_capped_goal_lies_exactly_max_step_away():
    # under MG the 9d gradient is x - R_g, so the goal is read off it
    x = np.eye(3).ravel()
    for theta in (1.5, 2.5, 3.0):
        loss = GeodesicSquared(so3.rot_x(theta))
        g = rpmg_gradient(RepKind.NINE_D, x, np.eye(3), loss, 0.5, RpmgParams(Method.MG),
                          max_step=1.0)
        r_g = (x - g).reshape(3, 3)
        assert so3.geodesic_distance(np.eye(3), r_g) == pytest.approx(1.0, abs=1e-12)
        batch = rpmg_gradient_batch(RepKind.NINE_D, x[None], np.eye(3)[None],
                                    so3.rot_x(theta)[None], 0.5, RpmgParams(Method.MG),
                                    loss="geodesic", max_step=1.0)
        r_g = (x - batch[0]).reshape(3, 3)
        assert so3.geodesic_distance(np.eye(3), r_g) == pytest.approx(1.0, abs=1e-12)


def _cap_cases(rep, n, seed):
    rng = np.random.default_rng(seed)
    xs = np.stack([_random_case(rng, rep)[0] for _ in range(n)])
    r_gts = np.stack([so3.sample_uniform_rotation(rng) for _ in range(n)])
    return xs, rotations_from_raw(rep, xs), r_gts


@pytest.mark.parametrize("rep", MANIFOLD_REPS, ids=lambda r: r.value)
def test_rows_under_the_cap_are_bit_identical(rep):
    xs, rs, r_gts = _cap_cases(rep, 40, 19)
    steps = so3.geodesic_distance_batch(rs, r_gts)  # tau = 1/2 lands on the target
    under = steps < 1.0
    assert 0 < under.sum() < len(xs)
    params = RpmgParams(Method.RPMG, lam=0.01)
    capped = rpmg_gradient_batch(rep, xs, rs, r_gts, 0.5, params, loss="geodesic", max_step=1.0)
    free = rpmg_gradient_batch(rep, xs, rs, r_gts, 0.5, params, loss="geodesic")
    assert np.array_equal(capped[under], free[under])
    assert not np.array_equal(capped[~under], free[~under])
    for i in np.nonzero(under)[0]:
        loss = GeodesicSquared(r_gts[i])
        assert np.array_equal(rpmg_gradient(rep, xs[i], rs[i], loss, 0.5, params, max_step=1.0),
                              rpmg_gradient(rep, xs[i], rs[i], loss, 0.5, params))


@pytest.mark.parametrize("loss", ["l2", "geodesic"])
@pytest.mark.parametrize("rep", MANIFOLD_REPS, ids=lambda r: r.value)
def test_batch_matches_per_sample_with_the_cap_active(rep, loss):
    xs, rs, r_gts = _cap_cases(rep, 40, 20)
    for params in (RpmgParams(Method.MG), RpmgParams(Method.PMG), RpmgParams(Method.RPMG)):
        batch = rpmg_gradient_batch(rep, xs, rs, r_gts, 0.5, params, loss=loss, max_step=1.0)
        for i in range(len(xs)):
            one = rpmg_gradient(rep, xs[i], rs[i], make_loss(loss, r_gts[i]), 0.5, params,
                                max_step=1.0)
            assert np.linalg.norm(batch[i] - one) <= 1e-9, (params.method, i)
