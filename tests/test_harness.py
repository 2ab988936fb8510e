import dataclasses
import math

import numpy as np
import pytest

from rotgrad import harness, nn, so3
from rotgrad.harness import (
    DEFAULT_TAU_BY_LOSS,
    ExperimentConfig,
    LrSchedule,
    Method,
    S2Method,
    _s2_gradient_batch,
    _spawn_rngs,
    compute_metrics,
    fit_single_rotation,
    lr_at,
    make_dataset,
    tau_probe,
    train,
    train_s2,
)
from rotgrad.representations import (
    MANIFOLD_REPS,
    RepKind,
    embed,
    representation_map,
)
from rotgrad.riemannian import CutLocusError, tau_gt_l2
from rotgrad.rpmg import RpmgParams, rpmg_gradient
from rotgrad.sphere import s2_rpmg_gradient


def rot_xyz(rng):
    return so3.sample_uniform_rotation(rng)


# ---------------------------------------------------------------------------
# config validation


@pytest.mark.parametrize(
    "kwargs",
    [
        {"loss": "huber"},
        {"lam": -0.1},
        {"lam": 1.5},
        {"iters": -1},
        {"batch": 0},
        {"eval_every": 0},
        {"n_points": 3},
        {"n_rotations": 4},
        {"lr": 0.0},
        {"hidden": ()},
        {"hidden": (128, 0)},
        {"tau": "warmup"},
        {"tau": -0.5},
        {"batch": 2.5},
        {"lr": "fast"},
    ],
)
def test_config_rejects_invalid(kwargs):
    with pytest.raises(ValueError):
        ExperimentConfig(**kwargs)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"base": 1e-3, "milestones": (4000, 3000)},
        {"base": 1e-3, "milestones": (3000, 3000)},
        {"base": 1e-3, "milestones": (-1,)},
        {"base": 1e-3, "milestones": (2.5,)},
        {"base": 0.0, "milestones": ()},
    ],
)
def test_lr_schedule_rejects_invalid(kwargs):
    with pytest.raises(ValueError):
        LrSchedule(**kwargs)


def test_config_accepts_defaults():
    cfg = ExperimentConfig()
    assert cfg.rep is RepKind.NINE_D
    assert cfg.method is Method.RPMG
    assert cfg.lam == 0.01


# ---------------------------------------------------------------------------
# dataset


def test_dataset_shapes_and_split():
    rng = np.random.default_rng(0)
    ds = make_dataset(16, 100, rng)
    assert ds.points.shape == (16, 3)
    assert ds.rotations.shape == (100, 3, 3)
    assert ds.inputs.shape == (100, 48)
    assert ds.n_train == 80
    x_tr, r_tr = ds.train_slice
    x_ev, r_ev = ds.eval_slice
    assert len(x_tr) == 80 and len(x_ev) == 20
    assert np.shares_memory(x_tr, ds.inputs)


def test_dataset_inputs_are_rotated_points():
    rng = np.random.default_rng(1)
    ds = make_dataset(5, 7, rng)
    for n in (0, 3, 6):
        manual = np.concatenate([ds.rotations[n] @ ds.points[k] for k in range(5)])
        np.testing.assert_allclose(ds.inputs[n], manual, atol=1e-12)


def test_dataset_rotations_are_valid():
    rng = np.random.default_rng(2)
    ds = make_dataset(8, 50, rng)
    prods = np.einsum("nij,nkj->nik", ds.rotations, ds.rotations)
    np.testing.assert_allclose(prods, np.broadcast_to(np.eye(3), (50, 3, 3)), atol=1e-12)
    np.testing.assert_allclose(np.linalg.det(ds.rotations), 1.0, atol=1e-12)


def test_dataset_points_not_coplanar():
    rng = np.random.default_rng(3)
    ds = make_dataset(4, 10, rng)
    centered = ds.points - ds.points.mean(axis=0)
    assert np.linalg.svd(centered, compute_uv=False)[-1] > 1e-3


def test_dataset_reproducible():
    a = make_dataset(6, 20, np.random.default_rng(9))
    b = make_dataset(6, 20, np.random.default_rng(9))
    np.testing.assert_array_equal(a.inputs, b.inputs)
    np.testing.assert_array_equal(a.rotations, b.rotations)


def test_dataset_validates_counts():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        make_dataset(3, 10, rng)
    with pytest.raises(ValueError):
        make_dataset(5, 2, rng)


# ---------------------------------------------------------------------------
# metrics


def test_metrics_all_exact():
    rng = np.random.default_rng(4)
    rs = np.stack([rot_xyz(rng) for _ in range(6)])
    row = compute_metrics(rs, rs.copy(), iteration=7)
    assert row.iteration == 7
    assert row.mean_deg <= 1e-6 and row.median_deg <= 1e-6
    assert row.acc5 == 1.0 and row.acc3 == 1.0


def test_metrics_single_ten_degree_error():
    r_gt = np.eye(3)
    r = so3.exp_so3(np.eye(3), np.array([0.0, 0.0, math.radians(10.0)]))
    row = compute_metrics([r], [r_gt])
    assert abs(row.mean_deg - 10.0) < 1e-9
    assert abs(row.median_deg - 10.0) < 1e-9
    assert row.acc5 == 0.0 and row.acc3 == 0.0


def test_metrics_median_is_lower_middle():
    rng = np.random.default_rng(5)
    base = rot_xyz(rng)
    angles = [1.0, 2.0, 3.0, 4.0]
    preds = [base @ so3.exp_so3(np.eye(3), np.array([math.radians(a), 0, 0])) for a in angles]
    row = compute_metrics(preds, [base] * 4)
    assert abs(row.median_deg - 2.0) < 1e-9
    assert abs(row.mean_deg - 2.5) < 1e-9
    assert row.acc5 == 1.0 and row.acc3 == 0.5


def test_metrics_match_bruteforce_recomputation():
    rng = np.random.default_rng(6)
    preds = np.stack([rot_xyz(rng) for _ in range(21)])
    gts = np.stack([rot_xyz(rng) for _ in range(21)])
    row = compute_metrics(preds, gts)
    errs = []
    for p, g in zip(preds, gts):
        c = (np.trace(p.T @ g) - 1.0) / 2.0
        errs.append(math.degrees(math.acos(max(-1.0, min(1.0, c)))))
    errs = np.array(errs)
    assert abs(row.mean_deg - errs.mean()) < 1e-9
    assert abs(row.median_deg - np.sort(errs)[(len(errs) - 1) // 2]) < 1e-9
    assert abs(row.acc5 - np.mean(errs <= 5.0)) < 1e-12
    assert abs(row.acc3 - np.mean(errs <= 3.0)) < 1e-12


def test_metrics_reject_bad_input():
    with pytest.raises(ValueError):
        compute_metrics(np.zeros((0, 3, 3)), np.zeros((0, 3, 3)))
    with pytest.raises(ValueError):
        compute_metrics(np.zeros((2, 3, 3)), np.zeros((3, 3, 3)))


# ---------------------------------------------------------------------------
# single-rotation fitting


def test_fit_rpmg_9d_converges():
    fit = fit_single_rotation(RepKind.NINE_D, Method.RPMG, loss="l2", tau="auto", lam=0.01, seed=0, iters=2000)
    assert not fit.aborted
    assert len(fit.errors) == 2001
    assert fit.final_error < 1e-4


def test_fit_pmg_norm_decreases_monotonically():
    fit = fit_single_rotation(RepKind.QUAT4, Method.PMG, lam=0.0, seed=0, iters=400)
    assert not fit.aborted
    assert np.all(np.diff(fit.norms) <= 1e-12)
    assert fit.norms[-1] < fit.norms[0]


def test_fit_zero_trace_when_started_at_target():
    rng = np.random.default_rng(11)
    for rep in MANIFOLD_REPS:
        r_gt = rot_xyz(rng)
        x0 = embed(representation_map(r_gt, rep))
        fit = fit_single_rotation(rep, Method.RPMG, seed=0, iters=40, x_init=x0, r_gt=r_gt)
        assert not fit.aborted
        assert np.max(fit.errors) <= 1e-8


def test_fit_iters_zero_reports_initial_state_only():
    fit = fit_single_rotation(RepKind.SIX_D, Method.RPMG, seed=3, iters=0)
    assert len(fit.errors) == 1 and len(fit.norms) == 1


def test_fit_deterministic():
    a = fit_single_rotation(RepKind.TEN_D, Method.RPMG, seed=5, iters=50)
    b = fit_single_rotation(RepKind.TEN_D, Method.RPMG, seed=5, iters=50)
    np.testing.assert_array_equal(a.errors, b.errors)
    np.testing.assert_array_equal(a.x_final, b.x_final)


def test_fit_vanilla_supports_euclidean_reps():
    fit = fit_single_rotation(RepKind.EULER3, Method.VANILLA, seed=0, iters=500)
    assert not fit.aborted
    assert fit.final_error < fit.errors[0]
    with pytest.raises(ValueError):
        fit_single_rotation(RepKind.EULER3, Method.RPMG, seed=0, iters=10)


def test_fit_rejects_bad_arguments():
    with pytest.raises(ValueError):
        fit_single_rotation(RepKind.QUAT4, loss="nope")
    with pytest.raises(ValueError):
        fit_single_rotation(RepKind.QUAT4, x_init=np.zeros(3))


def test_fit_abort_on_degenerate_start():
    fit = fit_single_rotation(RepKind.QUAT4, Method.RPMG, seed=0, iters=10, x_init=np.zeros(4))
    assert fit.aborted
    assert "degenerate" in fit.diagnostic
    assert len(fit.errors) == 0


# ---------------------------------------------------------------------------
# MG with tau_gt: the gradient path lands exactly on the target embedding


def test_mg_with_tau_gt_equals_displacement_to_target():
    rng = np.random.default_rng(12)
    from rotgrad.representations import baseline_rotation
    from rotgrad.riemannian import L2Frobenius

    params = RpmgParams(method=Method.MG, lam=0.01)
    for rep in MANIFOLD_REPS:
        for _ in range(25):
            r_gt = rot_xyz(rng)
            delta = rng.standard_normal(3)
            delta *= rng.uniform(0.1, 2.0) / np.linalg.norm(delta)
            r0 = so3.exp_so3(r_gt, delta)
            x = rng.uniform(0.5, 2.0) * embed(representation_map(r0, rep))
            x = x + 0.05 * rng.standard_normal(rep.ambient_dim)
            r = baseline_rotation(rep, x)
            theta = so3.geodesic_distance(r, r_gt)
            loss = L2Frobenius(r_gt)
            g = rpmg_gradient(rep, x, r, loss, tau_gt_l2(theta), params)
            target = embed(representation_map(r_gt, rep))
            if rep is RepKind.QUAT4 and float(x @ target) < 0.0:
                target = -target
            np.testing.assert_allclose(g, x - target, atol=1e-9)


# ---------------------------------------------------------------------------
# training loop


def test_train_iters_zero_gives_initial_metrics_only():
    cfg = ExperimentConfig(iters=0, n_rotations=64)
    report = train(cfg)
    assert len(report.rows) == 1
    assert report.rows[0].iteration == 0
    assert not report.aborted


def test_train_eval_schedule_includes_final_iteration():
    cfg = ExperimentConfig(iters=130, eval_every=50, n_rotations=64)
    report = train(cfg)
    assert [row.iteration for row in report.rows] == [0, 50, 100, 130]


def test_train_deterministic():
    cfg = ExperimentConfig(rep=RepKind.QUAT4, iters=60, n_rotations=64, eval_every=30)
    a = train(cfg)
    b = train(cfg)
    assert a == b


def test_train_improves_over_initial():
    cfg = ExperimentConfig(rep=RepKind.SIX_D, method=Method.RPMG, iters=400, n_rotations=256, eval_every=200)
    report = train(cfg)
    assert not report.aborted
    assert report.final.median_deg < 0.5 * report.initial.median_deg


def test_train_non_l2_loss_runs():
    cfg = ExperimentConfig(rep=RepKind.QUAT4, loss="geodesic", tau="auto", iters=20, n_rotations=64, batch=8, eval_every=10)
    report = train(cfg)
    assert not report.aborted
    assert np.isfinite(report.final.mean_deg)


@pytest.mark.parametrize("loss", ["geodesic", "flow", "chamfer"])
def test_train_non_l2_loss_never_calls_per_sample_route(monkeypatch, loss):
    def per_sample(*args, **kwargs):
        raise AssertionError("train called the per-sample rpmg_gradient")

    monkeypatch.setattr(harness, "rpmg_gradient", per_sample)
    for method in (Method.RPMG, Method.VANILLA):
        cfg = ExperimentConfig(rep=RepKind.SIX_D, method=method, loss=loss,
                               tau=DEFAULT_TAU_BY_LOSS.get(loss, "auto"),
                               iters=6, n_rotations=64, batch=8, eval_every=3)
        report = train(cfg)
        assert not report.aborted, report.diagnostic
        assert len(report.rows) == 3


def test_train_cut_locus_aborts_with_diagnostic(monkeypatch):
    def at_cut_locus(*args, **kwargs):
        raise CutLocusError("squared-geodesic gradient is undefined at the cut locus (sample 5)")

    monkeypatch.setattr(harness, "rpmg_gradient_batch", at_cut_locus)
    cfg = ExperimentConfig(rep=RepKind.TEN_D, loss="geodesic", iters=10, n_rotations=64, eval_every=5)
    report = train(cfg)
    assert report.aborted
    assert report.diagnostic.startswith("cut locus at iteration 0:")
    assert "sample 5" in report.diagnostic
    assert len(report.rows) == 1


def test_fit_driven_to_cut_locus_aborts_with_diagnostic():
    # a projective geodesic fit that walks to angle pi (a known defect of
    # pmg under the geodesic loss) stops there instead of raising
    result = fit_single_rotation(RepKind.NINE_D, Method.PMG, loss="geodesic", seed=1, iters=2000)
    assert result.aborted
    assert result.diagnostic.startswith("cut locus at step ")
    assert len(result.errors) < 2001
    assert result.final_error > math.pi - 1e-6
    assert np.isfinite(result.errors).all() and np.isfinite(result.norms).all()


def test_train_rejects_sphere_method_and_bad_rep():
    with pytest.raises(ValueError):
        train(ExperimentConfig(method=S2Method.RPMG, iters=0, n_rotations=64))
    with pytest.raises(ValueError):
        train(ExperimentConfig(rep=RepKind.EULER3, method=Method.RPMG, iters=0, n_rotations=64))


def test_train_vanilla_euclidean_rep_runs():
    cfg = ExperimentConfig(rep=RepKind.AXIS_ANGLE3, method=Method.VANILLA, iters=30, n_rotations=64, eval_every=15)
    report = train(cfg)
    assert not report.aborted
    assert len(report.rows) == 3


def test_train_metric_rows_within_ranges():
    cfg = ExperimentConfig(rep=RepKind.TEN_D, iters=50, n_rotations=64, eval_every=25)
    report = train(cfg)
    for row in report.rows:
        assert 0.0 <= row.mean_deg <= 180.0
        assert 0.0 <= row.median_deg <= 180.0
        assert 0.0 <= row.acc5 <= 1.0
        assert 0.0 <= row.acc3 <= 1.0
        assert row.mean_norm > 0.0


@pytest.mark.parametrize(
    "trainer, method",
    [(train, Method.RPMG), (train, Method.VANILLA), (train_s2, S2Method.RPMG)],
)
def test_lr_schedule_default_is_constant_and_steps_at_milestones(monkeypatch, trainer, method):
    base = ExperimentConfig(method=method, iters=8, n_rotations=64, eval_every=4)
    constant = trainer(base)
    # a schedule without milestones gives the default run bit for bit
    flat = LrSchedule(base=1e-3, milestones=())
    assert trainer(dataclasses.replace(base, lr=flat)) == constant

    schedule = LrSchedule(base=1e-3, milestones=(3, 5))
    expected = [lr_at(schedule, it) for it in range(8)]
    assert expected == pytest.approx([1e-3] * 3 + [1e-4] * 2 + [1e-5] * 3, rel=1e-12)

    seen = []
    adam_step = nn.adam_step

    def recording_step(state, params, grads):
        seen.append(state.lr)
        return adam_step(state, params, grads)

    monkeypatch.setattr(nn, "adam_step", recording_step)
    decayed = trainer(dataclasses.replace(base, lr=schedule))
    assert seen == expected
    assert decayed.rows[0] == constant.rows[0]
    assert decayed.final != constant.final


# ---------------------------------------------------------------------------
# sphere training


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


def test_s2_without_norm_gradient_matches_fd():
    rng = np.random.default_rng(14)
    x = rng.standard_normal(3) * 1.7
    t = rng.standard_normal(3)
    t /= np.linalg.norm(t)

    def f(v):
        return float(np.sum((v / np.linalg.norm(v) - t) ** 2))

    x_hat = x / np.linalg.norm(x)
    g = 2.0 * ((x_hat @ t) * x_hat - t) / np.linalg.norm(x)
    fd = np.zeros(3)
    h = 1e-6
    for i in range(3):
        e = np.zeros(3)
        e[i] = h
        fd[i] = (f(x + e) - f(x - e)) / (2 * h)
    np.testing.assert_allclose(g, fd, atol=1e-6)


def test_train_s2_runs_every_method():
    for method in S2Method:
        cfg = ExperimentConfig(method=method, iters=30, n_rotations=64, eval_every=15)
        report = train_s2(cfg)
        assert not report.aborted, method
        assert len(report.rows) == 3


def test_train_s2_deterministic():
    cfg = ExperimentConfig(method=S2Method.RPMG, iters=40, n_rotations=64, eval_every=20)
    assert train_s2(cfg) == train_s2(cfg)


def test_train_s2_rejects_rotation_method():
    with pytest.raises(ValueError):
        train_s2(ExperimentConfig(method=Method.RPMG, iters=0, n_rotations=64))


def test_train_s2_improves_over_initial():
    cfg = ExperimentConfig(method=S2Method.RPMG, iters=400, n_rotations=256, eval_every=200)
    report = train_s2(cfg)
    assert report.final.median_deg < 0.5 * report.initial.median_deg


# ---------------------------------------------------------------------------
# tau probe


def test_tau_probe_monotone_and_small_at_small_tau():
    rows = tau_probe(RepKind.NINE_D, "chamfer", [0.01, 0.5, 2.0, 8.0], seed=0, n_samples=16)
    taus = [t for t, _ in rows]
    dists = [d for _, d in rows]
    assert taus == [0.01, 0.5, 2.0, 8.0]
    assert dists[0] < 0.05
    assert all(b >= a - 1e-12 for a, b in zip(dists, dists[1:]))


def test_tau_probe_validation():
    with pytest.raises(ValueError):
        tau_probe(RepKind.NINE_D, "nope", [1.0])
    with pytest.raises(ValueError):
        tau_probe(RepKind.EULER3, "l2", [1.0])
    with pytest.raises(ValueError):
        tau_probe(RepKind.NINE_D, "l2", [])


def test_default_tau_presets():
    assert DEFAULT_TAU_BY_LOSS == {"flow": 50.0, "chamfer": 2.0}


# ---------------------------------------------------------------------------
# seeding


def test_spawned_streams_are_independent_and_reproducible():
    a1, b1 = _spawn_rngs(7, 2)
    a2, b2 = _spawn_rngs(7, 2)
    assert a1.standard_normal(4) == pytest.approx(a2.standard_normal(4))
    assert b1.standard_normal(4) == pytest.approx(b2.standard_normal(4))
    c1, c2 = _spawn_rngs(8, 2)
    assert not np.allclose(c1.standard_normal(4), c2.standard_normal(4))
