import dataclasses
import math
import os
import tracemalloc

import numpy as np
import pytest

from rotgrad import harness, nn, so3
from rotgrad.harness import (
    BLAS_THREAD_VARS,
    DEFAULT_TAU_BY_LOSS,
    ExperimentConfig,
    LrSchedule,
    Method,
    S2Method,
    _row_from_errors,
    _spawn_rngs,
    fit_single_rotation,
    lr_at,
    make_dataset,
    single_thread_pool,
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
from rotgrad.riemannian import CutLocusError, TauSchedule, tau_gt_l2
from rotgrad.rpmg import RpmgParams, rpmg_gradient


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
        {"tau": None},
        {"tau": [0.1]},
        {"tau": True},
        {"tau": float("nan")},
        {"tau": float("inf")},
        {"rep": RepKind.EULER3},
        {"rep": RepKind.AXIS_ANGLE3, "method": Method.PMG},
        {"rep": "9d"},
        {"method": "rpmg"},
        {"lr": math.inf},
        {"seed": 2.5},
        {"seed": -1},
        {"seed": True},
        {"hidden": (127.5,)},
        {"hidden": (True,)},
        {"lr": True},
        {"lam": True},
    ],
)
def test_config_rejects_invalid(kwargs):
    with pytest.raises(ValueError):
        ExperimentConfig(**kwargs)


def test_config_accepts_every_run_train_and_train_s2_can_make():
    # vanilla runs every rep, the sphere rules ignore it, and numpy reals
    # and schedules are valid steps
    ExperimentConfig(rep=RepKind.EULER3, method=Method.VANILLA)
    ExperimentConfig(rep=RepKind.EULER3, method=S2Method.RPMG)
    ExperimentConfig(tau=np.float64(0.3))
    ExperimentConfig(tau=TauSchedule(0.05, 0.5, 100))
    # lists are stored as tuples: the config hashes like its tuple twin
    listed = ExperimentConfig(hidden=[64, 64], lr=LrSchedule(1e-3, [10]))
    tupled = ExperimentConfig(hidden=(64, 64), lr=LrSchedule(1e-3, (10,)))
    assert listed == tupled and hash(listed) == hash(tupled)


def test_every_edge_value_is_accepted_and_runs_one_iteration():
    one = np.int64(1)
    edges = dict(seed=np.int64(0), iters=one, batch=one, eval_every=one, n_points=np.int32(4),
                 n_rotations=np.int64(5), hidden=(one,), lr=LrSchedule(np.float64(1e-3), (one,)),
                 tau=TauSchedule(np.float64(0.1), 0.25, total_iters=one, n_steps=one))
    for lam in (0.0, 1.0):
        for run, method in ((train, Method.RPMG), (train_s2, S2Method.RPMG)):
            report = run(ExperimentConfig(method=method, lam=lam, **edges))
            assert not report.aborted and [row.iteration for row in report.rows] == [0, 1]
        fit = fit_single_rotation(RepKind.NINE_D, lam=lam, seed=np.int64(0), iters=one,
                                  lr=np.float64(1e-2), tau=edges["tau"])
        assert not fit.aborted and len(fit.errors) == 2
    (tau, step), = tau_probe(RepKind.NINE_D, "l2", np.array([0.25]), seed=np.int64(0),
                             n_samples=one, n_points=np.int64(4))
    assert tau == 0.25 and math.isfinite(step)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"base": 1e-3, "milestones": (4000, 3000)},
        {"base": 1e-3, "milestones": (3000, 3000)},
        {"base": 1e-3, "milestones": (-1,)},
        {"base": 1e-3, "milestones": (2.5,)},
        {"base": 0.0, "milestones": ()},
        {"base": math.inf, "milestones": (5,)},
        {"base": math.nan, "milestones": ()},
        {"base": True, "milestones": ()},
        {"base": "1e-3", "milestones": ()},
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


def _errors_deg(preds, gts) -> np.ndarray:
    """Geodesic errors in degrees, as the training loop's evaluation reads them."""
    return np.degrees(so3.geodesic_distance_batch(np.asarray(preds), np.asarray(gts)))


def test_metrics_all_exact():
    rng = np.random.default_rng(4)
    rs = np.stack([rot_xyz(rng) for _ in range(6)])
    row = _row_from_errors(_errors_deg(rs, rs.copy()), 7, float("nan"))
    assert row.iteration == 7
    assert row.mean_deg <= 1e-6 and row.median_deg <= 1e-6
    assert row.acc5 == 1.0 and row.acc3 == 1.0


def test_metrics_single_ten_degree_error():
    r_gt = np.eye(3)
    r = so3.exp_so3(np.eye(3), np.array([0.0, 0.0, math.radians(10.0)]))
    row = _row_from_errors(_errors_deg([r], [r_gt]), 0, float("nan"))
    assert abs(row.mean_deg - 10.0) < 1e-9
    assert abs(row.median_deg - 10.0) < 1e-9
    assert row.acc5 == 0.0 and row.acc3 == 0.0


def test_metrics_median_is_lower_middle():
    rng = np.random.default_rng(5)
    base = rot_xyz(rng)
    angles = [1.0, 2.0, 3.0, 4.0]
    preds = [base @ so3.exp_so3(np.eye(3), np.array([math.radians(a), 0, 0])) for a in angles]
    row = _row_from_errors(_errors_deg(preds, [base] * 4), 0, float("nan"))
    assert abs(row.median_deg - 2.0) < 1e-9
    assert abs(row.mean_deg - 2.5) < 1e-9
    assert row.acc5 == 1.0 and row.acc3 == 0.5


def test_metrics_match_bruteforce_recomputation():
    rng = np.random.default_rng(6)
    preds = np.stack([rot_xyz(rng) for _ in range(21)])
    gts = np.stack([rot_xyz(rng) for _ in range(21)])
    row = _row_from_errors(_errors_deg(preds, gts), 0, float("nan"))
    errs = []
    for p, g in zip(preds, gts):
        c = (np.trace(p.T @ g) - 1.0) / 2.0
        errs.append(math.degrees(math.acos(max(-1.0, min(1.0, c)))))
    errs = np.array(errs)
    assert abs(row.mean_deg - errs.mean()) < 1e-9
    assert abs(row.median_deg - np.sort(errs)[(len(errs) - 1) // 2]) < 1e-9
    assert abs(row.acc5 - np.mean(errs <= 5.0)) < 1e-12
    assert abs(row.acc3 - np.mean(errs <= 3.0)) < 1e-12


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


def test_fit_rejects_bad_arguments(monkeypatch):
    with pytest.raises(ValueError):
        fit_single_rotation(RepKind.QUAT4, loss="nope")
    with pytest.raises(ValueError):
        fit_single_rotation(RepKind.QUAT4, x_init=np.zeros(3))

    def no_sampling(*args, **kwargs):
        raise AssertionError("sampled")

    monkeypatch.setattr(harness, "_spawn_rngs", no_sampling)
    for kwargs, match in [({"iters": True}, "iters must be an integer >= 0"),
                          ({"iters": 2.5}, "iters must be an integer >= 0"),
                          ({"seed": -1}, "seed must be an integer >= 0"),
                          ({"seed": 2.5}, "seed must be an integer >= 0"),
                          ({"seed": True}, "seed must be an integer >= 0"),
                          ({"lr": True}, "lr must be a finite positive real"),
                          ({"lam": True}, "lam must be a real in"),
                          ({"lam": 1.5}, "lam must be a real in"),
                          ({"tau": "warmup"}, "tau .* must be a finite positive real"),
                          ({"tau": -0.5}, "tau .* must be a finite positive real"),
                          ({"loss": "nope", "tau": 0.3}, "unknown loss 'nope'")]:
        with pytest.raises(ValueError, match=match):
            fit_single_rotation(RepKind.QUAT4, **kwargs)


def test_fit_rejects_negative_iters_and_non_positive_lr():
    with pytest.raises(ValueError, match="iters must be an integer >= 0"):
        fit_single_rotation(RepKind.QUAT4, iters=-1)
    for lr in (0.0, -1.0, float("nan")):
        with pytest.raises(ValueError, match="lr must be a finite positive real"):
            fit_single_rotation(RepKind.QUAT4, lr=lr)


def test_fit_rejects_an_infinite_lr_before_any_step():
    with pytest.raises(ValueError, match="lr must be a finite positive real"):
        fit_single_rotation(RepKind.QUAT4, lr=math.inf, iters=5)


@pytest.mark.parametrize("rep", MANIFOLD_REPS, ids=lambda r: r.value)
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_fit_rejects_a_non_finite_x_init_before_any_step(rep, bad):
    x_init = np.ones(rep.ambient_dim)
    x_init[-1] = bad
    with pytest.raises(ValueError, match="x_init must be finite"):
        fit_single_rotation(rep, x_init=x_init, iters=5)


@pytest.mark.parametrize("bad", [np.eye(4), np.full((3, 3), np.nan), 2.0 * np.eye(3),
                                 np.diag([1.0, 1.0, -1.0]), np.eye(3) + 1e-5],
                         ids=["4x4", "nan", "2I", "reflection", "off-by-1e-5"])
def test_fit_rejects_an_r_gt_that_is_not_a_rotation_before_any_step(monkeypatch, bad):
    def no_step(*args, **kwargs):
        raise AssertionError("a step was taken")

    monkeypatch.setattr(harness, "rpmg_gradient", no_step)
    with pytest.raises(ValueError, match="r_gt must be a finite"):
        fit_single_rotation(RepKind.NINE_D, r_gt=bad, iters=5)


def test_fit_accepts_an_r_gt_orthonormal_to_within_1e_minus_6():
    r_gt = so3.sample_uniform_rotation(np.random.default_rng(3)) + 1e-8
    fit = fit_single_rotation(RepKind.NINE_D, r_gt=r_gt, iters=5)
    assert not fit.aborted and np.array_equal(fit.r_gt, r_gt)


def test_config_rejects_a_schedule_that_steps_away_from_the_target():
    # both ends negative: training moved away from its targets, 139.8 -> 146.3 degrees
    with pytest.raises(ValueError, match="tau_init must be a finite positive real"):
        ExperimentConfig(rep=RepKind.QUAT4, tau=TauSchedule(-0.5, -0.25, 20), iters=20,
                         n_rotations=64, eval_every=10)


def test_final_error_is_nan_after_an_abort_at_step_0():
    fit = fit_single_rotation(RepKind.QUAT4, x_init=np.zeros(4))
    assert fit.aborted and fit.diagnostic.startswith("degenerate raw vector at step 0")
    assert len(fit.errors) == 0 and math.isnan(fit.final_error)


@pytest.mark.parametrize("loss", ["geodesic", "flow", "chamfer"])
def test_sphere_config_rejects_losses_other_than_l2(loss):
    with pytest.raises(ValueError, match="only the l2 loss"):
        ExperimentConfig(method=S2Method.RPMG, loss=loss)
    ExperimentConfig(method=Method.RPMG, loss=loss)


def test_fit_vanilla_nine_d_aborts_on_negative_det_sigma_tie():
    # the forward map rejects det M < 0 with sigma2 = sigma3, so the start
    # gives no error row
    fit = fit_single_rotation(RepKind.NINE_D, Method.VANILLA, seed=0, iters=10,
                              x_init=np.diag([2.0, 1.0, -1.0]).ravel())
    assert fit.aborted
    assert fit.diagnostic.startswith("degenerate raw vector at step 0: 9d smallest-eigenvalue gap")
    assert len(fit.errors) == 0


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


@pytest.mark.parametrize("rep", [RepKind.NINE_D, RepKind.TEN_D], ids=lambda r: r.value)
def test_vanilla_train_factorizes_once_per_step(monkeypatch, rep):
    calls = []
    original = np.linalg.eigh

    def counted(a, *args, **kwargs):
        if np.ndim(a) == 3:  # make_dataset's rank check factorizes one (n_points, 3) cloud
            calls.append(len(a))
        return original(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    cfg = ExperimentConfig(rep=rep, method=Method.VANILLA, iters=7, eval_every=3, n_rotations=64)
    report = train(cfg)
    assert not report.aborted and len(report.rows) == 4  # iterations 0, 3, 6, 7
    assert calls.count(cfg.batch) == cfg.iters
    assert len(calls) == cfg.iters + len(report.rows)


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
    # a geodesic fit that starts a half turn from its target stops at the
    # cut locus with a diagnostic instead of raising
    result = fit_single_rotation(RepKind.NINE_D, Method.PMG, loss="geodesic", iters=2000,
                                 x_init=np.eye(3).ravel(), r_gt=np.diag([1.0, -1.0, -1.0]))
    assert result.aborted
    assert result.diagnostic.startswith("cut locus at step ")
    assert len(result.errors) < 2001
    assert result.final_error > math.pi - 1e-6
    assert np.isfinite(result.errors).all() and np.isfinite(result.norms).all()


def test_only_auto_tau_on_so3_caps_the_goal_step():
    for loss in ("l2", "geodesic"):
        assert harness._resolve_tau("auto", loss)[1] == harness.AUTO_MAX_GOAL_STEP == 1.0
    for spec, loss in ((0.5, "geodesic"), (TauSchedule(0.05, 0.5, 100), "geodesic"),
                       (DEFAULT_TAU_BY_LOSS["flow"], "flow"),
                       (DEFAULT_TAU_BY_LOSS["chamfer"], "chamfer"), ("auto", None),
                       ("auto", "flow"), ("auto", "chamfer")):
        assert harness._resolve_tau(spec, loss)[1] is None


@pytest.mark.parametrize("loss", ["flow", "chamfer"])
def test_auto_tau_trains_and_fits_point_losses_at_their_presets(loss):
    preset = DEFAULT_TAU_BY_LOSS[loss]
    assert harness._resolve_tau("auto", loss)[0](0) == preset
    fields = dict(rep=RepKind.SIX_D, loss=loss, iters=20, n_rotations=64, batch=8, eval_every=10)
    auto = train(ExperimentConfig(**fields))
    assert not auto.aborted, auto.diagnostic
    assert repr(auto) == repr(train(ExperimentConfig(tau=preset, **fields)))
    fit = fit_single_rotation(RepKind.NINE_D, loss=loss, iters=40)
    explicit = fit_single_rotation(RepKind.NINE_D, loss=loss, tau=preset, iters=40)
    assert (fit.aborted, fit.diagnostic) == (explicit.aborted, explicit.diagnostic)
    for a, b in zip((fit.errors, fit.norms, fit.x_final), (explicit.errors, explicit.norms, explicit.x_final)):
        assert a.tobytes() == b.tobytes()


def test_fit_and_train_pass_the_cap_only_under_auto_tau(monkeypatch):
    seen = []

    def record(rep, x, *args, max_step, **kwargs):
        seen.append(max_step)
        return np.zeros(np.shape(x))

    def record_sample(rep, method, x, r, q, loss, gt, tau, lam, max_step):  # the fit step's
        seen.append(max_step)
        return [0.0] * len(x)

    monkeypatch.setattr(harness, "_sample_gradient", record_sample)
    monkeypatch.setattr(harness, "rpmg_gradient_batch", record)
    for tau in ("auto", 0.5):
        fit_single_rotation(RepKind.NINE_D, Method.PMG, loss="geodesic", tau=tau, iters=1)
        train(ExperimentConfig(rep=RepKind.NINE_D, loss="geodesic", tau=tau, iters=1,
                               n_rotations=64, eval_every=1))
    assert seen == [1.0, 1.0, None, None]


def test_capped_geodesic_fit_converges_where_the_uncapped_one_walks_to_pi():
    # seed 1 puts the 9d target 2.0 rad from the start; the uncapped landing
    # step tau = 1/2 walks the fit to the cut locus
    capped = fit_single_rotation(RepKind.NINE_D, Method.PMG, loss="geodesic", seed=1)
    assert not capped.aborted and capped.final_error <= 1e-4
    uncapped = fit_single_rotation(RepKind.NINE_D, Method.PMG, loss="geodesic", tau=0.5, seed=1)
    assert uncapped.final_error > math.pi - 1e-6


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


@pytest.mark.parametrize("trainer, method", [(train, Method.RPMG), (train_s2, S2Method.RPMG)])
def test_trainer_updates_one_network_in_place(monkeypatch, trainer, method):
    built, forwarded, stepped = [], [], []
    mlp_init, forward, adam_step = nn.Mlp.__init__, nn.forward, nn.adam_step

    def counting_init(self, weights, biases):
        built.append(self)
        mlp_init(self, weights, biases)

    def recording_forward(mlp, x, **kwargs):
        forwarded.append((mlp, mlp.params))
        return forward(mlp, x, **kwargs)

    def recording_step(state, params, grads):
        stepped.append(params)
        return adam_step(state, params, grads)

    monkeypatch.setattr(nn.Mlp, "__init__", counting_init)
    monkeypatch.setattr(nn, "forward", recording_forward)
    monkeypatch.setattr(nn, "adam_step", recording_step)
    trainer(ExperimentConfig(method=method, iters=6, n_rotations=64, eval_every=3))
    assert len(built) == 1 and len(stepped) == 6
    mlp = built[0]
    assert all(m is mlp and p is mlp.params for m, p in forwarded)
    assert all(p is mlp.params for p in stepped)


# ---------------------------------------------------------------------------
# sphere training


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


@pytest.mark.parametrize("method, where", [
    (S2Method.RPMG, "eval"),
    *((m, "batch") for m in (S2Method.MG, S2Method.PMG, S2Method.RPMG, S2Method.L2_WITHOUT_NORM)),
], ids=lambda v: getattr(v, "value", v))
def test_train_s2_aborts_on_a_non_finite_output(monkeypatch, method, where):
    config = ExperimentConfig(method=method, iters=4, eval_every=2, n_rotations=64)
    forward, calls = nn.forward, []

    def overflowing(mlp, x, **kwargs):
        ys, cache = forward(mlp, x, **kwargs)
        calls.append(len(x))
        # the first call calibrates the output head
        if len(calls) > 1 and (where == "batch") == (len(x) == config.batch):
            ys[-1, 0] = np.inf
        return ys, cache

    monkeypatch.setattr(nn, "forward", overflowing)
    report = train_s2(config)
    assert report.aborted
    assert report.diagnostic == {
        "eval": "degenerate raw output in evaluation at iteration 0: non-finite raw output at sample 12",
        "batch": "degenerate sample at iteration 0: non-finite raw output at sample 31",
    }[where]


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
    # a numpy array of taus is a sequence like a list
    taus = [0.1, 0.2]
    assert tau_probe(RepKind.NINE_D, "l2", np.array(taus)) == tau_probe(RepKind.NINE_D, "l2", taus)


@pytest.mark.parametrize("kwargs, match", [
    ({"n_samples": 0}, "n_samples must be an integer >= 1"),
    ({"n_samples": -2}, "n_samples must be an integer >= 1"),
    ({"n_points": 3}, "n_points must be an integer >= 4"),
    ({"n_points": 0}, "n_points must be an integer >= 4"),
    *(({"taus": [0.5, bad]}, "every tau must be a finite positive real")
      for bad in (-1.0, 0.0, math.nan, math.inf, True, "1.0")),
    ({"n_samples": 2.5}, "n_samples must be an integer >= 1"),
    ({"n_samples": True}, "n_samples must be an integer >= 1"),
    ({"n_points": 4.5}, "n_points must be an integer >= 4"),
    ({"seed": -1}, "seed must be an integer >= 0"),
    ({"seed": 2.5}, "seed must be an integer >= 0"),
    ({"loss": "nope"}, "unknown loss 'nope'"),
], ids=repr)
def test_tau_probe_rejects_bad_inputs_before_sampling(monkeypatch, kwargs, match):
    def no_sampling(*args, **kwargs):
        raise AssertionError("sampled")

    monkeypatch.setattr(harness, "_spawn_rngs", no_sampling)
    args = {"loss": "chamfer", "taus": [0.5], **kwargs}
    with pytest.raises(ValueError, match=match):
        tau_probe(RepKind.NINE_D, **args)


def test_calibrating_the_head_holds_at_most_two_hidden_layers():
    rng = np.random.default_rng(4)
    mlp = nn.init_mlp([48, 128, 128, 10], rng)
    x = rng.standard_normal((1638, 48))
    tracemalloc.start()
    try:
        harness._calibrate_head(mlp, x, 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the pass that keeps a backward cache holds about 4.2 of them
    assert peak <= 2.25 * x.shape[0] * 128 * 8


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


def test_single_thread_pool_workers_start_with_one_blas_thread(monkeypatch):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "7")
    monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
    with single_thread_pool(1) as pool:
        assert pool.map(os.getenv, BLAS_THREAD_VARS) == ["1"] * len(BLAS_THREAD_VARS)
    # the parent's own environment is left as it was
    assert os.environ["OPENBLAS_NUM_THREADS"] == "7"
    assert "MKL_NUM_THREADS" not in os.environ
