"""Acceptance gate: ten numbered criteria, one verdict line each.

Each test prints ``ACCEPTANCE <nn> <name>: PASS|FAIL <measured numbers>``
outside the capture so the verdicts are visible in any pytest run.  The
expensive training matrices are built once per session and shared; their
independent runs are spread over a two-worker process pool.

Criteria 6, 7 and 9 read trained networks.  Every arm of both training
matrices runs Adam under one step schedule: 1e-3, x0.1 at 60 % and again
at 80 % of the iterations.  The schedule is a common multi-step recipe,
not the paper's, which the repo does not hold.  The output maps
(x -> R, x -> x/||x||) are scale invariant, so at a constant rate one Adam
step turns the output by about lr/||x|| and the final holdout median is a
step-noise floor set by each arm's raw norm.  Where the norms differ
(vanilla against rpmg, and pmg) the ordering criteria would then rank the
final raw norms, which criterion 6 already asserts, rather than the
gradient rules.  Criterion 9's two arms end at nearly the same norm, so
this does not explain their order: at a constant rate rpmg was behind
l2-with-norm on most seeds, under the anneal it is ahead on every seed
measured (by 2.6-10 %), and why is not measured here.  On SO(3)
(criterion 7) vanilla still reaches a lower median than rpmg for the 6d,
9d and 10d families under the anneal.  The verdict lines print each arm's final/initial raw-norm ratio
beside its median; see the README for the numbers under both protocols.
"""

import math
import time

import numpy as np
import pytest

from rotgrad.checks import (
    check_forward_map_9d,
    check_forward_map_10d,
    check_gradient_fd,
    check_gradient_hand_case,
    check_goal_direction,
    check_kkt_eigen_residual,
    check_lambda_one_equals_mg,
    check_mg_tau_gt_identity,
    check_projection_membership,
    check_projection_optimality,
    check_tau_converge,
    check_tau_converge_s2,
)
from rotgrad.harness import (
    ExperimentConfig,
    LrSchedule,
    S2Method,
    fit_single_rotation,
    single_thread_pool,
    train,
    train_s2,
)
from rotgrad.representations import MANIFOLD_REPS
from rotgrad.rpmg import Method

TOL_FIT_ERROR_RAD = 1e-4
FIT_RUNTIME_S = 10.0
PROJECTION_RUNTIME_S = 60.0
ORDERING_RUNTIME_S = 900.0
NORM_COLLAPSE_RATIO = 0.5
NORM_BAND = (0.5, 2.0)
TRAIN_ITERS = 5000
SEEDS = (0, 1, 2)
POOL_WORKERS = 2


def _verdict(capsys, num, name, ok, detail):
    with capsys.disabled():
        print(f"\nACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'}  {detail}")
    if not ok:
        pytest.fail(f"criterion {num} ({name}): {detail}", pytrace=False)


def _norm_ratio(report):
    return report.final.mean_norm / report.initial.mean_norm


def _timed_run(job):
    """One (trainer, config) job -> (report, seconds)."""
    trainer, config = job
    start = time.perf_counter()
    report = trainer(config)
    return report, time.perf_counter() - start


def _run_pooled(jobs):
    """Every job's (report, seconds), in order, over two worker processes.

    Each run is independent and seeded by its config, so a worker returns
    the report a serial run would (test_pooled_runs_match_serial).  Each
    worker starts with one BLAS thread (``single_thread_pool``)."""
    with single_thread_pool(POOL_WORKERS) as pool:
        return pool.map(_timed_run, jobs, chunksize=1)


def _anneal(iters):
    """The step anneal shared by every arm of the training matrices."""
    return LrSchedule(base=1e-3, milestones=(3 * iters // 5, 4 * iters // 5))


def _so3_config(method, rep, seed, iters=TRAIN_ITERS):
    return ExperimentConfig(rep=rep, method=method, loss="l2", lam=0.01,
                            tau="auto", seed=seed, iters=iters, lr=_anneal(iters))


def _s2_config(method, seed, iters=TRAIN_ITERS):
    return ExperimentConfig(method=method, loss="l2", lam=0.01, tau="auto",
                            seed=seed, iters=iters, lr=_anneal(iters))


@pytest.fixture(scope="session")
def so3_runs():
    """Training matrix on SO(3): (method, rep, seed) -> (report, seconds)."""
    keys = [(method, rep, seed)
            for rep in MANIFOLD_REPS
            for method, seeds in ((Method.RPMG, SEEDS), (Method.VANILLA, SEEDS),
                                  (Method.PMG, (0,)))
            for seed in seeds]
    runs = _run_pooled([(train, _so3_config(*key)) for key in keys])
    return dict(zip(keys, runs))


@pytest.fixture(scope="session")
def s2_runs():
    """Training matrix on the sphere: (method, seed) -> report."""
    keys = [(method, seed)
            for method, seeds in ((S2Method.RPMG, SEEDS),
                                  (S2Method.L2_WITH_NORM, SEEDS),
                                  (S2Method.PMG, (0,)))
            for seed in seeds]
    runs = _run_pooled([(train_s2, _s2_config(*key)) for key in keys])
    return {key: report for key, (report, _) in zip(keys, runs)}


def test_pooled_runs_match_serial():
    jobs = [(train, _so3_config(Method.RPMG, rep, 1, iters=150))
            for rep in MANIFOLD_REPS]
    jobs += [(train, _so3_config(Method.VANILLA, MANIFOLD_REPS[-1], 2, iters=150)),
             (train_s2, _s2_config(S2Method.RPMG, 0, iters=150))]
    pooled = [repr(report) for report, _ in _run_pooled(jobs)]
    serial = [repr(_timed_run(job)[0]) for job in jobs]
    assert pooled == serial


def test_criterion_01_projection_oracle(capsys):
    start = time.perf_counter()
    worst_excess, worst_member = -np.inf, 0.0
    for rep in MANIFOLD_REPS:
        opt = check_projection_optimality(rep, n=1000)
        mem = check_projection_membership(rep, n=1000)
        assert opt.passed, opt.detail
        assert mem.passed, mem.detail
        worst_excess = max(worst_excess, opt.measured)
        worst_member = max(worst_member, mem.measured)
    elapsed = time.perf_counter() - start
    ok = elapsed < PROJECTION_RUNTIME_S
    _verdict(capsys, 1, "projection-oracle-optimality", ok,
             f"4 reps x 1000 cases: max excess {worst_excess:.2e} (tol 1e-4), "
             f"max membership residual {worst_member:.2e} (tol 1e-6), "
             f"{elapsed:.1f}s (budget {PROJECTION_RUNTIME_S:.0f}s)")


def test_criterion_02_riemannian_gradient(capsys):
    results = [check_gradient_fd(name) for name in ("l2", "geodesic", "flow", "chamfer")]
    hand = check_gradient_hand_case()
    ok = all(r.passed for r in results) and hand.passed
    detail = "; ".join(f"{r.name.split('-')[-1]} {r.measured:.2e}" for r in results)
    _verdict(capsys, 2, "riemannian-gradient-fd", ok,
             f"100 cases each, max relative FD residual: {detail} "
             f"(tol 1e-6, chamfer 1e-3); hand case {hand.measured:.2e} (tol 1e-9)")


def test_criterion_03_tau_converge_lemma(capsys):
    l2 = check_tau_converge("l2")
    geo = check_tau_converge("geodesic")
    s2 = check_tau_converge_s2()
    ok = l2.passed and geo.passed and s2.passed
    _verdict(capsys, 3, "tau-converge-lemma", ok,
             f"max residual/theta^3: l2 {l2.measured:.2e}, "
             f"geodesic {geo.measured:.2e}, s2 {s2.measured:.2e} "
             f"at theta in {{1e-2,1e-3,1e-4}} (bound 1)")


def test_criterion_04_geodesic_path(capsys):
    res = check_goal_direction(n=1000)
    _verdict(capsys, 4, "goal-along-geodesic", res.passed,
             f"1000 cases: max 1-cosine {res.measured:.2e} (tol 1e-8)")


def test_criterion_05_direct_fitting(capsys):
    worst_err, worst_time = 0.0, 0.0
    for rep in MANIFOLD_REPS:
        for seed in SEEDS:
            start = time.perf_counter()
            result = fit_single_rotation(rep, Method.RPMG, loss="l2", tau="auto",
                                         lam=0.01, seed=seed, iters=2000)
            elapsed = time.perf_counter() - start
            assert not result.aborted, result.diagnostic
            worst_err = max(worst_err, result.final_error)
            worst_time = max(worst_time, elapsed)
    ok = worst_err < TOL_FIT_ERROR_RAD and worst_time < FIT_RUNTIME_S
    _verdict(capsys, 5, "direct-fitting-convergence", ok,
             f"4 reps x seeds 0-2, 2000 steps: max final error {worst_err:.2e} rad "
             f"(tol {TOL_FIT_ERROR_RAD:.0e}), max {worst_time:.2f}s/run "
             f"(budget {FIT_RUNTIME_S:.0f}s)")


def test_criterion_06_norm_dynamics(capsys, so3_runs):
    failures, parts = [], []
    for rep in MANIFOLD_REPS:
        pmg, _ = so3_runs[(Method.PMG, rep, 0)]
        rpmg, _ = so3_runs[(Method.RPMG, rep, 0)]
        pmg_ratio, rpmg_ratio = _norm_ratio(pmg), _norm_ratio(rpmg)
        parts.append(f"{rep.value} pmg {pmg_ratio:.2f}x rpmg {rpmg_ratio:.2f}x")
        if not pmg_ratio < NORM_COLLAPSE_RATIO:
            failures.append(f"{rep.value} pmg {pmg_ratio:.2f}x !< {NORM_COLLAPSE_RATIO}x")
        if not NORM_BAND[0] <= rpmg_ratio <= NORM_BAND[1]:
            failures.append(f"{rep.value} rpmg {rpmg_ratio:.2f}x outside {NORM_BAND}")
    _verdict(capsys, 6, "norm-dynamics", not failures,
             ("; ".join(failures) if failures else
              f"final/initial mean norm at iter {TRAIN_ITERS}: " + ", ".join(parts)))


def test_criterion_07_ordering_trend(capsys, so3_runs):
    failures, parts = [], []
    elapsed = 0.0
    for rep in MANIFOLD_REPS:
        for seed in SEEDS:
            rpmg, t_r = so3_runs[(Method.RPMG, rep, seed)]
            vanilla, t_v = so3_runs[(Method.VANILLA, rep, seed)]
            elapsed += t_r + t_v
            m_r, m_v = rpmg.final.median_deg, vanilla.final.median_deg
            n_r, n_v = _norm_ratio(rpmg), _norm_ratio(vanilla)
            parts.append(f"{rep.value}/s{seed} {m_r:.2f} ({n_r:.2f}x) vs {m_v:.2f} ({n_v:.2f}x)")
            if not m_r < m_v:
                failures.append(f"{rep.value} seed {seed}: rpmg {m_r:.3f} ({n_r:.2f}x) "
                                f"!< vanilla {m_v:.3f} ({n_v:.2f}x)")
    if elapsed >= ORDERING_RUNTIME_S:
        failures.append(f"runtime {elapsed:.0f}s over budget {ORDERING_RUNTIME_S:.0f}s")
    detail = (f"median deg (final/initial norm) rpmg vs vanilla at {TRAIN_ITERS} iters, "
              f"{elapsed:.0f}s: " + "; ".join(parts))
    _verdict(capsys, 7, "ordering-trend", not failures,
             detail if not failures else "; ".join(failures) + " | " + detail)


def test_criterion_08_special_case_identities(capsys):
    bit = check_lambda_one_equals_mg()
    tau_gt = check_mg_tau_gt_identity()
    ok = bit.passed and tau_gt.passed
    _verdict(capsys, 8, "mg-special-cases", ok,
             f"lambda=1 vs mg: {bit.detail}; tau_gt identity max "
             f"{tau_gt.measured:.2e} (tol 1e-9)")


def test_criterion_09_sphere_regression(capsys, s2_runs):
    failures, parts = [], []
    for seed in SEEDS:
        rpmg = s2_runs[(S2Method.RPMG, seed)]
        base = s2_runs[(S2Method.L2_WITH_NORM, seed)]
        m_r, m_b = rpmg.final.median_deg, base.final.median_deg
        n_r, n_b = _norm_ratio(rpmg), _norm_ratio(base)
        parts.append(f"s{seed} {m_r:.2f} ({n_r:.2f}x) vs {m_b:.2f} ({n_b:.2f}x)")
        if not m_r < m_b:
            failures.append(f"seed {seed}: rpmg {m_r:.3f} ({n_r:.2f}x) "
                            f"!< l2-with-norm {m_b:.3f} ({n_b:.2f}x)")
    collapse = _norm_ratio(s2_runs[(S2Method.PMG, 0)])
    parts.append(f"pmg norm {collapse:.2f}x")
    if not collapse < NORM_COLLAPSE_RATIO:
        failures.append(f"pmg norm ratio {collapse:.2f}x !< {NORM_COLLAPSE_RATIO}x")
    detail = "median deg (final/initial norm) rpmg vs l2-with-norm: " + "; ".join(parts)
    _verdict(capsys, 9, "sphere-regression", not failures,
             detail if not failures else "; ".join(failures) + " | " + detail)


def test_criterion_10_numerics_substrate(capsys):
    results = [check_forward_map_9d(), check_forward_map_10d(), check_kkt_eigen_residual(n=1000)]
    ok = all(r.passed for r in results)
    _verdict(capsys, 10, "numerics-substrate", ok,
             "; ".join(f"{r.name} {r.measured:.2e}" for r in results))
