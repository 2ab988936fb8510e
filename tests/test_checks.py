"""The verification registry itself: clean runs, filtering, fault injection."""

import math
import multiprocessing
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import rotgrad
import rotgrad.representations as reps
import rotgrad.riemannian as riemannian
import rotgrad.rpmg as rpmg
import rotgrad.so3 as so3
import rotgrad.sphere as sphere
from rotgrad.checks import (
    CHECK_NAMES,
    CHECKS,
    _CASE_BLOCK,
    _PGD_STEP_SIZE,
    _PGD_STEPS,
    TOL_PROJECTION_EXCESS,
    CheckResult,
    _baseline_rotations,
    _forward_map_9d_cases,
    _haar_rotations,
    _oracle_block,
    check_tau_converge,
    membership_residual,
    oracle_inverse_image_batch,
    run_checks,
    sample_projection_cases,
)
from rotgrad.representations import MANIFOLD_REPS, RepKind
from rotgrad.riemannian import NoAnalyticTauError


def test_importing_the_package_leaves_the_checks_unloaded():
    code = ("import sys, rotgrad, rotgrad.cli; unloaded = 'rotgrad.checks' not in sys.modules; "
            "from rotgrad import CheckResult, run_checks; "
            "print(unloaded, CheckResult.__module__, run_checks.__module__)")
    src = str(Path(rotgrad.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=60, check=True)
    assert done.stdout.split() == ["True", "rotgrad.checks", "rotgrad.checks"]
    with pytest.raises(AttributeError, match="no attribute 'not_a_name'"):
        rotgrad.not_a_name


def test_registry_is_ordered_and_named():
    assert len(CHECK_NAMES) == len(set(CHECK_NAMES))
    assert tuple(CHECKS) == CHECK_NAMES
    for rep in MANIFOLD_REPS:
        assert f"projection-optimality-{rep.value}" in CHECK_NAMES
        assert f"projection-membership-{rep.value}" in CHECK_NAMES
    assert "tau-converge-s2" in CHECK_NAMES
    assert "vanilla-backward-fd" in CHECK_NAMES
    assert "forward-map-9d" in CHECK_NAMES and "forward-map-10d" in CHECK_NAMES
    assert "lin-core-solve" not in CHECK_NAMES
    assert len(CHECK_NAMES) == 23


def test_full_registry_passes():
    results = run_checks()
    assert [r.name for r in results] == list(CHECK_NAMES)
    failed = [r for r in results if not r.passed]
    assert not failed, [f"{r.name}: {r.detail}" for r in failed]
    assert all(not r.error for r in results)
    assert all(type(r.passed) is bool and type(r.measured) is float for r in results)


def test_filter_selects_substring_matches():
    results = run_checks("projection")
    assert all("projection" in r.name for r in results)
    assert len(results) == 8
    only_10d = run_checks("10d")
    assert {r.name for r in only_10d} == {
        "projection-optimality-10d",
        "projection-membership-10d",
        "forward-map-10d",
    }


def test_unknown_filter_raises():
    with pytest.raises(ValueError, match="no check name contains"):
        run_checks("definitely-not-a-check")


def test_parallel_jobs_match_serial():
    serial = run_checks("forward-map")
    parallel = run_checks("forward-map", jobs=3)
    assert [r.name for r in serial] == [r.name for r in parallel]
    assert all(r.passed for r in parallel)


def test_injected_sign_bug_fails_by_name(monkeypatch):
    orig = rpmg.inverse_project

    def sign_bugged(rep, x, r_g):
        return -orig(rep, x, r_g)

    monkeypatch.setattr(rpmg, "inverse_project", sign_bugged)
    results = run_checks("projection-optimality")
    assert all(not r.passed for r in results)
    assert {r.name for r in results} == {
        f"projection-optimality-{rep.value}" for rep in MANIFOLD_REPS
    }
    # the report carries the measured excess, not just the verdict
    assert all("excess" in r.detail for r in results)


def test_injected_sphere_goal_bug_fails_by_name(monkeypatch):
    orig = sphere._s2_goal_batch

    def half_stepped(x_hat, targets, tau):
        return orig(x_hat, targets, 0.5 * tau)

    monkeypatch.setattr(sphere, "_s2_goal_batch", half_stepped)
    [result] = run_checks("tau-converge-s2")
    assert result.name == "tau-converge-s2"
    assert not result.passed and not result.error
    assert result.measured > 1.0


def test_injected_vanilla_backward_bug_fails_by_name(monkeypatch):
    orig = reps.vanilla_backward_batch

    def ten_d_bugged(rep, xs, gs):
        out = orig(rep, xs, gs)
        return -out if rep is RepKind.TEN_D else out

    monkeypatch.setattr(reps, "vanilla_backward_batch", ten_d_bugged)
    [result] = run_checks("vanilla-backward-fd")
    assert not result.passed and not result.error
    assert result.measured > 1.0


def test_injected_forward_map_bugs_fail_by_name(monkeypatch):
    orig = reps.manifold_map

    def bugged(rep, x):
        if rep is RepKind.NINE_D:  # polar factor without the det sign fix
            u, _, vt = np.linalg.svd(np.reshape(x, (3, 3)))
            return reps.ManifoldPoint(rep, u @ vt)
        if rep is RepKind.TEN_D:  # eigenvector of the second eigenvalue
            _, vecs = np.linalg.eigh(reps.sym4_from_params(x))
            return reps.ManifoldPoint(rep, vecs[:, 1])
        return orig(rep, x)

    monkeypatch.setattr(reps, "manifold_map", bugged)
    results = run_checks("forward-map")
    assert [r.name for r in results] == ["forward-map-9d", "forward-map-10d"]
    assert all(not r.passed and not r.error and r.measured >= 1.0 for r in results)


# function: (its module, the fault built from the original, a check it breaks)
_FAULTS = {
    "euclid_grad": (riemannian, lambda orig: lambda loss, r: np.zeros((3, 3)), "gradient-fd-l2"),
    "riemannian_grad": (riemannian, lambda orig: lambda r, g: -orig(r, g), "gradient-fd-geodesic"),
    "goal_rotation": (riemannian, lambda orig: lambda r, phi, tau: orig(r, phi, -tau),
                      "goal-direction-l2"),
    "baseline_rotation": (reps, lambda orig: lambda rep, x: np.eye(3), "representation-round-trip"),
    "embed": (reps, lambda orig: lambda point: orig(point)[::-1], "representation-round-trip"),
    "representation_map": (reps, lambda orig: lambda r, rep: orig(np.asarray(r).T, rep),
                           "representation-round-trip"),
}


@pytest.mark.parametrize("function", sorted(_FAULTS))
def test_injected_fault_in_a_verified_function_fails_its_check(monkeypatch, function):
    module, fault, check = _FAULTS[function]
    monkeypatch.setattr(module, function, fault(getattr(module, function)))
    [result] = run_checks(check)
    assert result.name == check
    assert not result.passed and not result.error
    assert result.measured > 1e-3


def test_tau_converge_check_takes_the_loss_from_the_loss_table():
    assert check_tau_converge("l2").detail.endswith("(tau=0.25)")
    assert check_tau_converge("geodesic").detail.endswith("(tau=0.5)")
    for loss in ("flow", "chamfer"):
        with pytest.raises(NoAnalyticTauError):
            check_tau_converge(loss)
    with pytest.raises(ValueError, match="unknown loss 'nope'"):
        check_tau_converge("nope")


def test_check_result_coerces_numpy_verdicts():
    r = CheckResult("x", np.float64(0.5) < 1.0, "d", measured=np.float64(0.5))
    assert type(r.passed) is bool and type(r.measured) is float


def test_injected_exception_marks_error(monkeypatch):
    def broken(rep, x, r_g):
        raise FloatingPointError("synthetic overflow")

    monkeypatch.setattr(rpmg, "inverse_project", broken)
    results = run_checks("projection-membership-quat")
    assert len(results) == 1
    assert not results[0].passed
    assert results[0].error
    assert "FloatingPointError" in results[0].detail


@pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                    reason="only forked workers inherit a monkeypatch")
def test_forked_workers_see_injected_faults(monkeypatch):
    def broken(rep, x, r_g):
        raise FloatingPointError("synthetic overflow")

    monkeypatch.setattr(rpmg, "inverse_project", broken)
    results = run_checks("projection-membership", jobs=2)
    assert len(results) == 4
    assert all(r.error and "FloatingPointError" in r.detail for r in results)


def test_check_seconds_are_timed_but_not_compared():
    [timed] = run_checks("tau-converge-l2")
    assert timed.seconds >= 0.0
    untimed = CheckResult(timed.name, timed.passed, timed.detail,
                          measured=timed.measured)
    assert timed == untimed and repr(timed) == repr(untimed)
    assert "seconds" not in repr(timed)


def test_check_result_is_frozen():
    r = CheckResult("x", True, "d")
    with pytest.raises(AttributeError):
        r.passed = False


@pytest.mark.parametrize("regime", [{}, {"max_ambient_angle": math.inf, "goal_step": math.pi}],
                         ids=["default", "wide"])
@pytest.mark.parametrize("rep", MANIFOLD_REPS, ids=lambda r: r.value)
def test_sample_projection_cases_deterministic(rep, regime):
    bound = regime.get("max_ambient_angle", math.pi / 3)
    goal_step = regime.get("goal_step", 0.5)
    n = 300
    xs, r_gs = sample_projection_cases(rep, n, 7, **regime)
    assert xs.shape == (n, rep.ambient_dim) and r_gs.shape == (n, 3, 3)
    assert np.isfinite(xs).all() and np.isfinite(r_gs).all()
    b_x, b_r = sample_projection_cases(rep, n, 7, **regime)
    assert np.array_equal(xs, b_x) and np.array_equal(r_gs, b_r)
    c_x, c_r = sample_projection_cases(rep, n, 8, **regime)
    assert not np.array_equal(xs, c_x) and not np.array_equal(r_gs, c_r)
    # a smaller draw is a prefix of a larger one
    d_x, d_r = sample_projection_cases(rep, 10, 7, **regime)
    assert np.array_equal(d_x, xs[:10]) and np.array_equal(d_r, r_gs[:10])
    for x, r_g in zip(xs, r_gs):
        x_hat_g = reps.embed(reps.representation_map(r_g, rep))
        cos = x @ x_hat_g / (np.linalg.norm(x) * np.linalg.norm(x_hat_g))
        assert math.acos(min(1.0, max(-1.0, cos))) < bound
        assert so3.geodesic_distance(reps.baseline_rotation(rep, x), r_g) <= goal_step + 1e-12


def test_degenerate_rows_are_skipped_not_fatal():
    xs = np.array([[1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0], [0.0, 3.0, 0.0, 0.0]])
    rs, ok = _baseline_rotations(RepKind.QUAT4, xs)
    assert ok.tolist() == [True, False, True]
    for x, r in zip(xs[ok], rs[ok]):
        assert np.array_equal(r, reps.baseline_rotation(RepKind.QUAT4, x))


def test_batched_draws_are_the_per_case_draws():
    # representation-round-trip and tau-converge-* take their rotations from
    # one Gaussian block, forward-map-9d its matrices from one draw: the
    # bits of the per-case loops they replace
    rng = np.random.default_rng(449)
    loop = np.array([so3.sample_uniform_rotation(rng) for _ in range(500)])
    assert np.array_equal(_haar_rotations(np.random.default_rng(449).standard_normal((500, 4))), loop)
    rng = np.random.default_rng(701)
    loop = []
    for i in range(500):
        m = rng.standard_normal((3, 3))
        if i % 5 == 0:
            m[:, i % 3] = m[:, (i + 1) % 3] + 1e-9 * rng.standard_normal(3)
        loop.append(m)
    assert np.array_equal(_forward_map_9d_cases(np.random.default_rng(701), 500), np.array(loop))


def _membership_residual_loop(rep, x_gp, r_g):
    """One case of ``membership_residual``, as the per-case loop computed it."""
    if rep is RepKind.QUAT4:
        q = so3.rot_to_quat(r_g)
        return float(np.linalg.norm(x_gp - (x_gp @ q) * q))
    if rep is RepKind.SIX_D:
        u, v = x_gp[:3], x_gp[3:]
        u_g, v_g = r_g[:, 0], r_g[:, 1]
        return float(max(np.linalg.norm(u - (u @ u_g) * u_g),
                         np.linalg.norm(v - (v @ u_g) * u_g - (v @ v_g) * v_g)))
    if rep is RepKind.NINE_D:
        a = x_gp.reshape(3, 3) @ r_g.T
        return float(np.linalg.norm(a - a.T))
    q = so3.rot_to_quat(r_g)
    a = reps.sym4_from_params(x_gp)
    return float(np.linalg.norm(a @ q - float(q @ a @ q) * q))


@pytest.mark.parametrize("rep", MANIFOLD_REPS, ids=lambda r: r.value)
def test_membership_residual_stacks_match_the_per_case_loop(rep):
    # raw vectors, not projections, so the residuals are O(1) and a
    # relative tolerance sees the arithmetic
    xs, r_gs = sample_projection_cases(rep, 50, seed=5)
    stacked = membership_residual(rep, xs, r_gs)
    assert stacked.shape == (50,)
    loop = [_membership_residual_loop(rep, x, r_g) for x, r_g in zip(xs, r_gs)]
    np.testing.assert_allclose(stacked, loop, rtol=1e-12)


@pytest.mark.parametrize("rep", MANIFOLD_REPS)
def test_oracle_never_beats_closed_form(rep):
    xs, r_gs = sample_projection_cases(rep, 50, seed=23)
    closed = np.array([rpmg.inverse_project(rep, x, r_g) for x, r_g in zip(xs, r_gs)])
    oracle = oracle_inverse_image_batch(rep, xs, r_gs)
    d_closed = np.linalg.norm(closed - xs, axis=1)
    d_oracle = np.linalg.norm(oracle - xs, axis=1)
    assert (d_closed <= d_oracle + 1e-6).all()
    # both satisfy the membership constraint, so they chase the same set
    assert (membership_residual(rep, oracle, r_gs) <= 1e-5).all()


@pytest.mark.parametrize("rep", MANIFOLD_REPS, ids=lambda r: r.value)
def test_closed_form_optimal_out_to_pi(rep):
    # goal steps up to pi and no ambient-angle filter: the whole family of
    # goals, not only the regime that check_projection_optimality samples
    xs, r_gs = sample_projection_cases(rep, 1000, seed=907,
                                       max_ambient_angle=math.inf,
                                       goal_step=math.pi)
    closed = np.array([rpmg.inverse_project(rep, x, r_g) for x, r_g in zip(xs, r_gs)])
    oracle = oracle_inverse_image_batch(rep, xs, r_gs)
    d_closed = np.linalg.norm(closed - xs, axis=1)
    d_oracle = np.linalg.norm(oracle - xs, axis=1)
    assert np.max(d_closed - d_oracle) <= TOL_PROJECTION_EXCESS


@pytest.mark.parametrize("rep", MANIFOLD_REPS, ids=lambda r: r.value)
def test_oracle_converges_to_closed_form(rep):
    # on the projection-optimality check's own cases the descent oracle
    # must end at the closed form's distance, not merely above it
    xs, r_gs = sample_projection_cases(rep, 1000, seed=101)
    closed = np.array([rpmg.inverse_project(rep, x, r_g) for x, r_g in zip(xs, r_gs)])
    oracle = oracle_inverse_image_batch(rep, xs, r_gs)
    d_closed = np.linalg.norm(closed - xs, axis=1)
    d_oracle = np.linalg.norm(oracle - xs, axis=1)
    assert np.max(np.abs(d_oracle - d_closed)) <= 1e-9


@pytest.mark.parametrize("rep", MANIFOLD_REPS, ids=lambda r: r.value)
def test_oracle_blocks_give_the_whole_stack_bits(rep):
    xs, r_gs = sample_projection_cases(rep, _CASE_BLOCK + 100, seed=41)
    whole = _oracle_block(rep, xs, r_gs, _PGD_STEPS, _PGD_STEP_SIZE)
    assert oracle_inverse_image_batch(rep, xs, r_gs).tobytes() == whole.tobytes()


def test_ten_d_oracle_holds_one_block_of_step_matrices():
    xs, r_gs = sample_projection_cases(RepKind.TEN_D, 1000, seed=101)
    tracemalloc.start()
    try:
        oracle_inverse_image_batch(RepKind.TEN_D, xs, r_gs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the whole stack of 1000 cases peaks at about 4.1e6 bytes
    assert peak <= 1.5e6


def test_membership_residual_rejects_non_manifold_rep():
    with pytest.raises(ValueError, match="no manifold inverse image"):
        membership_residual(RepKind.EULER3, np.zeros((1, 3)), np.eye(3)[None])
