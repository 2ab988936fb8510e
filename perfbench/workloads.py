"""The benchmark's workloads: fixed cells built from a seed, plus the gate.

A cell is one call into the library's public API: ``train``, ``train_s2``
or ``fit_single_rotation``.  Every cell of a workload takes the workload
seed; the library receives only the generated configs.  Sizes follow the
library defaults (batch 32, 2048 rotations, 16 points, MLP 48-128-128-n,
Adam at 1e-3, 2000 fit steps); only the number of training iterations is
cut, so that one pass over a workload's cells takes a few seconds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, List, Optional

import numpy as np

from rotgrad import (
    MANIFOLD_REPS,
    ExperimentConfig,
    L2Frobenius,
    Method,
    RepKind,
    RpmgParams,
    baseline_rotation,
    embed,
    fit_single_rotation,
    representation_map,
    rpmg_gradient,
    rpmg_gradient_batch,
    so3,
    train,
    train_s2,
)
from rotgrad.harness import DEFAULT_TAU_BY_LOSS, S2Method
from rotgrad.representations import rotations_from_raw

WORKLOADS = {
    "train-l2": "rpmg l2 on quat, 6d, 9d, 10d and one S2 cell: the trainer's batched route",
    "train-vanilla": "vanilla l2 on quat, 6d (analytic) and 9d, 10d (finite differences): the paper's baseline",
    "train-loss-generic": "geodesic, flow and chamfer losses: 32 per-sample rpmg_gradient calls per step",
    "fit-and-check": "fit_single_rotation per rep x {l2, geodesic} x {mg, pmg, rpmg}, then run_checks()",
}

# training iterations per cell, chosen so that one pass over a workload's
# cells takes about 1.5 to 4 s on a 2-core x86 machine
TRAIN_ITERS = {"train-l2": 300, "train-vanilla": 200, "train-loss-generic": 60}
FIT_ITERS = 2000
FIT_TOL_RAD = 1e-4  # the convergence tolerance of acceptance criterion 5
PROBE_BATCH = 32
PROBE_TOL = 1e-9  # the batch-vs-per-sample tolerance of the equality tests
PROBE_TAU = 0.2


@dataclass(frozen=True)
class Cell:
    label: str
    kind: str  # "train", "train_s2" or "fit"
    config: Optional[ExperimentConfig] = None
    fit_args: Optional[dict] = None

    @property
    def iters(self) -> int:
        return self.config.iters if self.config is not None else self.fit_args["iters"]

    def call(self, iters: Optional[int] = None):
        """Run the cell; ``iters=0`` runs only its set-up."""
        n = self.iters if iters is None else iters
        if self.kind == "fit":
            return fit_single_rotation(**{**self.fit_args, "iters": n})
        fn: Callable = train if self.kind == "train" else train_s2
        return fn(replace(self.config, iters=n))


def _train(rep: RepKind, method: Method, loss: str, seed: int, iters: int) -> Cell:
    tau = DEFAULT_TAU_BY_LOSS.get(loss, "auto")
    cfg = ExperimentConfig(rep=rep, method=method, loss=loss, tau=tau, seed=seed, iters=iters)
    return Cell(f"train {rep.value} {method.value} {loss}", "train", config=cfg)


def cells_for(workload: str, seed: int, iters: Optional[int] = None) -> List[Cell]:
    """The workload's cells for a seed.  ``iters`` overrides the training
    and fitting iteration counts (the smoke test uses tiny ones)."""
    if workload == "fit-and-check":
        n = FIT_ITERS if iters is None else iters
        return [Cell(f"fit {rep.value} {method.value} {loss}", "fit",
                     fit_args=dict(rep=rep, method=method, loss=loss, seed=seed, iters=n))
                for rep in MANIFOLD_REPS
                for loss in ("l2", "geodesic")
                for method in (Method.MG, Method.PMG, Method.RPMG)]
    n = TRAIN_ITERS[workload] if iters is None else iters
    if workload == "train-l2":
        cells = [_train(rep, Method.RPMG, "l2", seed, n) for rep in MANIFOLD_REPS]
        s2 = ExperimentConfig(method=S2Method.RPMG, seed=seed, iters=n)
        return cells + [Cell("train_s2 rpmg", "train_s2", config=s2)]
    if workload == "train-vanilla":
        return [_train(rep, Method.VANILLA, "l2", seed, n) for rep in MANIFOLD_REPS]
    if workload == "train-loss-generic":
        return [_train(RepKind.TEN_D, Method.RPMG, "geodesic", seed, n),
                _train(RepKind.QUAT4, Method.PMG, "geodesic", seed, n),
                _train(RepKind.SIX_D, Method.RPMG, "flow", seed, n),
                _train(RepKind.NINE_D, Method.RPMG, "chamfer", seed, n)]
    raise ValueError(f"unknown workload {workload!r}; expected one of {sorted(WORKLOADS)}")


# ---------------------------------------------------------------------------
# outcome of one cell


def cell_outcome(cell: Cell, result) -> dict:
    """Final error, abort flag and the gate's row check for one cell result.

    A training report that did not abort must hold one finite row per
    evaluation point; a fit that did not abort must hold iters + 1 finite
    errors and norms.  ``rows_ok`` False fails the correctness gate.
    """
    if cell.kind == "fit":
        errors, norms = np.asarray(result.errors), np.asarray(result.norms)
        rows_ok = result.aborted or (
            len(errors) == cell.iters + 1 and len(norms) == cell.iters + 1
            and bool(np.isfinite(errors).all() and np.isfinite(norms).all()))
        final = float(errors[-1]) if len(errors) else math.nan
        return {"final_rad": final, "aborted": bool(result.aborted),
                "diagnostic": result.diagnostic, "rows_ok": rows_ok,
                "steps": max(len(errors) - 1, 0)}
    cfg = cell.config
    expected = cfg.iters // cfg.eval_every + 1 + (1 if cfg.iters % cfg.eval_every else 0)
    rows = result.rows
    finite = all(np.isfinite([r.mean_deg, r.median_deg, r.acc5, r.acc3, r.mean_norm]).all()
                 for r in rows)
    rows_ok = result.aborted or (len(rows) == expected and finite)
    final = float(rows[-1].median_deg) if rows else math.nan
    return {"final_median_deg": final, "aborted": bool(result.aborted),
            "diagnostic": result.diagnostic, "rows_ok": rows_ok,
            "steps": None if result.aborted else cfg.iters}


# ---------------------------------------------------------------------------
# correctness gate: batched l2 route against the per-sample route


def probe_gate(seed: int) -> List[str]:
    """Compare ``rpmg_gradient_batch`` with per-sample ``rpmg_gradient``.

    One probe batch per manifold rep: noisy scalings of embedded random
    rotations against random targets, under every method.  Returns one
    message per mismatch beyond the equality tests' tolerance.
    """
    rng = np.random.default_rng(seed)
    errors = []
    for rep in MANIFOLD_REPS:
        xs = []
        while len(xs) < PROBE_BATCH:
            x = rng.uniform(0.5, 2.0) * embed(representation_map(so3.sample_uniform_rotation(rng), rep))
            x = x + 0.3 * rng.standard_normal(rep.ambient_dim)
            try:
                baseline_rotation(rep, x)
            except ValueError:
                continue
            xs.append(x)
        xs = np.array(xs)
        rs = rotations_from_raw(rep, xs)
        r_gts = np.array([so3.sample_uniform_rotation(rng) for _ in xs])
        for params in (RpmgParams(Method.VANILLA), RpmgParams(Method.MG),
                       RpmgParams(Method.PMG), RpmgParams(Method.RPMG, lam=0.01)):
            batch = rpmg_gradient_batch(rep, xs, rs, r_gts, PROBE_TAU, params)
            for i in range(PROBE_BATCH):
                one = rpmg_gradient(rep, xs[i], rs[i], L2Frobenius(r_gts[i]), PROBE_TAU, params)
                dev = float(np.linalg.norm(batch[i] - one))
                if not dev <= PROBE_TOL:
                    errors.append(f"probe {rep.value} {params.method.value} row {i}: "
                                  f"batch differs from per-sample by {dev:.3e}")
    return errors
