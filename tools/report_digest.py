"""One sha256 over the results of a fixed set of short runs of both routes.

Run it from the root of a checkout (the library is imported from ./src),
or point ``--src`` at another checkout's ``src`` directory:

    python3 tools/report_digest.py
    python3 tools/report_digest.py --src ../parent/src

Batched route: it trains every ``train`` config over rep x method x loss
(vanilla under l2 only; flow and chamfer at their shipped tau presets), the
five ``train_s2`` rules, one run with an explicit tau, one with a
``TauSchedule`` and one with an ``LrSchedule``, all at 150 iterations; then
vanilla ``train`` under geodesic, flow and chamfer for every rep.
Per-sample route: ``fit_single_rotation`` for every manifold rep x
{vanilla, mg, pmg, rpmg} x {l2, geodesic} at seed 1 (the vanilla fits reach
the batched vanilla backward at B = 1), ``inverse_project`` over 200 fixed
cases per manifold rep with goals out to pi, the sphere's
``_s2_gradient_batch`` one row at a time (B = 1) over 100 fixed cases at
each of lam = 0, 0.01 and 1, ``euclid_grad`` under each loss
over 100 fixed cases, one ``tau_probe``, and every ``run_checks()`` result.
CLI: ``cli.main`` into a temporary directory for one ``fit``, one
three-seed ``fit --seeds`` sweep, one ``train`` and one two-method
``train --methods`` sweep, at tiny iteration counts; each such line hashes
the exit code, stdout, stderr, and every output file under its path
relative to the output root (so the run-directory names count), with the
temporary prefix and the ``started_at``/``finished_at`` times masked.
It hashes the ``repr`` of every result in that order, a fit's arrays byte
for byte (numpy's repr rounds them).  It prints one short digest per run,
to find the first one that differs, and the total hex digest on the last
line.  Two checkouts whose arithmetic is the same bit for bit print the
same digest.  Runs use one BLAS thread.

The flow and chamfer runs pass ``DEFAULT_TAU_BY_LOSS``'s presets as
explicit steps rather than ``tau="auto"``.  Both mean the same step today,
but checkouts older than the rule that ``"auto"`` means the preset raise
``NoAnalyticTauError`` on ``"auto"`` there, and the digest must run on
either side of a change.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import os
import re
import sys
import tempfile
from pathlib import Path

ITERS = 150
FIT_SEED = 1
LAYER_CASES_SEED = 2
CLI_RUNS = (
    ("fit", "--rep", "6d", "--seed", "1", "--iters", "30"),
    ("fit", "--rep", "quat", "--method", "pmg", "--seeds", "0-2", "--iters", "30"),
    ("train", "--rep", "quat", "--seed", "2", "--iters", "20"),
    ("train", "--rep", "6d", "--methods", "vanilla,rpmg", "--iters", "20"),
)


def configs() -> list:
    """(trainer, config) pairs of the training runs, in the order they are hashed."""
    from rotgrad import ExperimentConfig, LrSchedule, Method, RepKind, TauSchedule
    from rotgrad.harness import DEFAULT_TAU_BY_LOSS, S2Method, train, train_s2
    from rotgrad.representations import MANIFOLD_REPS
    from rotgrad.riemannian import LOSS_NAMES

    def cfg(**fields):
        return ExperimentConfig(iters=ITERS, eval_every=50, **fields)

    out = [(train, cfg(rep=rep, method=Method.VANILLA)) for rep in RepKind]
    for rep in MANIFOLD_REPS:
        for method in (Method.MG, Method.PMG, Method.RPMG):
            for loss in LOSS_NAMES:
                tau = DEFAULT_TAU_BY_LOSS.get(loss, "auto")
                out.append((train, cfg(rep=rep, method=method, loss=loss, tau=tau)))
    out += [(train_s2, cfg(method=method)) for method in S2Method]
    out.append((train, cfg(rep=RepKind.SIX_D, tau=0.1)))
    out.append((train, cfg(rep=RepKind.TEN_D, tau=TauSchedule(0.05, 0.5, ITERS))))
    out.append((train, cfg(rep=RepKind.QUAT4, lr=LrSchedule(1e-3, (ITERS // 3, 2 * ITERS // 3)))))
    for rep in RepKind:
        for loss in LOSS_NAMES[1:]:
            out.append((train, cfg(rep=rep, method=Method.VANILLA, loss=loss,
                                   tau=DEFAULT_TAU_BY_LOSS.get(loss, "auto"))))
    return out


def _fit_text(result) -> str:
    arrays = (result.errors, result.norms, result.r_gt, result.x_final)
    return (repr((result.rep, result.method, result.aborted, result.diagnostic))
            + "".join(a.tobytes().hex() for a in arrays))


def _project_text(rep) -> str:
    """Bytes of the closed-form inverse projection over fixed cases.

    The cases are built here one at a time, so that they do not move with
    the library's case samplers: a raw vector is a noisy scaling of an
    embedded uniform rotation, its goal a step of up to pi from the
    forward rotation, and a raw vector the forward map rejects is skipped.
    """
    import math
    import numpy as np
    from rotgrad import so3
    from rotgrad.representations import baseline_rotation, embed, representation_map
    from rotgrad.rpmg import inverse_project

    rng = np.random.default_rng(LAYER_CASES_SEED)
    out = []
    while len(out) < 200:
        r0 = so3.sample_uniform_rotation(rng)
        x = rng.uniform(0.5, 2.0) * embed(representation_map(r0, rep))
        x = x + rng.normal(0.0, 0.3, rep.ambient_dim)
        try:
            r = baseline_rotation(rep, x)
        except ValueError:
            continue
        delta = rng.standard_normal(3)
        delta *= rng.uniform(0.0, math.pi) / np.linalg.norm(delta)
        out.append(inverse_project(rep, x, so3.exp_so3(r, delta)).tobytes().hex())
    return "".join(out)


def _s2_text(lam: float) -> str:
    """Bytes of the sphere gradient over fixed cases, one row per call."""
    import numpy as np
    from rotgrad.sphere import _s2_gradient_batch

    rng = np.random.default_rng(LAYER_CASES_SEED)
    out = []
    for _ in range(100):
        x = rng.standard_normal(3) * rng.uniform(0.5, 2.0)
        target = rng.standard_normal(3)
        target /= np.linalg.norm(target)
        g = _s2_gradient_batch(x[None], target[None], rng.uniform(0.0, 1.0), lam)[0]
        out.append(g.tobytes().hex())
    return "".join(out)


def _euclid_text(loss: str) -> str:
    """Bytes of the per-sample Euclidean gradient over fixed cases.

    Each loss is built from its class, under the trainer's point-set
    convention, so that the tool also runs on checkouts without
    ``make_loss``.
    """
    import numpy as np
    from rotgrad import so3
    from rotgrad.riemannian import Chamfer, Flow, GeodesicSquared, L2Frobenius, euclid_grad

    build = {"l2": lambda r_gt, z: L2Frobenius(r_gt),
             "geodesic": lambda r_gt, z: GeodesicSquared(r_gt),
             "flow": lambda r_gt, z: Flow(r_gt, z.T),
             "chamfer": lambda r_gt, z: Chamfer(z, z @ r_gt.T)}[loss]
    rng = np.random.default_rng(LAYER_CASES_SEED)
    out = []
    for _ in range(100):
        r = so3.sample_uniform_rotation(rng)
        r_gt = so3.sample_uniform_rotation(rng)
        z = rng.uniform(-1.0, 1.0, (16, 3))
        out.append(euclid_grad(build(r_gt, z), r).tobytes().hex())
    return "".join(out)


def _cli_text(argv) -> str:
    """Exit code, stdout, stderr and every output file of one CLI run."""
    from rotgrad import cli

    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main([*argv, "--out-dir", tmp])
        parts = [f"exit {code}", out.getvalue(), err.getvalue()]
        for path in sorted(p for p in Path(tmp).rglob("*") if p.is_file()):
            parts += [str(path.relative_to(tmp)), path.read_text()]
        text = "\n".join(parts).replace(tmp, "<out-dir>")
    return re.sub(r'"(started_at|finished_at)": "[^"]*"', r'"\1": "<time>"', text)


def runs() -> list:
    """(label, thunk) pairs; each thunk returns the text that is hashed."""
    from rotgrad import Method
    from rotgrad.checks import run_checks
    from rotgrad.harness import fit_single_rotation, tau_probe
    from rotgrad.representations import MANIFOLD_REPS, RepKind

    out = [(f"{trainer.__name__} {c.rep.value} {c.method.value} {c.loss} {c.tau} {c.lr}",
            lambda trainer=trainer, c=c: repr(trainer(c)))
           for trainer, c in configs()]
    for rep in MANIFOLD_REPS:
        for method in Method:
            for loss in ("l2", "geodesic"):
                out.append((f"fit_single_rotation {rep.value} {method.value} {loss} seed {FIT_SEED}",
                            lambda rep=rep, method=method, loss=loss: _fit_text(
                                fit_single_rotation(rep, method, loss=loss, seed=FIT_SEED))))
    for rep in MANIFOLD_REPS:
        out.append((f"inverse_project {rep.value} seed {LAYER_CASES_SEED}",
                    lambda rep=rep: _project_text(rep)))
    for lam in (0.0, 0.01, 1.0):
        out.append((f"_s2_gradient_batch B=1 lam {lam} seed {LAYER_CASES_SEED}",
                    lambda lam=lam: _s2_text(lam)))
    for loss in ("l2", "geodesic", "flow", "chamfer"):
        out.append((f"euclid_grad {loss} seed {LAYER_CASES_SEED}",
                    lambda loss=loss: _euclid_text(loss)))
    taus = (0.05, 0.5, 5.0, 50.0)
    out.append((f"tau_probe 6d flow {taus}",
                lambda: repr(tau_probe(RepKind.SIX_D, "flow", taus))))
    out.append(("run_checks", lambda: repr(run_checks())))
    for argv in CLI_RUNS:
        out.append(("cli " + " ".join(argv), lambda argv=argv: _cli_text(argv)))
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", default="src", help="directory that holds the rotgrad package")
    args = parser.parse_args(argv)
    src = Path(args.src).resolve()
    if not (src / "rotgrad").is_dir():
        parser.error(f"no rotgrad package under {src}")
    # one BLAS thread, set before the library first imports numpy
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(src))

    total = hashlib.sha256()
    for label, thunk in runs():
        text = thunk().encode()
        total.update(text)
        print(hashlib.sha256(text).hexdigest()[:16], label)
    print(total.hexdigest())
    return 0


if __name__ == "__main__":
    sys.exit(main())
