"""One sha256 over the reports of a fixed set of short training runs.

Run it from the root of a checkout (the library is imported from ./src),
or point ``--src`` at another checkout's ``src`` directory:

    python3 tools/report_digest.py
    python3 tools/report_digest.py --src ../parent/src

It trains every ``train`` config over rep x method x loss (vanilla under l2
only; flow and chamfer at their shipped tau presets), the five ``train_s2``
rules, one run with an explicit tau, one with a ``TauSchedule`` and one with
an ``LrSchedule``, all at 150 iterations.  It hashes the ``repr`` of
every report in that order.  It prints one short digest per config, to
find the first one that differs, and the total hex digest on the last line.
Two checkouts whose training arithmetic is the same bit for bit print the
same digest.  Runs use one BLAS thread.  Only training reports are covered:
``fit_single_rotation``, ``tau_probe`` and the checks are not.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys
from pathlib import Path

ITERS = 150


def configs() -> list:
    """(trainer, config) pairs, in the order they are hashed."""
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
    for trainer, config in configs():
        text = repr(trainer(config)).encode()
        total.update(text)
        print(hashlib.sha256(text).hexdigest()[:16], trainer.__name__, config.rep.value,
              config.method.value, config.loss, config.tau, config.lr)
    print(total.hexdigest())
    return 0


if __name__ == "__main__":
    sys.exit(main())
