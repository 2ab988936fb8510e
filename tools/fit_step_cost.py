"""Median microseconds per ``fit_single_rotation`` step, per fit cell.

Run it from the root of a checkout (the library is imported from ./src),
or point ``--src`` at another checkout's ``src`` directory:

    python3 tools/fit_step_cost.py
    python3 tools/fit_step_cost.py --src ../parent/src

The cells are every manifold rep (quat, 6d, 9d, 10d) x {l2, geodesic} x
{mg, pmg, rpmg}, the fits of ``perfbench``'s ``fit-and-check`` workload.
Each cell runs one warm-up fit, then ``REPEATS`` fits of ``ITERS`` steps
at seeds ``SEED``, ``SEED`` + 1, ..., taken round the cells in turn. A
fit's cost per step is its wall time over the steps it ran (its start,
target draw and final forward included, about 0.1 us per step at 500
steps). It prints one line per cell: the median, minimum and maximum
over the repeats, and the number of fits that aborted. Runs use one BLAS
thread.
"""

from __future__ import annotations

import argparse
import os
import statistics
import sys
import time
from pathlib import Path

ITERS = 500    # steps per timed fit
REPEATS = 15   # timed fits per cell
SEED = 0       # seed of the first timed fit


def cells() -> list:
    """(rep, loss, method) of every timed fit, in the order printed."""
    from rotgrad import Method
    from rotgrad.representations import MANIFOLD_REPS

    return [(rep, loss, method) for rep in MANIFOLD_REPS for loss in ("l2", "geodesic")
            for method in (Method.MG, Method.PMG, Method.RPMG)]


def step_costs() -> dict:
    """{cell: (microseconds per step of each timed fit, aborted fits)}.

    The repeats go round the cells, so that a slow spell of a shared machine
    spreads over every cell instead of one."""
    from rotgrad.harness import fit_single_rotation

    out = {}
    for rep, loss, method in cells():
        fit_single_rotation(rep, method, loss=loss, seed=SEED, iters=20)
        out[rep, loss, method] = ([], 0)
    for k in range(REPEATS):
        for (rep, loss, method), (costs, aborted) in out.items():
            t0 = time.perf_counter()
            result = fit_single_rotation(rep, method, loss=loss, seed=SEED + k, iters=ITERS)
            costs.append(1e6 * (time.perf_counter() - t0) / max(1, len(result.errors) - 1))
            out[rep, loss, method] = (costs, aborted + result.aborted)
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

    print(f"{'rep':<4} {'loss':<9} {'method':<6} {'median':>7} {'min':>7} {'max':>7}  aborted"
          f"   (us/step, {REPEATS} fits of {ITERS} steps)")
    for (rep, loss, method), (costs, aborted) in step_costs().items():
        print(f"{rep.value:<4} {loss:<9} {method.value:<6} {statistics.median(costs):7.2f} "
              f"{min(costs):7.2f} {max(costs):7.2f}  {aborted}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
