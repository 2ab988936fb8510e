"""How far last-bit rounding moves the trained-network acceptance criteria.

Run it from the root of a checkout (the library is imported from ./src and
the criteria's configs from ./tests/test_acceptance.py):

    python3 tools/rounding_spread.py
    python3 tools/rounding_spread.py --cells 7:quat --replicas 3

Criteria 6, 7 and 9 read 5000-iteration training runs, and some of their
cells amplify a change in the last bit of any operation into a different
final median.  This tool runs each cell's exact criterion config K times
(``--replicas``, default 5).  Replica 0 is the criterion's own run.
Replica k (k >= 1) nudges a seeded 10 % of the initial parameter vector up
by one ulp (``np.nextafter`` towards +inf), through a wrapper around
``rotgrad.nn.init_mlp`` installed in the worker process; the library gains
no option.

It prints, per cell, the minimum, median and maximum over the replicas of
the final holdout median (degrees) and of the final/initial raw-norm ratio,
beside replica 0's values, the criterion's own run (to three decimals, as a
failing verdict line prints its medians).  Per
criterion row (a rep and seed of criterion 7, a seed of criterion 9, a rep
of criterion 6) it prints in how many replicas the row passes, and "held"
when every replica gives replica 0's verdict.  A change that moves training
bits and moves a cell inside its range has moved it by noise.

``--cells`` takes a comma-separated list of ``criterion`` or
``criterion:family`` items (families: quat, 6d, 9d, 10d, s2), for example
``6,7:9d,9``.  The runs go over ``harness.single_thread_pool(2)``: two
spawned workers with one BLAS thread each.
"""

from __future__ import annotations

import argparse
import statistics
import sys
import time
from pathlib import Path

NUDGE_FRACTION = 0.1
NUDGE_SEED = 20211021
CRITERIA = (6, 7, 9)
FAMILIES = ("quat", "6d", "9d", "10d", "s2")


def _import_paths(root: Path) -> None:
    for sub in ("tests", "src"):
        path = str(root / sub)
        if path not in sys.path:
            sys.path.insert(0, path)


def _nudged_init_mlp(init_mlp, replica: int):
    """``init_mlp`` whose result has a seeded 10 % of its parameters one ulp up."""
    import numpy as np

    def init(layer_sizes, rng):
        mlp = init_mlp(layer_sizes, rng)
        pick = np.random.default_rng((NUDGE_SEED, replica))
        n = mlp.params.size
        idx = pick.choice(n, size=round(NUDGE_FRACTION * n), replace=False)
        mlp.params[idx] = np.nextafter(mlp.params[idx], np.inf)
        return mlp
    return init


def _run(job):
    """One (root, cell, replica) job -> (final median in degrees, norm ratio)."""
    root, cell, replica = job
    _import_paths(Path(root))
    from rotgrad import nn
    from rotgrad.harness import S2Method, train, train_s2
    from rotgrad.representations import RepKind
    from rotgrad.rpmg import Method
    import test_acceptance as acc

    family, method, seed = cell
    init_mlp = nn.init_mlp
    if replica:  # a worker runs many jobs, so the wrapper is taken off again
        nn.init_mlp = _nudged_init_mlp(init_mlp, replica)
    try:
        if family == "s2":
            report = train_s2(acc._s2_config(S2Method(method), seed))
        else:
            report = train(acc._so3_config(Method(method), RepKind(family), seed))
    finally:
        nn.init_mlp = init_mlp
    return report.final.median_deg, acc._norm_ratio(report)


def _rows(criteria, families):
    """Criterion rows as (criterion, label, cells, verdict) with verdict(values) -> bool.

    ``values`` maps a cell to its (median, norm ratio) in one replica.
    The rules are those of tests/test_acceptance.py.
    """
    import test_acceptance as acc

    so3 = [f for f in ("quat", "6d", "9d", "10d") if f in families]
    rows = []
    if 6 in criteria:
        low, high = acc.NORM_BAND
        for rep in so3:
            pmg, rpmg = (rep, "pmg", 0), (rep, "rpmg", 0)
            rows.append((6, f"{rep} pmg ratio < {acc.NORM_COLLAPSE_RATIO}, rpmg ratio in "
                            f"[{low}, {high}]", [pmg, rpmg],
                         lambda v, pmg=pmg, rpmg=rpmg: (v[pmg][1] < acc.NORM_COLLAPSE_RATIO
                                                        and low <= v[rpmg][1] <= high)))
    if 7 in criteria:
        for rep in so3:
            for seed in acc.SEEDS:
                rpmg, vanilla = (rep, "rpmg", seed), (rep, "vanilla", seed)
                rows.append((7, f"{rep} seed {seed} rpmg < vanilla", [rpmg, vanilla],
                             lambda v, a=rpmg, b=vanilla: v[a][0] < v[b][0]))
    if 9 in criteria and "s2" in families:
        for seed in acc.SEEDS:
            rpmg, base = ("s2", "rpmg", seed), ("s2", "l2-with-norm", seed)
            rows.append((9, f"s2 seed {seed} rpmg < l2-with-norm", [rpmg, base],
                         lambda v, a=rpmg, b=base: v[a][0] < v[b][0]))
        pmg = ("s2", "pmg", 0)
        rows.append((9, f"s2 pmg ratio < {acc.NORM_COLLAPSE_RATIO}", [pmg],
                     lambda v, pmg=pmg: v[pmg][1] < acc.NORM_COLLAPSE_RATIO))
    return rows


def _parse_cells(text):
    """'6,7:9d' -> (criteria, families per criterion)."""
    chosen = {}
    for item in text.split(","):
        crit, _, family = item.strip().partition(":")
        if not crit.isdigit() or int(crit) not in CRITERIA or (family and family not in FAMILIES):
            raise ValueError(f"bad --cells item {item!r}: want one of {CRITERIA}, "
                             f"optionally ':' and one of {FAMILIES}")
        chosen.setdefault(int(crit), set()).update([family] if family else FAMILIES)
    return chosen


def _spread(xs):
    return f"{min(xs):.3f} / {statistics.median(xs):.3f} / {max(xs):.3f}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--cells", default="6,7,9",
                        help="criteria and families to run, e.g. '7:quat,9' (default: 6,7,9)")
    parser.add_argument("--replicas", type=int, default=5,
                        help="runs per cell, the first unperturbed (default 5)")
    args = parser.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "rotgrad").is_dir() or not (root / "tests" / "test_acceptance.py").is_file():
        parser.error(f"run from the root of a checkout: no src/rotgrad or tests under {root}")
    if args.replicas < 1:
        parser.error("--replicas must be at least 1")
    try:
        chosen = _parse_cells(args.cells)
    except ValueError as exc:
        parser.error(str(exc))
    _import_paths(root)
    from rotgrad.harness import single_thread_pool

    rows = [row for crit, families in sorted(chosen.items())
            for row in _rows((crit,), families)]
    cells = list(dict.fromkeys(cell for _, _, row_cells, _ in rows for cell in row_cells))
    jobs = [(str(root), cell, k) for cell in cells for k in range(args.replicas)]
    start = time.perf_counter()
    with single_thread_pool(2) as pool:
        results = pool.map(_run, jobs, chunksize=1)
    elapsed = time.perf_counter() - start
    per_cell = {cell: results[i * args.replicas:(i + 1) * args.replicas]
                for i, cell in enumerate(cells)}

    print(f"{len(cells)} cells x {args.replicas} replicas in {elapsed:.0f} s "
          f"(replica k > 0: {NUDGE_FRACTION:.0%} of the initial parameters one ulp up)")
    print("cell: replica 0 median (ratio) | median min / med / max | ratio min / med / max")
    for (family, method, seed), runs in per_cell.items():
        medians, ratios = [m for m, _ in runs], [r for _, r in runs]
        print(f"{family} {method} s{seed}: {medians[0]:.3f} ({ratios[0]:.2f}x) | "
              f"{_spread(medians)} | {_spread(ratios)}")
    print("criterion row: passes in replicas, held if every replica gives replica 0's verdict")
    for crit, label, row_cells, verdict in rows:
        passes = [verdict({cell: per_cell[cell][k] for cell in row_cells})
                  for k in range(args.replicas)]
        held = "held" if len(set(passes)) == 1 else "NOT held"
        print(f"{crit} {label}: replica 0 {'PASS' if passes[0] else 'FAIL'}, "
              f"passes in {sum(passes)}/{args.replicas}, {held}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
