"""rotgrad benchmark: one workload per invocation, from a source checkout.

Usage, from the root of a checkout (the library is imported from ./src):

    python3 perfbench/run.py --workload train-l2 --seed 0 --seconds 20 --trace 0

Workloads are listed in ``workloads.WORKLOADS``.  A run repeats whole passes
over the workload's fixed cells while another pass fits in ``--seconds``
(at least one pass) and reports medians over passes.  Times are also taken
in units of a reference step timed around every cell (``reference.py``),
which cancels the machine-wide speed drift of a shared host; the gated
throughput figures are in those units.

With ``--trace 0`` it prints the end-to-end metrics; with ``--trace 1`` it
alternates untraced and traced passes and prints the per-layer metrics of
the traced ones.  The last line of standard output is the result object;
the line before it is a detail object with the machine block, the raw
figures of every end-to-end metric that applies to the workload, per-cell
timings and the outcomes of the cells that show known defects.

Exit codes: 0 done, 1 the correctness gate failed (the result says
``"correct": false``), 2 no ``src/rotgrad`` under the working directory.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

# One BLAS thread: the benchmark is a single process on a shared machine,
# and the library's results are identical with 1 and 2 OpenBLAS threads.
# main() sets these before numpy is first imported; the set-up child
# processes inherit them.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

BENCH_DIR = Path(__file__).resolve().parent
SETUP_REPEATS = 5
CELL_SETUP_REPEATS = 3
CHILD_TIMEOUT_S = 60

# Set-up as a user pays it: a fresh interpreter imports the library and runs
# every cell of the workload with iters=0 (dataset, init, head calibration).
# The child then times reference steps; set-up is reported scaled to the
# reference speed (see reference.REF_STEP_S).
_SETUP_CHILD = """
import sys, time
t0 = time.perf_counter()
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import workloads
for cell in workloads.cells_for(sys.argv[3], int(sys.argv[4])):
    cell.call(0)
elapsed = time.perf_counter() - t0
import statistics, reference
ref = reference.Reference()
ref.seconds()  # warm-up: the set-up may not have used these shapes yet
print(elapsed, statistics.median(ref.seconds() for _ in range(3)))
"""


def machine_block() -> dict:
    import numpy as np

    blas = "unknown"
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        blas = f"{deps['blas']['name']} {deps['blas']['version']}"
    except (TypeError, KeyError):
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads_env": {var: os.environ.get(var) for var in THREAD_VARS},
        "loadavg_start": list(os.getloadavg()),
        "machine": platform.machine(),
    }


def measure_setup_s(src: Path, workload: str, seed: int):
    """(median set-up seconds scaled to the reference speed, median raw)."""
    from reference import REF_STEP_S

    scaled, raw = [], []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run(
            [sys.executable, "-c", _SETUP_CHILD, str(src), str(BENCH_DIR), workload, str(seed)],
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True)
        elapsed, ref = (float(v) for v in out.stdout.split()[-2:])
        raw.append(elapsed)
        scaled.append(elapsed / ref * REF_STEP_S)
    return statistics.median(scaled), statistics.median(raw)


class Run:
    """One invocation: the cells, their in-process set-up estimates, and the
    outcome of every cell and check run."""

    def __init__(self, workload: str, seed: int, cells, with_checks: bool) -> None:
        self.workload = workload
        self.seed = seed
        self.cells = cells
        self.with_checks = with_checks
        self.attempted = 0
        self.failed = 0
        self.gate_errors: list = []
        self.first_outcomes: dict = {}
        self.cell_seconds: dict = {cell.label: [] for cell in cells}
        self.checks_seconds: list = []
        self.check_results: list = []
        from reference import Reference

        self.reference = Reference()
        self.ref_seconds: list = []
        # set-up of each cell, subtracted from its full-run time so that
        # throughput excludes dataset, init and calibration
        self.cell_setup = {cell.label: statistics.median(
            _timed(cell.call, 0)[1] for _ in range(CELL_SETUP_REPEATS)) for cell in cells}

    def run_pass(self, root=None, checks: bool = True) -> dict:
        """Run every cell once (and the checks); ``root`` wraps each cell in
        a tracer root span.

        Throughput counts every step a cell completed, also in a cell that
        raised part way.  The pass time charges each cell its measured time
        per step for its nominal step count, so a seed whose defect cell
        raises early does not shorten the pass.  The ``*_ref`` figures divide
        each cell's time by the mean of the reference steps timed just
        before and after it.
        """
        from workloads import cell_outcome

        steps = 0
        timed_s = timed_ref = pass_s = pass_ref = 0.0
        ref_before = self.reference.seconds()
        for cell in self.cells:
            self.attempted += 1
            t0 = time.perf_counter()
            try:
                result = cell.call() if root is None else root(cell.label, cell.call)
            except Exception as exc:  # a cell that raises is a measured failure
                result = None
                outcome = {"raised": f"{type(exc).__name__}: {exc}",
                           "steps": _steps_before_raise(exc)}
            dt = max(time.perf_counter() - t0 - self.cell_setup[cell.label], 1e-9)
            ref, ref_before = self._reference_around(ref_before)
            if result is None:
                self.failed += 1
            else:
                outcome = cell_outcome(cell, result)
                if not outcome["rows_ok"]:
                    self.gate_errors.append(f"{cell.label}: report has missing or non-finite rows")
                self.failed += outcome["aborted"]
            nominal = dt
            if outcome["steps"]:
                steps += outcome["steps"]
                timed_s += dt
                timed_ref += dt / ref
                nominal = dt / outcome["steps"] * cell.iters
                if root is None:
                    self.cell_seconds[cell.label].append(dt / outcome["steps"])
            pass_s += nominal
            pass_ref += nominal / ref
            self.first_outcomes.setdefault(cell.label, outcome)
        if self.with_checks and checks:
            check_s = self.run_checks(root)
            ref, _ = self._reference_around(ref_before)
            pass_s += check_s
            pass_ref += check_s / ref
        return {"steps": steps, "pass_s": pass_s, "pass_ref": pass_ref,
                "iters_per_s": steps / timed_s if timed_s > 0 else math.nan,
                "iters_per_ref": steps / timed_ref if timed_ref > 0 else math.nan}

    def _reference_around(self, ref_before: float):
        """(mean reference step around the work just done, the new 'before')."""
        ref_after = self.reference.seconds()
        ref = 0.5 * (ref_before + ref_after)
        self.ref_seconds.append(ref)
        return ref, ref_after

    def run_checks(self, root=None) -> float:
        """All named checks, in this process; every verdict must be a pass."""
        from rotgrad import run_checks

        self.attempted += 1
        results, check_s = (_timed(run_checks, "", 1) if root is None
                            else _timed(root, "checks", run_checks, "", 1))
        self.checks_seconds.append(check_s)
        self.check_results = results
        bad = [r for r in results if not r.passed or r.error]
        if bad:
            self.failed += 1
            self.gate_errors += [f"check {r.name} failed: {r.detail}" for r in bad]
        return check_s


def _steps_before_raise(exc: BaseException):
    """Iterations a training or fitting loop completed before it raised,
    read from the loop variable ``it`` of the library frame; None if the
    traceback holds no such frame."""
    tb = exc.__traceback__
    steps = None
    while tb is not None:
        frame = tb.tb_frame
        if frame.f_code.co_name in ("fit_single_rotation", "train", "train_s2"):
            steps = frame.f_locals.get("it", steps)
        tb = tb.tb_next
    return steps


def _passes(seconds: float):
    """Yield once per pass: at least once, then while the longest pass so
    far still fits before ``seconds`` have passed."""
    start = time.perf_counter()
    longest = 0.0
    while True:
        t0 = time.perf_counter()
        yield
        longest = max(longest, time.perf_counter() - t0)
        if time.perf_counter() - start + longest > seconds:
            return


def _timed(fn, *args):
    t0 = time.perf_counter()
    out = fn(*args)
    return out, time.perf_counter() - t0


def _median(values) -> float:
    values = [v for v in values if not math.isnan(v)]
    return statistics.median(values) if values else math.nan


def raw_figures(run: Run, passes: list, setup_s: float, rss_mb: float) -> dict:
    """Every end-to-end figure that applies to this workload, by name and unit."""
    table = {}
    rate = _median(p["iters_per_s"] for p in passes)
    fits = [o for c, o in run.first_outcomes.items() if c.startswith("fit ")]
    trains = [o for c, o in run.first_outcomes.items() if not c.startswith("fit ")]
    if trains:
        table["train_iters_per_s"] = {"value": rate, "unit": "iter/s"}
        finals = [o["final_median_deg"] for o in trains if "final_median_deg" in o]
        table["final_median_deg"] = {"value": statistics.fmean(finals) if finals else math.nan,
                                     "unit": "deg"}
    if fits:
        from workloads import FIT_TOL_RAD

        table["fit_steps_per_s"] = {"value": rate, "unit": "step/s"}
        converged = sum(1 for o in fits if o.get("final_rad", math.inf) <= FIT_TOL_RAD)
        table["fit_converged_frac"] = {"value": converged / len(fits), "unit": "ratio"}
    if run.checks_seconds:
        table["check_s"] = {"value": _median(run.checks_seconds), "unit": "s"}
    table["setup_s"] = {"value": setup_s, "unit": "s"}
    table["failed_frac"] = {"value": run.failed / max(run.attempted, 1), "unit": "ratio"}
    table["peak_rss_mb"] = {"value": rss_mb, "unit": "MB"}
    return table


def known_defects(run: Run) -> dict:
    """Outcomes of the cells that show defects recorded in the notes."""
    out = {}
    for label, o in run.first_outcomes.items():
        if "raised" in o:
            out[label] = f"raised {o['raised']}"
        elif o.get("aborted"):
            out[label] = f"aborted: {o['diagnostic']}"
        elif o.get("final_rad", 0.0) > math.pi - 1e-3:
            out[label] = f"final error {o['final_rad']:.6f} rad (pi)"
        elif label.endswith((" flow", " chamfer")):
            out[label] = f"final holdout median {o['final_median_deg']:.1f} deg"
    if run.workload == "train-loss-generic":
        from rotgrad import RepKind, tau_probe
        from rotgrad.harness import DEFAULT_TAU_BY_LOSS

        for rep, loss in ((RepKind.SIX_D, "flow"), (RepKind.NINE_D, "chamfer")):
            tau = DEFAULT_TAU_BY_LOSS[loss]
            (_, step), = tau_probe(rep, loss, [tau], seed=run.seed)
            out[f"tau_probe {rep.value} {loss} tau={tau:g}"] = \
                f"mean goal step {math.degrees(step):.1f} deg"
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    for var in THREAD_VARS:
        os.environ[var] = "1"
    src = Path.cwd() / "src"
    if not (src / "rotgrad" / "__init__.py").is_file():
        print(f"no rotgrad sources under {src}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(src), str(BENCH_DIR)]
    import rotgrad
    import workloads

    if Path(rotgrad.__file__).resolve().parent != (src / "rotgrad").resolve():
        print(f"imported rotgrad from {rotgrad.__file__}, not from {src}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; expected one of "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    machine = machine_block()
    run = Run(args.workload, args.seed, workloads.cells_for(args.workload, args.seed),
              with_checks=args.workload == "fit-and-check")
    run.gate_errors += workloads.probe_gate(args.seed)

    if args.trace:
        metrics, detail = traced(run, args.seconds)
    else:
        metrics, detail = untraced(run, args.seconds, src)

    correct = not run.gate_errors
    detail.update({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "machine": machine, "gate_errors": run.gate_errors,
        "cells": {label: {"ms_per_iter": 1e3 * _median(secs),
                          "ms_per_iter_by_pass": [1e3 * v for v in secs],
                          **run.first_outcomes.get(label, {})}
                  for label, secs in run.cell_seconds.items()},
        "checks": {r.name: r.passed for r in run.check_results},
        "known_defects": known_defects(run),
    })
    print(json.dumps(detail, default=str))
    print(json.dumps({"correct": correct, "attempted": run.attempted, "failed": run.failed,
                      "metrics": metrics}))
    return 0 if correct else 1


def untraced(run: Run, seconds: float, src: Path):
    setup_s, setup_raw_s = measure_setup_s(src, run.workload, run.seed)
    passes = []
    for _ in _passes(seconds):
        passes.append(run.run_pass())
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "iters_per_ref": {"value": _median(p["iters_per_ref"] for p in passes), "unit": "iter/ref"},
        "pass_ref": {"value": _median(p["pass_ref"] for p in passes), "unit": "ref"},
        "setup_s": {"value": setup_s, "unit": "s"},
        "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
    }
    detail = {"passes": len(passes),
              "pass_s": _median(p["pass_s"] for p in passes),
              "setup_raw_s": setup_raw_s,
              "reference_step_ms": 1e3 * _median(run.ref_seconds),
              "end_to_end": raw_figures(run, passes, setup_s, rss_mb)}
    return metrics, detail


def traced(run: Run, seconds: float):
    """Alternate untraced and traced passes; the untraced ones give the
    overhead baseline and skip the check suite."""
    from tracing import UNITS, Tracer

    first = run.cells[0]
    if first.kind == "fit":
        eval_rows = calibrate_rows = -1
    else:  # the harness's 80/20 train/holdout split
        n = first.config.n_rotations
        eval_rows, calibrate_rows = n - int(0.8 * n), int(0.8 * n)
    tracer = Tracer(eval_rows, calibrate_rows)
    plain, traced_passes = [], []
    cells_snapshot = None
    for _ in _passes(seconds):
        plain.append(run.run_pass(checks=False))
        tracer.install()
        try:
            traced_passes.append(run.run_pass(root=tracer.root, checks=False))
            if cells_snapshot is None:
                # counts per step are taken over the cells alone; the check
                # suite runs once, traced, after the first traced pass
                cells_snapshot = tracer.metrics()
                if run.with_checks:
                    run.run_checks(tracer.root)
        finally:
            tracer.uninstall()
    metrics = {name: {"value": value, "unit": UNITS[name.rsplit(".", 1)[1]]}
               for name, value in tracer.metrics().items()}
    steps = traced_passes[0]["steps"]
    grad_rows = (cells_snapshot["rpmg.rpmg_gradient_batch.rows"]
                 + cells_snapshot["rpmg.rpmg_gradient.calls"])
    extra = {
        "representations.rotations_from_raw.rows_per_grad_row":
            (cells_snapshot["representations.rotations_from_raw.rows"] / grad_rows
             if grad_rows else 0.0, "ratio"),
        "rpmg.rpmg_gradient.calls_per_step":
            (cells_snapshot["rpmg.rpmg_gradient.calls"] / steps if steps else 0.0, "ratio"),
        "trace.overhead_frac":
            (_median(p["iters_per_ref"] for p in plain)
             / _median(p["iters_per_ref"] for p in traced_passes) - 1.0, "ratio"),
        "trace.coverage_frac":
            (tracer.self_s_total() / tracer.root_s if tracer.root_s else 0.0, "ratio"),
    }
    metrics.update({name: {"value": value, "unit": unit} for name, (value, unit) in extra.items()})
    detail = {"passes": {"untraced": len(plain), "traced": len(traced_passes)},
              "absent_layers": tracer.absent, "call_tree": tracer.call_tree()}
    return metrics, detail


if __name__ == "__main__":
    sys.exit(main())
