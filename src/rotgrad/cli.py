"""Command-line front end: experiments, sweeps, and the verification suite.

Three subcommands.  ``fit`` descends from a single raw output to a single
target rotation, ``train`` runs the synthetic point-cloud regression task
(optionally as a method and seed sweep), ``check`` runs the named
verification checks.  One driver runs ``fit`` for one seed or many: one
seed writes its error trace, several write one CSV row per fit and count
the aborted and stalled fits.  ``fit`` and ``train`` run their cells
through ``_map_cells``.  Every run writes a JSON report that validates
against the schema shipped next to this module plus a CSV with a fixed
header.

Exit codes: 0 success, 1 failed check, 2 configuration error, 3 numeric
failure.  All randomness descends from ``--seed``.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import sys
from collections import Counter
from datetime import datetime, timezone
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from . import __version__
from .harness import (
    ExperimentConfig,
    FitResult,
    LrSchedule,
    MetricsReport,
    MetricsRow,
    S2_METHOD_BY_NAME,
    S2Method,
    fit_single_rotation,
    single_thread_pool,
    train,
    train_s2,
)
from .representations import DegenerateInputError, RepKind
from .riemannian import LOSS_NAMES, CutLocusError, TauSchedule
from .rpmg import METHOD_BY_NAME

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG_ERROR = 2
EXIT_NUMERIC_FAILURE = 3

CSV_HEADER = ("iteration", "mean_deg", "median_deg", "acc5", "acc3", "mean_norm")
FITS_CSV_HEADER = ("seed", "final_error_rad", "iters_run", "aborted", "stalled", "diagnostic")

# a fit that runs to the end above this final error (radians) has stalled:
# acceptance criterion 5's tolerance
FIT_TOLERANCE_RAD = 1e-4


class CliConfigError(Exception):
    """Unusable flag combination or unknown name; maps to exit code 2."""


def config_hash(config: Dict[str, object]) -> str:
    """sha256 of the canonical JSON encoding; stable across platforms."""
    canon = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


def _utc_now() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


def _json_num(value) -> Optional[float]:
    value = float(value)
    return value if math.isfinite(value) else None


def _tau_echo(tau) -> object:
    if isinstance(tau, TauSchedule):
        return {"tau_init": tau.tau_init, "tau_converge": tau.tau_converge,
                "total_iters": tau.total_iters, "n_steps": tau.n_steps}
    return tau


def _lr_echo(lr) -> object:
    if isinstance(lr, LrSchedule):
        return {"base": lr.base, "milestones": list(lr.milestones)}
    return lr


def _row_dict(row: MetricsRow) -> Dict[str, object]:
    return {
        "iteration": int(row.iteration),
        "mean_deg": _json_num(row.mean_deg),
        "median_deg": _json_num(row.median_deg),
        "acc5": _json_num(row.acc5),
        "acc3": _json_num(row.acc3),
        "mean_norm": _json_num(row.mean_norm),
    }


def _write_trace(path: Path, rows: Sequence[MetricsRow]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER)
        for row in rows:
            writer.writerow([int(row.iteration), repr(float(row.mean_deg)),
                             repr(float(row.median_deg)), repr(float(row.acc5)),
                             repr(float(row.acc3)), repr(float(row.mean_norm))])


def _write_report(path: Path, kind: str, echo: Dict[str, object], started: str,
                  data_path: Path, summary: Dict[str, object]) -> None:
    """Write the JSON report of a run whose other output is ``data_path``,
    finished now."""
    doc = {
        "schema_version": "1",
        "kind": kind,
        "manifest": {
            "config": echo,
            "config_hash": config_hash(echo),
            "started_at": started,
            "finished_at": _utc_now(),
            "tool_version": __version__,
            "outputs": [str(path), str(data_path)],
        },
        "summary": summary,
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


def _out_root(out_dir: Optional[str]) -> Path:
    root = out_dir or os.environ.get("ROTGRAD_OUT_DIR") or "runs"
    return Path(root)


def _parse_method(name: str, sphere: bool):
    table = S2_METHOD_BY_NAME if sphere else METHOD_BY_NAME
    if name not in table:
        kind = "sphere method" if sphere else "method"
        raise CliConfigError(
            f"unknown {kind} {name!r}; valid values: {', '.join(table)}")
    return table[name]


def _parse_rep(name: str) -> RepKind:
    try:
        return RepKind(name)
    except ValueError:
        valid = ", ".join(r.value for r in RepKind)
        raise CliConfigError(f"unknown rep {name!r}; valid values: {valid}") from None


def _parse_seeds(text: str) -> List[int]:
    """Seeds from comma-separated integers and inclusive ranges ``A-B``."""
    seeds: List[int] = []
    for item in (part.strip() for part in text.split(",")):
        if not item:
            continue
        first, dash, last = item.partition("-")
        try:
            lo = int(first)
            hi = int(last) if dash else lo
        except ValueError:
            raise CliConfigError(f"bad seed {item!r}; expected an integer or a range A-B") from None
        if hi < lo:
            raise CliConfigError(f"empty seed range {item!r}")
        seeds.extend(range(lo, hi + 1))
    if not seeds:
        raise CliConfigError("--seeds needs at least one seed")
    _check_unique("--seeds", seeds)
    return seeds


def _check_unique(flag: str, values: Sequence) -> None:
    """A repeated value would run its cell twice and write its outputs twice."""
    repeated = [value for value, count in Counter(values).items() if count > 1]
    if repeated:
        raise CliConfigError(f"{flag} repeats {repeated[0]}")


def _tau_spec(tau: Optional[float], tau_init: Optional[float],
              tau_converge: Optional[float], iters: int):
    if tau is not None:
        if tau_init is not None or tau_converge is not None:
            raise CliConfigError("--tau conflicts with --tau-init/--tau-converge")
        return float(tau)
    if (tau_init is None) != (tau_converge is None):
        raise CliConfigError("--tau-init and --tau-converge must be given together")
    if tau_init is not None:
        return TauSchedule(tau_init, tau_converge, total_iters=iters)
    return "auto"


def _map_cells(fn: Callable, payloads: list, jobs: int) -> list:
    """``fn`` of every payload, in order; over ``jobs`` spawn workers with
    one BLAS thread each when there is more than one of both."""
    if jobs > 1 and len(payloads) > 1:
        with single_thread_pool(min(jobs, len(payloads))) as pool:
            return pool.map(fn, payloads)
    return [fn(p) for p in payloads]


# ---------------------------------------------------------------------------
# fit

def _run_fit(payload: Tuple) -> FitResult:
    rep, method, loss, tau, lam, seed, iters, lr = payload
    return fit_single_rotation(rep, method, loss=loss, tau=tau, lam=lam,
                               seed=seed, iters=iters, lr=lr)


def cmd_fit(args: argparse.Namespace) -> int:
    """One fit per seed.  One seed writes its error trace and summary;
    several write one CSV row per fit and a count of the aborted and
    stalled fits."""
    rep = _parse_rep(args.rep)
    method = _parse_method(args.method, sphere=False)
    tau = args.tau if args.tau is not None else "auto"
    seeds = _parse_seeds(args.seeds) if args.seeds else [args.seed]
    sweep = len(seeds) > 1
    echo = {"rep": rep.value, "method": method.value, "loss": args.loss,
            "lambda": args.lam, "tau": _tau_echo(tau), "iters": args.iters, "lr": args.lr,
            **({"seeds": seeds} if sweep else {"seed": seeds[0]})}
    started = _utc_now()
    results = _map_cells(_run_fit, [(rep, method, args.loss, tau, args.lam, seed, args.iters, args.lr)
                                    for seed in seeds], args.jobs)

    # made after the fits, so that a config the fits reject leaves no directory
    run_dir = _out_root(args.out_dir) / f"fit-{'sweep-' if sweep else ''}{config_hash(echo)[:8]}"
    run_dir.mkdir(parents=True, exist_ok=True)
    report_path = run_dir / "report.json"
    summary = {"rep": rep.value, "method": method.value, "loss": args.loss}
    label = f"fit {rep.value} {method.value} {args.loss}"
    if sweep:
        data_path = run_dir / "fits.csv"
        aborted = stalled = 0
        with open(data_path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(FITS_CSV_HEADER)
            for seed, result in zip(seeds, results):
                # NaN (an abort at step 0) compares False: only finished fits stall
                is_stalled = not result.aborted and not result.final_error <= FIT_TOLERANCE_RAD
                aborted += result.aborted
                stalled += is_stalled
                writer.writerow([seed, repr(result.final_error), len(result.errors) - 1,
                                 int(result.aborted), int(is_stalled), result.diagnostic])
        counts = (f"{len(seeds)} fits, {aborted} aborted, {stalled} stalled "
                  f"(final error above {FIT_TOLERANCE_RAD:g} rad)")
        summary.update(aborted=aborted > 0, diagnostic=counts)
        print(f"{label} seeds {args.seeds}: {counts}")
        print(f"fits: {data_path}")
        failed = aborted > 0
        failure = f"{aborted} of {len(seeds)} fits aborted"
    else:
        result, = results
        data_path = run_dir / "trace.csv"
        degrees = [math.degrees(err) for err in result.errors]
        _write_trace(data_path, [MetricsRow(i, deg, deg, float(deg <= 5.0), float(deg <= 3.0), norm)
                                 for i, (deg, norm) in enumerate(zip(degrees, result.norms))])
        summary.update(final_error_rad=_json_num(result.final_error),
                       iters_run=len(result.errors) - 1,
                       aborted=result.aborted, diagnostic=result.diagnostic)
        print(f"{label} seed {seeds[0]}: final error {result.final_error:.3e} rad "
              f"({len(result.errors) - 1} iters)")
        failed = result.aborted or not math.isfinite(result.final_error)
        failure = result.diagnostic
    _write_report(report_path, "fit", echo, started, data_path, summary)
    print(f"report: {report_path}")
    if failed:
        print(f"numeric failure: {failure}", file=sys.stderr)
        return EXIT_NUMERIC_FAILURE
    return EXIT_OK


# ---------------------------------------------------------------------------
# train

def _cell_config(args: argparse.Namespace, method_name: str, seed: int) -> ExperimentConfig:
    method = _parse_method(method_name, args.sphere)
    tau = _tau_spec(args.tau, args.tau_init, args.tau_converge, args.iters)
    return ExperimentConfig(rep=_parse_rep(args.rep), method=method,
                            loss=args.loss, lam=args.lam,
                            tau=tau, seed=seed, iters=args.iters,
                            batch=args.batch)


def _cell_echo(config: ExperimentConfig) -> Dict[str, object]:
    return {"rep": config.rep.value, "method": config.method.value,
            "loss": config.loss, "lambda": config.lam,
            "tau": _tau_echo(config.tau), "seed": config.seed,
            "iters": config.iters, "batch": config.batch,
            "n_points": config.n_points, "n_rotations": config.n_rotations,
            "lr": _lr_echo(config.lr), "eval_every": config.eval_every,
            "hidden": list(config.hidden), "sphere": isinstance(config.method, S2Method)}


def _run_cell(config: ExperimentConfig) -> MetricsReport:
    return train_s2(config) if isinstance(config.method, S2Method) else train(config)


def _train_summary(config: ExperimentConfig, report: MetricsReport) -> Dict[str, object]:
    summary: Dict[str, object] = {
        "rep": config.rep.value, "method": config.method.value,
        "loss": config.loss, "rows_evaluated": len(report.rows),
        "aborted": report.aborted, "diagnostic": report.diagnostic,
    }
    if report.rows:
        summary["initial"] = _row_dict(report.initial)
        summary["final"] = _row_dict(report.final)
    return summary


def cmd_train(args: argparse.Namespace) -> int:
    method_names = ([m.strip() for m in args.methods.split(",") if m.strip()]
                    if args.methods else [args.method])
    if not method_names:
        raise CliConfigError("--methods needs at least one method name")
    _check_unique("--methods", method_names)
    seeds = _parse_seeds(args.seeds) if args.seeds else [args.seed]
    sweep = args.methods is not None or len(seeds) > 1

    cells = [_cell_config(args, m, s) for m in method_names for s in seeds]
    kind = "train-s2" if args.sphere else "train"

    if sweep:
        sweep_echo = {"methods": method_names, "seeds": seeds, **_cell_echo(cells[0])}
        run_dir = _out_root(args.out_dir) / f"sweep-{config_hash(sweep_echo)[:8]}"
    else:
        run_dir = _out_root(args.out_dir) / f"{kind}-{config_hash(_cell_echo(cells[0]))[:8]}"
    run_dir.mkdir(parents=True, exist_ok=True)

    started = _utc_now()
    reports = _map_cells(_run_cell, cells, args.jobs)

    exit_code = EXIT_OK
    trend_rows = []
    for config, report in zip(cells, reports):
        suffix = f"-{config.method.value}-seed{config.seed}" if sweep else ""
        report_path = run_dir / f"report{suffix}.json"
        trace_path = run_dir / f"trace{suffix}.csv"
        _write_trace(trace_path, report.rows)
        _write_report(report_path, kind, _cell_echo(config), started, trace_path,
                      _train_summary(config, report))
        final = report.final if report.rows else None
        median = final.median_deg if final else float("nan")
        trend_rows.append((config.method.value, config.seed, median))
        print(f"{kind} {config.rep.value} {config.method.value} {config.loss} "
              f"seed {config.seed}: median {median:.3f} deg "
              f"({len(report.rows)} eval rows)")
        if report.aborted:
            print(f"numeric failure: {report.diagnostic}", file=sys.stderr)
            exit_code = EXIT_NUMERIC_FAILURE

    if sweep:
        trend_path = run_dir / "trend.csv"
        with open(trend_path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["method", "seed", "final_median_deg"])
            for method_name, seed, median in trend_rows:
                writer.writerow([method_name, seed, repr(float(median))])
        print(f"trend: {trend_path}")
    print(f"reports: {run_dir}")
    return exit_code


# ---------------------------------------------------------------------------
# check

def cmd_check(args: argparse.Namespace) -> int:
    from .checks import run_checks  # loaded here so that fit and train skip it
    results = run_checks(args.name_filter, jobs=args.jobs)
    width = max(len(r.name) for r in results)
    for r in results:
        verdict = "PASS" if r.passed else "FAIL"
        print(f"{verdict}  {r.name:<{width}}  {r.seconds:6.2f}s  {r.detail}")
    failed = [r for r in results if not r.passed]
    print(f"{len(results)} checks: {len(results) - len(failed)} passed, "
          f"{len(failed)} failed, {sum(r.seconds for r in results):.2f}s in checks")
    if any(r.error for r in failed):
        print("numeric failure in: "
              + ", ".join(r.name for r in failed if r.error), file=sys.stderr)
        return EXIT_NUMERIC_FAILURE
    if failed:
        print("failed checks: " + ", ".join(r.name for r in failed),
              file=sys.stderr)
        return EXIT_CHECK_FAILED
    return EXIT_OK


# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rotgrad",
        description="Rotation-regression experiments with projective "
                    "manifold gradient layers.")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    rep_values = [r.value for r in RepKind]

    fit = sub.add_parser("fit", help="descend one raw output onto one target rotation")
    fit.add_argument("--rep", default="9d", help=f"one of: {', '.join(rep_values)}")
    fit.add_argument("--method", default="rpmg",
                     help=f"one of: {', '.join(METHOD_BY_NAME)}")
    fit.add_argument("--loss", default="l2", help=f"one of: {', '.join(LOSS_NAMES)}")
    fit.add_argument("--lambda", dest="lam", type=float, default=0.01)
    fit.add_argument("--tau", type=float, default=None,
                     help="constant step size (default: analytic or preset)")
    fit.add_argument("--seed", type=int, default=0)
    fit.add_argument("--seeds", default=None,
                     help="sweep: comma-separated seeds and inclusive ranges A-B, "
                          "one CSV row per fit (default: --seed)")
    fit.add_argument("--iters", type=int, default=2000)
    fit.add_argument("--lr", type=float, default=1e-2)
    fit.add_argument("--jobs", type=int, default=1,
                     help="parallel workers for the sweep's fits")
    fit.add_argument("--out-dir", default=None,
                     help="output root (default: $ROTGRAD_OUT_DIR or ./runs)")

    tr = sub.add_parser("train", help="train the synthetic regression task")
    tr.add_argument("--rep", default="9d", help=f"one of: {', '.join(rep_values)}")
    tr.add_argument("--method", default="rpmg")
    tr.add_argument("--methods", default=None,
                    help="comma-separated sweep, one report per method")
    tr.add_argument("--loss", default="l2", help=f"one of: {', '.join(LOSS_NAMES)}")
    tr.add_argument("--lambda", dest="lam", type=float, default=0.01)
    tr.add_argument("--tau", type=float, default=None,
                    help="constant step size")
    tr.add_argument("--tau-init", type=float, default=None,
                    help="staircase schedule start (with --tau-converge)")
    tr.add_argument("--tau-converge", type=float, default=None,
                    help="staircase schedule end (with --tau-init)")
    tr.add_argument("--seed", type=int, default=0)
    tr.add_argument("--seeds", default=None,
                    help="comma-separated seeds and inclusive ranges A-B for sweeps "
                         "(default: --seed)")
    tr.add_argument("--iters", type=int, default=5000)
    tr.add_argument("--batch", type=int, default=32)
    tr.add_argument("--sphere", action="store_true",
                    help="unit-vector regression on the 2-sphere")
    tr.add_argument("--jobs", type=int, default=1,
                    help="parallel workers for sweep cells")
    tr.add_argument("--out-dir", default=None)

    ck = sub.add_parser("check", help="run the verification checks")
    ck.add_argument("--filter", dest="name_filter", default="",
                    help="run only checks whose name contains this substring")
    ck.add_argument("--jobs", type=int, default=1)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code if exc.code is not None else 0
        return EXIT_CONFIG_ERROR if code not in (0,) else EXIT_OK
    try:
        if args.command == "fit":
            return cmd_fit(args)
        if args.command == "train":
            return cmd_train(args)
        return cmd_check(args)
    except CliConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    except (DegenerateInputError, CutLocusError, FloatingPointError,
            ZeroDivisionError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC_FAILURE
    except (ValueError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR


if __name__ == "__main__":
    sys.exit(main())
