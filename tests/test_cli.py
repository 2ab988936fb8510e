"""CLI surface: exit codes, report files, schema validity, determinism."""

import csv
import hashlib
import importlib.resources
import json
import math
from pathlib import Path

import jsonschema
import numpy as np
import pytest

import rotgrad.cli as cli
import rotgrad.rpmg as rpmg
from rotgrad.harness import ExperimentConfig, FitResult, LrSchedule
from rotgrad.representations import RepKind
from rotgrad.riemannian import CutLocusError
from rotgrad.rpmg import Method


def _schema():
    text = importlib.resources.files("rotgrad").joinpath("report.schema.json").read_text()
    return json.loads(text)


def _load_report(path: Path) -> dict:
    doc = json.loads(path.read_text())
    jsonschema.validate(doc, _schema())
    return doc


def _one_dir(root: Path, pattern: str) -> Path:
    matches = list(root.glob(pattern))
    assert len(matches) == 1, matches
    return matches[0]


def test_fit_acceptance_example(tmp_path, capsys):
    code = cli.main(["fit", "--rep", "9d", "--method", "rpmg", "--loss", "l2",
                     "--seed", "0", "--out-dir", str(tmp_path)])
    assert code == 0
    run_dir = _one_dir(tmp_path, "fit-*")
    doc = _load_report(run_dir / "report.json")
    assert doc["kind"] == "fit"
    assert doc["summary"]["final_error_rad"] < 1e-4
    assert not doc["summary"]["aborted"]
    assert str(run_dir / "trace.csv") in doc["manifest"]["outputs"]
    out = capsys.readouterr().out
    assert "final error" in out


def test_fit_unknown_rep_exits_2(tmp_path, capsys):
    code = cli.main(["fit", "--rep", "bogus", "--out-dir", str(tmp_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert "bogus" in err and "9d" in err  # usage error lists valid values


@pytest.mark.parametrize("argv", [
    ["fit", "--method", "newton"],
    ["fit", "--loss", "hinge"],
    ["train", "--method", "newton", "--iters", "1"],
    ["train", "--sphere", "--method", "vanilla", "--iters", "1"],
    ["train", "--tau", "0.2", "--tau-init", "0.1", "--tau-converge", "0.25", "--iters", "1"],
    ["train", "--tau-init", "0.1", "--iters", "1"],
    ["train", "--methods", ",", "--iters", "1"],
    ["check", "--filter", "definitely-not-a-check"],
    ["fit", "--no-such-flag"],
])
def test_config_errors_exit_2(argv, tmp_path, capsys):
    code = cli.main(argv + (["--out-dir", str(tmp_path)] if argv[0] != "check" else []))
    assert code == 2
    capsys.readouterr()


@pytest.mark.parametrize("argv, message", [
    (["fit", "--iters", "-1"], "iters must be an integer >= 0"),
    (["fit", "--lr", "-1"], "lr must be a finite positive real"),
    (["train", "--sphere", "--loss", "chamfer", "--iters", "1"], "only the l2 loss"),
    (["train", "--rep", "euler", "--method", "rpmg"], "supports only the vanilla method"),
    (["fit", "--loss", "hinge"], "unknown loss"),
    (["train", "--rep", "quat", "--tau-init", "-0.5", "--tau-converge", "-0.25", "--iters", "20"],
     "tau_init must be a finite positive real"),
    (["train", "--tau-init", "0.1", "--tau-converge", "inf", "--iters", "1"],
     "tau_converge must be a finite positive real"),
    (["fit", "--lr", "inf"], "lr must be a finite positive real"),
    (["fit", "--seeds", "0-3,2", "--iters", "1"], "--seeds repeats 2"),
    (["train", "--seeds", "1,1", "--iters", "1"], "--seeds repeats 1"),
    (["train", "--methods", "rpmg,vanilla,rpmg", "--iters", "1"], "--methods repeats rpmg"),
    (["train", "--sphere", "--methods", "pmg,pmg", "--iters", "1"], "--methods repeats pmg"),
])
def test_invalid_values_exit_2_without_a_run_directory(argv, message, tmp_path, capsys):
    assert cli.main(argv + ["--out-dir", str(tmp_path)]) == 2
    assert message in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_fit_iters_zero_initial_state(tmp_path):
    code = cli.main(["fit", "--rep", "quat", "--iters", "0",
                     "--out-dir", str(tmp_path)])
    assert code == 0
    run_dir = _one_dir(tmp_path, "fit-*")
    doc = _load_report(run_dir / "report.json")
    assert doc["summary"]["iters_run"] == 0
    with open(run_dir / "trace.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == list(cli.CSV_HEADER)
    assert len(rows) == 2  # header + the initial state


def test_train_iters_zero_initial_state(tmp_path):
    code = cli.main(["train", "--rep", "quat", "--iters", "0",
                     "--out-dir", str(tmp_path)])
    assert code == 0
    doc = _load_report(_one_dir(tmp_path, "train-*") / "report.json")
    assert doc["summary"]["rows_evaluated"] == 1
    assert doc["summary"]["initial"] == doc["summary"]["final"]


def test_train_reports_validate_and_repeat_identically(tmp_path):
    args = ["train", "--rep", "quat", "--method", "rpmg", "--iters", "60",
            "--seed", "3"]
    assert cli.main(args + ["--out-dir", str(tmp_path / "a")]) == 0
    assert cli.main(args + ["--out-dir", str(tmp_path / "b")]) == 0
    dir_a = _one_dir(tmp_path / "a", "train-*")
    dir_b = _one_dir(tmp_path / "b", "train-*")
    doc_a = _load_report(dir_a / "report.json")
    doc_b = _load_report(dir_b / "report.json")
    assert doc_a["summary"] == doc_b["summary"]
    assert doc_a["manifest"]["config_hash"] == doc_b["manifest"]["config_hash"]
    assert (dir_a / "trace.csv").read_bytes() == (dir_b / "trace.csv").read_bytes()
    assert dir_a.name == dir_b.name  # content-addressed run directory


def test_train_csv_header_and_row_count(tmp_path):
    assert cli.main(["train", "--rep", "6d", "--iters", "100",
                     "--out-dir", str(tmp_path)]) == 0
    with open(_one_dir(tmp_path, "train-*") / "trace.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["iteration", "mean_deg", "median_deg", "acc5", "acc3", "mean_norm"]
    assert [r[0] for r in rows[1:]] == ["0", "100"]
    for row in rows[1:]:
        assert len(row) == 6
        float(row[1]), float(row[5])


def test_sweep_emits_report_per_cell_and_trend(tmp_path, capsys):
    code = cli.main(["train", "--rep", "quat", "--methods", "vanilla,mg",
                     "--seeds", "0,1", "--iters", "40", "--jobs", "2",
                     "--out-dir", str(tmp_path)])
    assert code == 0
    sweep_dir = _one_dir(tmp_path, "sweep-*")
    reports = sorted(p.name for p in sweep_dir.glob("report-*.json"))
    assert reports == ["report-mg-seed0.json", "report-mg-seed1.json",
                       "report-vanilla-seed0.json", "report-vanilla-seed1.json"]
    for name in reports:
        _load_report(sweep_dir / name)
    with open(sweep_dir / "trend.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["method", "seed", "final_median_deg"]
    assert [(r[0], r[1]) for r in rows[1:]] == [
        ("vanilla", "0"), ("vanilla", "1"), ("mg", "0"), ("mg", "1")]
    for row in rows[1:]:
        assert float(row[2]) >= 0.0
    capsys.readouterr()


def test_sphere_train_report_kind(tmp_path):
    code = cli.main(["train", "--sphere", "--method", "pmg", "--iters", "50",
                     "--out-dir", str(tmp_path)])
    assert code == 0
    doc = _load_report(_one_dir(tmp_path, "train-s2-*") / "report.json")
    assert doc["kind"] == "train-s2"
    assert doc["manifest"]["config"]["sphere"] is True
    assert doc["summary"]["method"] == "pmg"


def test_out_dir_env_default(tmp_path, monkeypatch):
    monkeypatch.setenv("ROTGRAD_OUT_DIR", str(tmp_path / "envroot"))
    assert cli.main(["train", "--rep", "quat", "--iters", "0"]) == 0
    assert list((tmp_path / "envroot").glob("train-*"))


def test_check_clean_subset_exits_0(capsys):
    code = cli.main(["check", "--filter", "tau-converge"])
    assert code == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 3
    assert "tau-converge-l2" in out and "residual" in out
    assert "3 checks: 3 passed, 0 failed" in out


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_check_prints_finite_seconds(jobs, capsys):
    assert cli.main(["check", "--filter", "tau-converge", "--jobs", jobs]) == 0
    lines = capsys.readouterr().out.splitlines()
    per_check = [float(line.split()[2].rstrip("s")) for line in lines[:3]]
    assert all(math.isfinite(t) and t >= 0.0 for t in per_check)
    total = float(lines[3].rsplit(", ", 1)[1].split("s in checks")[0])
    assert math.isfinite(total) and total == pytest.approx(sum(per_check), abs=0.03)


def test_check_injected_sign_bug_named_failure(monkeypatch, capsys):
    orig = rpmg.inverse_project
    monkeypatch.setattr(rpmg, "inverse_project",
                        lambda rep, x, r_g: -orig(rep, x, r_g))
    code = cli.main(["check", "--filter", "projection-optimality-quat"])
    assert code == 1
    captured = capsys.readouterr()
    assert "FAIL  projection-optimality-quat" in captured.out
    assert "projection-optimality-quat" in captured.err


def test_check_raised_exception_exits_3(monkeypatch, capsys):
    def broken(rep, x, r_g):
        raise FloatingPointError("synthetic")

    monkeypatch.setattr(rpmg, "inverse_project", broken)
    code = cli.main(["check", "--filter", "projection-optimality-quat"])
    assert code == 3
    assert "numeric failure" in capsys.readouterr().err


def test_fit_numeric_failure_exits_3(monkeypatch, tmp_path, capsys):
    aborted = FitResult(rep=RepKind.NINE_D, method=Method.RPMG,
                        errors=[float("nan")], norms=[float("nan")],
                        r_gt=None, x_final=None, aborted=True,
                        diagnostic="synthetic degenerate start")
    monkeypatch.setattr(cli, "fit_single_rotation",
                        lambda *a, **k: aborted)
    code = cli.main(["fit", "--out-dir", str(tmp_path)])
    assert code == 3
    assert "synthetic degenerate start" in capsys.readouterr().err
    # the report is still written, with null for the non-finite error
    doc = _load_report(_one_dir(tmp_path, "fit-*") / "report.json")
    assert doc["summary"]["aborted"] is True
    assert doc["summary"]["final_error_rad"] is None


def test_fit_at_cut_locus_exits_3(monkeypatch, tmp_path, capsys):
    # start the fit a half turn from its target, on the cut locus
    fit = cli.fit_single_rotation

    def from_half_turn(*args, **kwargs):
        return fit(*args, **kwargs, x_init=np.eye(3).ravel(), r_gt=np.diag([1.0, -1.0, -1.0]))

    monkeypatch.setattr(cli, "fit_single_rotation", from_half_turn)
    code = cli.main(["fit", "--rep", "9d", "--method", "pmg", "--loss", "geodesic",
                     "--out-dir", str(tmp_path)])
    assert code == 3
    assert "cut locus at step" in capsys.readouterr().err
    doc = _load_report(_one_dir(tmp_path, "fit-*") / "report.json")
    assert doc["summary"]["aborted"] is True
    assert doc["summary"]["diagnostic"].startswith("cut locus at step")


def test_escaping_cut_locus_error_exits_3(monkeypatch, tmp_path, capsys):
    def raise_cut_locus(*args, **kwargs):
        raise CutLocusError("squared-geodesic gradient is undefined at the cut locus")

    monkeypatch.setattr(cli, "fit_single_rotation", raise_cut_locus)
    assert cli.main(["fit", "--loss", "geodesic", "--out-dir", str(tmp_path)]) == 3
    assert "numeric failure" in capsys.readouterr().err


def test_config_hash_is_canonical():
    echo = {"b": 2, "a": 1.5}
    expected = hashlib.sha256(b'{"a":1.5,"b":2}').hexdigest()
    assert cli.config_hash(echo) == expected
    assert cli.config_hash({"a": 1.5, "b": 2}) == expected


def test_version_flag_exits_0(capsys):
    assert cli.main(["--version"]) == 0
    capsys.readouterr()


def test_flow_train_without_tau_runs_at_the_preset(tmp_path):
    args = ["train", "--loss", "flow", "--iters", "20"]
    assert cli.main(args + ["--out-dir", str(tmp_path / "auto")]) == 0
    assert cli.main(args + ["--tau", "50", "--out-dir", str(tmp_path / "preset")]) == 0
    auto = _one_dir(tmp_path / "auto", "train-*")
    preset = _one_dir(tmp_path / "preset", "train-*")
    assert _load_report(auto / "report.json")["manifest"]["config"]["tau"] == "auto"
    assert (auto / "trace.csv").read_bytes() == (preset / "trace.csv").read_bytes()


def test_tau_schedule_flags_accepted(tmp_path):
    code = cli.main(["train", "--rep", "quat", "--tau-init", "0.05",
                     "--tau-converge", "0.25", "--iters", "40",
                     "--out-dir", str(tmp_path)])
    assert code == 0
    doc = _load_report(_one_dir(tmp_path, "train-*") / "report.json")
    tau = doc["manifest"]["config"]["tau"]
    assert tau == {"tau_init": 0.05, "tau_converge": 0.25,
                   "total_iters": 40, "n_steps": 10}


def test_cell_echo_carries_lr_schedule():
    default = cli._cell_echo(ExperimentConfig(), sphere=False)
    assert default["lr"] == 1e-3
    stepped = cli._cell_echo(
        ExperimentConfig(lr=LrSchedule(base=1e-3, milestones=(30, 40))), sphere=False)
    assert stepped["lr"] == {"base": 1e-3, "milestones": [30, 40]}
    assert cli.config_hash(stepped) != cli.config_hash(default)


def test_seeds_take_lists_and_inclusive_ranges():
    assert cli._parse_seeds("0-2, 5,7-7,") == [0, 1, 2, 5, 7]
    assert cli._parse_seeds("4") == [4]
    for bad in ("x", "3-1", "1-", "-3", ",", "1.5"):
        with pytest.raises(cli.CliConfigError):
            cli._parse_seeds(bad)


def test_single_seed_fit_keeps_its_run_directory(tmp_path, capsys):
    # the directory name of this config before --seeds existed
    for flag in ("--seed", "--seeds"):
        out = tmp_path / flag.strip("-")
        assert cli.main(["fit", "--rep", "quat", "--iters", "5", flag, "3", "--out-dir", str(out)]) == 0
        assert (out / "fit-f066a379" / "report.json").exists()
        assert capsys.readouterr().out.startswith("fit quat rpmg l2 seed 3: final error 4.848e-01 rad")


def test_fit_seed_sweep_counts_aborted_and_stalled(monkeypatch, tmp_path, capsys):
    fit = cli.fit_single_rotation

    def aborting_odd_seeds(rep, method, **kwargs):
        if kwargs["seed"] % 2:
            return FitResult(rep=rep, method=method, errors=np.array([0.5, 0.4]),
                             norms=np.ones(2), r_gt=None, x_final=None, aborted=True,
                             diagnostic="synthetic abort at step 1")
        return fit(rep, method, **kwargs)

    monkeypatch.setattr(cli, "fit_single_rotation", aborting_odd_seeds)
    code = cli.main(["fit", "--rep", "quat", "--method", "pmg", "--seeds", "0-3,6",
                     "--iters", "40", "--out-dir", str(tmp_path)])
    assert code == 3  # a sweep with an aborted fit is a numeric failure
    out = capsys.readouterr()
    assert "2 of 5 fits aborted" in out.err
    assert out.out.splitlines()[0] == (
        "fit quat pmg l2 seeds 0-3,6: 5 fits, 2 aborted, 3 stalled (final error above 0.0001 rad)")
    run_dir = _one_dir(tmp_path, "fit-sweep-*")
    with open(run_dir / "fits.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert tuple(rows[0]) == cli.FITS_CSV_HEADER
    assert [int(r[0]) for r in rows[1:]] == [0, 1, 2, 3, 6]
    assert [(r[3], r[4]) for r in rows[1:]] == [("0", "1"), ("1", "0"), ("0", "1"), ("1", "0"), ("0", "1")]
    assert rows[2][5] == "synthetic abort at step 1"
    doc = _load_report(run_dir / "report.json")
    assert doc["manifest"]["config"]["seeds"] == [0, 1, 2, 3, 6]
    assert doc["summary"]["aborted"] is True


def test_fit_seed_sweep_rejects_bad_values_without_a_run_directory(tmp_path, capsys):
    code = cli.main(["fit", "--seeds", "0-2", "--iters", "-1", "--out-dir", str(tmp_path)])
    assert code == 2 and "iters must be an integer >= 0" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_fit_seed_sweep_over_jobs_matches_serial(tmp_path):
    argv = ["fit", "--rep", "6d", "--method", "rpmg", "--seeds", "0-3", "--iters", "30"]
    tables = []
    for jobs in ("1", "2"):
        out = tmp_path / jobs
        assert cli.main(argv + ["--jobs", jobs, "--out-dir", str(out)]) == 0
        tables.append((_one_dir(out, "fit-sweep-*") / "fits.csv").read_text())
    assert tables[0] == tables[1] and len(tables[0].splitlines()) == 5
