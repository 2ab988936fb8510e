"""Smoke test of the benchmark itself, with tiny iteration counts.

Runs from the repository root with ``python -m pytest perfbench``.  Checks
that every workload's cells run and pass the row gate, that the probe gate
passes, that the tracer restores what it wraps and reports a missing layer
as absent, and that the result line carries exactly the metrics named in
BENCHMARK.json.  No timing is asserted.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(REPO / "src"), str(REPO / "perfbench")]

import rotgrad  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((REPO / "BENCHMARK.json").read_text())
TINY = 3


@pytest.fixture
def blas_env(monkeypatch):
    """run.main sets the BLAS thread variables; restore them afterwards."""
    for var in run.THREAD_VARS:
        monkeypatch.setenv(var, "1")


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_cells_run_and_pass_row_gate(workload):
    cells = workloads.cells_for(workload, seed=0, iters=TINY)
    bench = run.Run(workload, 0, cells, with_checks=False)
    result = bench.run_pass()
    assert bench.gate_errors == []
    assert bench.attempted == len(cells)
    assert result["steps"] > 0 and result["pass_s"] > 0


def test_probe_gate_passes():
    assert workloads.probe_gate(0) == []


def test_tracer_restores_bindings_and_counts_layers():
    originals = {(m, a): getattr(__import__(m, fromlist=[a]), a)
                 for bindings, _ in tracing.BOUNDARIES.values() for m, a in bindings}
    cells = workloads.cells_for("train-vanilla", seed=0, iters=TINY)
    bench = run.Run("train-vanilla", 0, cells, with_checks=False)
    tracer = tracing.Tracer(eval_rows=410, calibrate_rows=1638)
    tracer.install()
    try:
        bench.run_pass(root=tracer.root)
    finally:
        tracer.uninstall()
    for (m, a), fn in originals.items():
        assert getattr(__import__(m, fromlist=[a]), a) is fn
    metrics = tracer.metrics()
    assert tracer.absent == []
    assert metrics["nn.backward.calls"] == TINY * len(cells)
    assert metrics["representations.vanilla_backward_batch.calls"] == TINY * len(cells)
    assert metrics["harness.eval.calls"] > 0 and metrics["harness.calibrate.calls"] == len(cells)
    assert 0.0 < tracer.self_s_total() <= tracer.root_s


def test_missing_layer_is_reported_absent(monkeypatch):
    monkeypatch.delattr(rotgrad.lin_core, "solve_columns")
    tracer = tracing.Tracer(eval_rows=410, calibrate_rows=1638)
    tracer.install()
    tracer.uninstall()
    assert tracer.absent == ["lin_core.solve_columns"]
    assert tracer.metrics()["lin_core.solve_columns.calls"] == 0


@pytest.mark.parametrize("trace,spec_key", [(0, "end_to_end"), (1, "per_layer")])
def test_result_line_has_exactly_the_declared_metrics(trace, spec_key, monkeypatch, capsys, blas_env):
    monkeypatch.setitem(workloads.TRAIN_ITERS, "train-l2", TINY)
    monkeypatch.chdir(REPO)
    code = run.main(["--workload", "train-l2", "--seed", "0", "--seconds", "0",
                     "--trace", str(trace)])
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert sorted(result["metrics"]) == sorted(m["name"] for m in SPEC[spec_key])
    for m in SPEC[spec_key]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    detail = json.loads(lines[-2])
    assert detail["machine"]["blas_threads_env"]["OPENBLAS_NUM_THREADS"] == "1"


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copytree(REPO / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(REPO / "BENCHMARK.json", tmp_path)
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "train-l2",
                          "--seed", "0", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert out.stdout == ""
