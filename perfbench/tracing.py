"""Span tracer that wraps the library's public functions from outside.

The library itself is not instrumented.  ``Tracer.install`` replaces each
binding a caller looks up (``rotgrad.harness.rpmg_gradient_batch``,
``rotgrad.representations.rotations_from_raw`` for the finite-difference
calls, ...) with a wrapper that opens a span around the original function,
and ``Tracer.uninstall`` puts the originals back.  Spans are aggregated in
memory per boundary: calls, rows, raised calls and self time, where self
time is a span's duration minus the part covered by its child spans.
"""

from __future__ import annotations

import functools
import importlib
import time
from typing import Callable, Dict, List, Optional, Tuple


def _rows1(*args, **kwargs) -> int:
    """Batch rows of the second argument (the first is a rep or an MLP)."""
    return len(args[1])


def _rows2(*args, **kwargs) -> int:
    return len(args[2])


def _one(*args, **kwargs) -> int:
    return 1


def _n_rotations(*args, **kwargs) -> int:
    return int(args[1] if len(args) > 1 else kwargs["n_rotations"])


# boundary name -> (bindings the callers look up, rows counter).  A binding
# missing in some commit (a module or a name removed) marks the boundary as
# absent instead of failing the run.
BOUNDARIES: Dict[str, Tuple[Tuple[Tuple[str, str], ...], Callable[..., int]]] = {
    "nn.forward": ((("rotgrad.nn", "forward"),), _rows1),
    "nn.backward": ((("rotgrad.nn", "backward"),), _rows2),
    "nn.adam_step": ((("rotgrad.nn", "adam_step"),), _one),
    "representations.rotations_from_raw": (
        (("rotgrad.harness", "rotations_from_raw"),
         ("rotgrad.representations", "rotations_from_raw")), _rows1),
    "representations.vanilla_backward_batch": (
        (("rotgrad.rpmg", "vanilla_backward_batch"),
         ("rotgrad.representations", "vanilla_backward_batch")), _rows1),
    "rpmg.rpmg_gradient_batch": (
        (("rotgrad.harness", "rpmg_gradient_batch"),
         ("rotgrad.rpmg", "rpmg_gradient_batch")), _rows1),
    "rpmg.rpmg_gradient": (
        (("rotgrad.harness", "rpmg_gradient"),
         ("rotgrad.rpmg", "rpmg_gradient")), _one),
    "rpmg.inverse_project": ((("rotgrad.rpmg", "inverse_project"),), _one),
    "riemannian.euclid_grad": (
        (("rotgrad.rpmg", "euclid_grad"),
         ("rotgrad.checks", "euclid_grad"),
         ("rotgrad.riemannian", "euclid_grad")), _one),
    "lin_core.solve_columns": ((("rotgrad.lin_core", "solve_columns"),), _one),
    "harness.make_dataset": ((("rotgrad.harness", "make_dataset"),), _n_rotations),
    "checks.oracle_inverse_image_batch": (
        (("rotgrad.checks", "oracle_inverse_image_batch"),), _rows1),
}

# Spans that nn.forward and rotations_from_raw calls are renamed to when
# their batch is the holdout split (evaluation) or the training split
# (output-head calibration during set-up).
EVAL = "harness.eval"
CALIBRATE = "harness.calibrate"
RENAMED = (EVAL, CALIBRATE)
LAYER_NAMES = tuple(BOUNDARIES) + RENAMED
UNITS = {"calls": "count", "rows": "count", "self_s": "s", "us_per_row": "us", "raised": "count"}


class _Stat:
    __slots__ = ("calls", "rows", "self_s", "raised")

    def __init__(self) -> None:
        self.calls = 0
        self.rows = 0
        self.self_s = 0.0
        self.raised = 0


class Tracer:
    """Aggregates spans opened by the wrappers it installs.

    ``eval_rows`` and ``calibrate_rows`` are the holdout and training split
    sizes of the workload's datasets; forward passes and forward maps over
    batches of those sizes are attributed to evaluation and calibration.
    """

    def __init__(self, eval_rows: int, calibrate_rows: int) -> None:
        self.eval_rows = eval_rows
        self.calibrate_rows = calibrate_rows
        self.stats: Dict[str, _Stat] = {name: _Stat() for name in LAYER_NAMES}
        self.edges: Dict[Tuple[str, str], int] = {}
        self.root_s = 0.0
        self.absent: List[str] = []
        self._stack: List[list] = []
        self._saved: List[Tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    def _enter(self, name: str) -> None:
        parent = self._stack[-1][0] if self._stack else ""
        key = (parent, name)
        self.edges[key] = self.edges.get(key, 0) + 1
        self._stack.append([name, time.perf_counter(), 0.0])

    def _exit(self, rows: int, raised: bool) -> None:
        name, start, child_s = self._stack.pop()
        dur = time.perf_counter() - start
        if self._stack:
            self._stack[-1][2] += dur
        else:
            self.root_s += dur
        stat = self.stats.get(name)
        if stat is not None:
            stat.calls += 1
            stat.rows += rows
            stat.self_s += dur - child_s
            stat.raised += raised

    def root(self, name: str, fn: Callable, *args, **kwargs):
        """Run fn inside a root span (one workload cell or the check suite)."""
        self._enter(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._exit(0, False)

    def _wrap(self, name: str, fn: Callable, rows_of: Callable[..., int]) -> Callable:
        renames = name in ("nn.forward", "representations.rotations_from_raw")

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rows = rows_of(*args, **kwargs)
            span = name
            if renames and not (self._stack and self._stack[-1][0] in BOUNDARIES):
                if rows == self.eval_rows:
                    span = EVAL
                elif rows == self.calibrate_rows:
                    span = CALIBRATE
            self._enter(span)
            raised = True
            try:
                out = fn(*args, **kwargs)
                raised = False
                return out
            finally:
                self._exit(rows, raised)

        return wrapper

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        absent = []
        for name, (bindings, rows_of) in BOUNDARIES.items():
            found = False
            for module_name, attr in bindings:
                module = _import_or_none(module_name)
                original = getattr(module, attr, None) if module is not None else None
                if original is None:
                    continue
                found = True
                self._saved.append((module, attr, original))
                setattr(module, attr, self._wrap(name, original, rows_of))
            if not found:
                absent.append(name)
        self.absent = absent

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    # -- report ------------------------------------------------------------

    def metrics(self) -> Dict[str, float]:
        out: Dict[str, float] = {}
        for name, stat in self.stats.items():
            out[f"{name}.calls"] = stat.calls
            out[f"{name}.rows"] = stat.rows
            out[f"{name}.self_s"] = stat.self_s
            out[f"{name}.us_per_row"] = 1e6 * stat.self_s / stat.rows if stat.rows else 0.0
            out[f"{name}.raised"] = stat.raised
        return out

    def self_s_total(self) -> float:
        return sum(stat.self_s for stat in self.stats.values())

    def call_tree(self) -> Dict[str, int]:
        return {f"{parent or '<root>'} > {child}": n
                for (parent, child), n in sorted(self.edges.items())}


def _import_or_none(module_name: str) -> Optional[object]:
    try:
        return importlib.import_module(module_name)
    except ImportError:
        return None
