"""tools/rounding_spread.py: its one-ulp perturbation, its criterion rows and its --cells parser."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from rotgrad import nn

_SPEC = importlib.util.spec_from_file_location(
    "rounding_spread", Path(__file__).resolve().parents[1] / "tools" / "rounding_spread.py")
spread = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(spread)

SIZES = [48, 128, 128, 10]


def _init(replica):
    return spread._nudged_init_mlp(nn.init_mlp, replica)(SIZES, np.random.default_rng(0))


def test_a_replica_moves_a_seeded_tenth_of_the_initial_parameters_one_ulp_up():
    plain = nn.init_mlp(SIZES, np.random.default_rng(0))
    nudged = _init(1)
    moved = nudged.params != plain.params
    assert moved.sum() == round(spread.NUDGE_FRACTION * plain.params.size)
    assert np.array_equal(nudged.params[moved], np.nextafter(plain.params[moved], np.inf))
    assert np.array_equal(_init(1).params, nudged.params)
    assert not np.array_equal(_init(2).params, nudged.params)


def test_criterion_rows_apply_the_acceptance_rules():
    rows = spread._rows((7, 9), {"quat", "s2"})
    assert [label for _, label, _, _ in rows] == [
        "quat seed 0 rpmg < vanilla", "quat seed 1 rpmg < vanilla", "quat seed 2 rpmg < vanilla",
        "s2 seed 0 rpmg < l2-with-norm", "s2 seed 1 rpmg < l2-with-norm",
        "s2 seed 2 rpmg < l2-with-norm", "s2 pmg ratio < 0.5"]
    _, _, cells, verdict = rows[0]
    assert cells == [("quat", "rpmg", 0), ("quat", "vanilla", 0)]
    assert verdict({cells[0]: (2.0, 1.0), cells[1]: (2.5, 9.0)})
    assert not verdict({cells[0]: (2.5, 1.0), cells[1]: (2.5, 9.0)})
    (_, _, (pmg, rpmg), norms), = spread._rows((6,), {"9d"})
    assert norms({pmg: (4.0, 0.26), rpmg: (1.0, 1.0)})
    assert not norms({pmg: (4.0, 0.26), rpmg: (1.0, 2.1)})


def test_cells_option():
    assert spread._parse_cells("6,7:9d,7:s2") == {6: set(spread.FAMILIES), 7: {"9d", "s2"}}
    for bad in ("8", "7:5d", "seven", ""):
        with pytest.raises(ValueError, match="bad --cells item"):
            spread._parse_cells(bad)
