"""The simplex's rank-1 step on the pivot row's support, held to the full
step, with numpy as the only dependency.

`decomp._pivot` divides the pivot row by the pivot and subtracts its
multiples from the other rows. On tables of at least `_SCANNED_ROWS` rows a
sparse pivot row (`_sparse_step`) updates only its nonzero columns; any other
row takes the full step, `multiply.outer` below that size and one einsum
above it. The paths must take the same pivots to the same bits, which holds
because the table never holds -0.0.
"""

import contextlib
import itertools
import json
import math
from pathlib import Path

import numpy as np
import pytest

from nonlocality import decomp
from nonlocality.boxes import Box
from nonlocality.decomp import simplex_solve
from test_factored_pricing import chained_singlet, strategy_lp

GOLDEN_INPUTS = Path(__file__).parent / "golden" / "inputs"


@contextlib.contextmanager
def forced_step(path: str):
    """Every pivot takes `path`: "outer" (the full step of small tables),
    "einsum" (the full step of larger ones) or "sparse"."""
    with pytest.MonkeyPatch.context() as mp:
        if path == "outer":
            mp.setattr(decomp, "_SCANNED_ROWS", math.inf)
        else:
            mp.setattr(decomp, "_SCANNED_ROWS", 0)
            mp.setattr(decomp, "_sparse_step", lambda nonzeros, rows: path == "sparse")
        yield


def _assert_no_negative_zero(table: np.ndarray):
    assert not np.signbit(table[table == 0.0]).any()


@contextlib.contextmanager
def checked_tables():
    """Assert before and after every pivot that the table holds no -0.0."""
    step = decomp._pivot

    def checked(table, col, row):
        _assert_no_negative_zero(table)
        step(table, col, row)
        _assert_no_negative_zero(table)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(decomp, "_pivot", checked)
        yield


def solve_bits(lp) -> tuple:
    """(pivots, x bytes, duals bytes) of the simplex on `lp`."""
    result = simplex_solve(lp)
    return result.iterations, result.x.tobytes(), result.duals.tobytes()


def _assert_full_step_bits(box: Box):
    with checked_tables():
        lp = strategy_lp(box)
        default = solve_bits(lp)
    with forced_step("outer"):
        assert solve_bits(lp) == default


@pytest.mark.parametrize("path", sorted(GOLDEN_INPUTS.glob("*_box.json")), ids=lambda p: p.stem)
def test_default_step_has_the_full_steps_bits_on_golden_boxes(path):
    _assert_full_step_bits(Box.from_dict(json.loads(path.read_text())))


# from 17 rows at 2x2 to 257 at 8x8, below and above _SCANNED_ROWS, with
# sparse and dense pivot rows; the 8x8 box at 0.86 is left out: its 4,820
# pivots take 7 s, while the 8x8 box at 0.90 (343 pivots, 47 of them sparse)
# and the 7x7 box at 0.86 (414 pivots, 26 sparse) run both steps at 257 and
# 197 rows
CHAINED = [nv for nv in itertools.product(range(2, 9), (0.86, 0.90, 0.95, 1.0)) if nv != (8, 0.86)]


@pytest.mark.parametrize("n, visibility", CHAINED)
def test_default_step_has_the_full_steps_bits_on_chained_singlets(n, visibility):
    _assert_full_step_bits(chained_singlet(n, visibility))


def _sparse_choices(box: Box) -> tuple:
    """The pivot count of cf_exact(box)'s LP and `_sparse_step`'s answers,
    one per scanned pivot row."""
    lp, answers = strategy_lp(box), []
    sparse_step = decomp._sparse_step

    def answering(nonzeros, rows):
        answers.append(sparse_step(nonzeros, rows))
        return answers[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(decomp, "_sparse_step", answering)
        return simplex_solve(lp).iterations, answers


def test_both_steps_run_on_the_ladders_boxes():
    # 17 rows: no row is scanned, so no step is sparse
    pivots, answers = _sparse_choices(chained_singlet(2, 0.95))
    assert pivots > 0 and answers == []
    # 145 rows, pivot rows of about 3 nonzero columns: most steps are sparse
    pivots, answers = _sparse_choices(chained_singlet(6, 0.95))
    assert len(answers) == pivots and sum(answers) > pivots / 2
    # 101 rows at low visibility, with denser pivot rows: both steps
    pivots, answers = _sparse_choices(chained_singlet(5, 0.86))
    assert len(answers) == pivots and 0 < sum(answers) < pivots

