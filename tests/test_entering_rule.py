"""The simplex's entering rule and its termination, with numpy as the only
dependency.

`simplex_solve` enters the column with the largest reduced cost. That rule
can cycle on a degenerate vertex, so after m (the row count) pivots in a row
whose step is at most LP_TOL, Bland's rule chooses until a step exceeds it.
`DenseLP` runs general LPs through the same kernel, priced densely.
"""

import math
from dataclasses import dataclass

import numpy as np
import pytest

from nonlocality import decomp
from nonlocality.boxes import Scenario, maximally_mixed_box
from nonlocality.decomp import cf_exact, simplex_solve


@dataclass(frozen=True, eq=False)
class DenseLP:
    """maximize c @ x subject to a @ x <= b, x >= 0, for float arrays. It
    gives the simplex the hooks of `decomp._StrategyLP` from the stored a:
    columns sliced from it, and pricing as c - y @ a into the given buffer."""

    c: np.ndarray
    a: np.ndarray
    b: np.ndarray

    def _reduced_costs(self, y: np.ndarray, out: np.ndarray) -> None:
        np.subtract(self.c, y @ self.a, out=out)

    def _column(self, e: int) -> np.ndarray:
        return self.a[:, e]


def beale() -> DenseLP:
    """Beale's LP, which cycles under the largest-coefficient rule."""
    return DenseLP(
        c=np.array([0.75, -150.0, 0.02, -6.0]),
        a=np.array([[0.25, -60.0, -1.0 / 25.0, 9.0], [0.5, -90.0, -1.0 / 50.0, 3.0], [0.0, 0.0, 1.0, 0.0]]),
        b=np.array([0.0, 0.0, 1.0]),
    )


def klee_minty(n: int) -> DenseLP:
    """The Klee-Minty cube: max sum_j 2^(n-j) x_j subject to
    sum_{j<i} 2^(i-j+1) x_j + x_i <= 5^i, with b scaled by 5^-12 to stay at
    most 1."""
    i = np.arange(1, n + 1)
    below = i[:, None] > i[None, :]
    a = np.where(below, 2.0 ** (i[:, None] - i[None, :] + 1), 0.0) + np.eye(n)
    return DenseLP(c=2.0 ** (n - i), a=a, b=5.0**i / 5.0**12)


def test_the_guard_stops_the_largest_rule_cycling_on_beale(monkeypatch):
    chosen = []
    entering = decomp._entering

    def recording(reduced, bland):
        chosen.append(bland)
        return entering(reduced, bland)

    monkeypatch.setattr(decomp, "_entering", recording)
    res = simplex_solve(beale())
    assert res.value == pytest.approx(0.05, abs=1e-12)
    np.testing.assert_allclose(res.x, [0.04, 0.0, 1.0, 0.0], atol=1e-12)
    # three zero steps, one per row, then Bland's rule for two pivots
    largest, first = False, True
    assert chosen == [largest] * 3 + [first] * 2 + [largest] * 2
    assert res.iterations == 6


def test_without_the_guard_the_largest_rule_cycles_on_beale(monkeypatch):
    entering = decomp._entering
    monkeypatch.setattr(decomp, "_entering", lambda reduced, bland: entering(reduced, False))
    with pytest.raises(RuntimeError, match="budget 100 exhausted"):
        simplex_solve(beale())


def test_the_largest_rule_is_exponential_on_klee_minty():
    # entering by the largest reduced cost visits all 2^n vertices, and from
    # n = 8 on that runs past the budget of 10 * (2 rows + columns) pivots;
    # on the classical-fraction LP the same rule takes the few pivots pinned
    # below and in test_decomp
    for n in range(2, 8):
        assert simplex_solve(klee_minty(n)).iterations == 2**n - 1
    with pytest.raises(RuntimeError, match="budget 240 exhausted"):
        simplex_solve(klee_minty(8))


def test_an_improving_column_with_no_blocking_row_raises():
    lp = DenseLP(c=np.array([1.0, 0.0]), a=np.array([[0.0, 1.0]]), b=np.array([1.0]))
    with pytest.raises(RuntimeError, match="improving direction has no blocking constraint"):
        simplex_solve(lp)


def test_a_negative_basic_value_raises():
    # b < 0: the slack basis is infeasible, and with nothing improving the
    # simplex stops on it at once
    for b in (-1.0, -decomp.LP_TOL):
        with pytest.raises(RuntimeError, match="negative basic value"):
            simplex_solve(DenseLP(c=np.array([-1.0]), a=np.array([[1.0]]), b=np.array([b])))
    # half of LP_TOL below 0 passes
    res = simplex_solve(DenseLP(c=np.array([-1.0]), a=np.array([[1.0]]), b=np.array([-decomp.LP_TOL / 2])))
    assert res.iterations == 0 and res.x.tolist() == [0.0]


def test_ties_go_to_the_first_column_within_the_window():
    # one vector over [a | I], slack columns last, and 1e-12 below the
    # largest still counts as tied
    assert decomp._entering(np.array([0.5, 1.0 - 1e-12, 1.0, 0.0, 0.0]), bland=False) == 1
    assert decomp._entering(np.array([0.5, 1.0 - 2e-12, 1.0, 0.0, 0.0]), bland=False) == 2
    assert decomp._entering(np.array([0.5, 0.25, -0.0, 0.5]), bland=False) == 0
    assert decomp._entering(np.array([0.5, 0.25, -0.0, 0.75]), bland=False) == 3
    assert decomp._entering(np.array([decomp.LP_TOL, -0.0]), bland=False) is None


def _first_loop(reduced):
    """Bland's rule as a plain loop over the vector: a NaN anywhere stops
    the search, as it stops the largest rule."""
    values = reduced.tolist()
    if any(math.isnan(value) for value in values):
        return None
    for i, value in enumerate(values):
        if value > decomp.LP_TOL:
            return i
    return None


def _largest_loop(reduced):
    """The largest rule as a plain loop: a NaN anywhere stops the search,
    as numpy's max propagates it."""
    values = reduced.tolist()
    if any(math.isnan(value) for value in values):
        return None
    top = max(values)
    if not top > decomp.LP_TOL:
        return None
    return next(i for i, value in enumerate(values) if value >= top - 1e-12)


# reduced costs that tie, straddle the 1e-12 window and LP_TOL, or are NaN
TIE_PRONE = [0.0, -0.0, -0.5, decomp.LP_TOL, 2 * decomp.LP_TOL, 0.5, 0.5 - 1e-12, 0.5 - 2e-12, 1.0, math.nan]


@pytest.mark.parametrize(
    "reduced",
    [
        [0.25, 1.0 - 1e-12, 1.0],  # a slack column 1e-12 above a structural one: tied
        [0.25, 1.0 - 2e-12, 1.0],  # 2e-12 below: the slack column wins
        [1.0, 0.25, 1.0 - 1e-12],  # the slack column within the window comes second
        [-0.0, 0.0, decomp.LP_TOL, 0.5],  # only a slack column improves
        [decomp.LP_TOL, -0.0, 0.0, decomp.LP_TOL],  # nothing above LP_TOL
        [0.5, math.nan, 1.0],
        [math.nan, 0.5],
        [math.nan],
    ],
)
def test_entering_rules_match_a_plain_loop(reduced):
    reduced = np.array(reduced)
    assert decomp._entering(reduced, bland=True) == _first_loop(reduced)
    assert decomp._entering(reduced, bland=False) == _largest_loop(reduced)


def test_entering_rules_match_a_plain_loop_on_random_vectors():
    rng = np.random.default_rng(34)
    for _ in range(2000):
        reduced = rng.choice(TIE_PRONE, size=int(rng.integers(1, 10)))
        assert decomp._entering(reduced, bland=True) == _first_loop(reduced), reduced
        assert decomp._entering(reduced, bland=False) == _largest_loop(reduced), reduced


def test_a_nan_price_stops_blands_rule_too():
    # Bland's rule once skipped the NaN and entered column 1; now a NaN
    # stops both rules, and cf_exact's dual certificate judges the basis
    reduced = np.array([math.nan, 1.0])
    assert decomp._entering(reduced, bland=True) is None
    assert decomp._entering(reduced, bland=False) is None


@pytest.mark.parametrize(
    "scenario, pivots",
    [(Scenario((2, 3, 3, 2), (2, 2, 2, 2)), 56), (Scenario((2, 3, 2, 2), (2, 3, 2, 2)), 80)],
)
def test_uniform_four_input_boxes_take_few_pivots(monkeypatch, scenario, pivots):
    # Bland's rule alone stalled here for 2,254 and 1,866 degenerate pivots
    solved = []

    def recording(lp):
        result = simplex_solve(lp)
        solved.append(result.iterations)
        return result

    monkeypatch.setattr(decomp, "simplex_solve", recording)
    total, found = cf_exact(maximally_mixed_box(scenario))
    assert solved == [pivots]
    assert total == pytest.approx(1.0, abs=1e-9) and found.residual is None
