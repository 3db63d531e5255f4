"""The classical-fraction LP's entering rule, with numpy as the only
dependency.

`decomp._StrategyLP` enters the column with the largest reduced cost. That
rule can cycle on a degenerate vertex, so after m (the row count) pivots in a
row whose step is at most LP_TOL, Bland's rule chooses until a step exceeds
it. A plain `LinearProgram` keeps Bland's rule throughout.
"""

import numpy as np
import pytest

from nonlocality import decomp
from nonlocality.boxes import Scenario, maximally_mixed_box
from nonlocality.decomp import LinearProgram, cf_exact, simplex_solve


class LargestRuleLP(LinearProgram):
    """A plain LP, priced densely, that enters columns as `_StrategyLP` does."""

    _entering = decomp._StrategyLP._entering


def beale(cls):
    """Beale's LP, which cycles under the largest-coefficient rule."""
    return cls(
        c=np.array([0.75, -150.0, 0.02, -6.0]),
        a=np.array([[0.25, -60.0, -1.0 / 25.0, 9.0], [0.5, -90.0, -1.0 / 50.0, 3.0], [0.0, 0.0, 1.0, 0.0]]),
        b=np.array([0.0, 0.0, 1.0]),
    )


def test_the_guard_stops_the_largest_rule_cycling_on_beale(monkeypatch):
    stalled = []

    def recording(self, reduced, y, is_stalled):
        stalled.append(is_stalled)
        return decomp._StrategyLP._entering(self, reduced, y, is_stalled)

    monkeypatch.setattr(LargestRuleLP, "_entering", recording)
    res = simplex_solve(beale(LargestRuleLP))
    assert res.value == pytest.approx(0.05, abs=1e-12)
    np.testing.assert_allclose(res.x, [0.04, 0.0, 1.0, 0.0], atol=1e-12)
    # three zero steps, one per row, then Bland's rule for two pivots
    assert stalled == [False, False, False, True, True, False, False]
    assert res.iterations == 6


def test_without_the_guard_the_largest_rule_cycles_on_beale(monkeypatch):
    def unguarded(self, reduced, y, stalled):
        return decomp._largest_improving(reduced, y)

    monkeypatch.setattr(LargestRuleLP, "_entering", unguarded)
    with pytest.raises(RuntimeError, match="budget 100 exhausted"):
        simplex_solve(beale(LargestRuleLP))


def test_a_plain_lp_keeps_blands_rule_from_the_first_pivot():
    # structural reduced costs 0.5 and 1, and 2 on the second slack column
    reduced, y = np.array([0.5, 1.0, 0.0, 0.0]), np.array([0.0, -2.0, 0.0])
    assert beale(LinearProgram)._entering(reduced, y, False) == 0
    assert beale(LargestRuleLP)._entering(reduced, y, False) == 5
    assert beale(LargestRuleLP)._entering(reduced, y, True) == 0


def test_ties_go_to_the_first_column_within_the_window():
    # structural columns before slack columns, and 1e-12 below the largest
    # still counts as tied
    assert decomp._largest_improving(np.array([0.5, 1.0 - 1e-12, 1.0]), np.zeros(2)) == 1
    assert decomp._largest_improving(np.array([0.5, 1.0 - 2e-12, 1.0]), np.zeros(2)) == 2
    assert decomp._largest_improving(np.array([0.5, 0.25]), np.array([0.0, -0.5])) == 0
    assert decomp._largest_improving(np.array([0.5, 0.25]), np.array([0.0, -0.75])) == 3
    assert decomp._largest_improving(np.array([decomp.LP_TOL]), np.array([0.0])) is None


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
