"""The classical-fraction LP's factored pricing held to the dense one, with
numpy as the only dependency.

`cf_exact` builds its LP as `decomp._StrategyLP`, which prices every
strategy column through Alice's and Bob's one-hot factors. `DenseLP` holds
the same data but prices densely, as c - y @ a. The two must give the same
reduced costs, take the same pivots and land on the same bits, and the dense
certificate must still stop a pricer that misses an improving column.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from nonlocality import decomp
from nonlocality.boxes import Box, Scenario, maximally_mixed_box
from nonlocality.cli import main
from nonlocality.decomp import cf_exact, simplex_solve
from test_entering_rule import DenseLP

GOLDEN_INPUTS = Path(__file__).parent / "golden" / "inputs"


def chained_singlet(n: int, visibility: float) -> Box:
    """Singlet at the chained-Bell angles x pi/n and (y + 1/2) pi/n, mixed
    with white noise; n binary inputs per side."""
    theta = np.arange(n) * np.pi / n
    phi = (np.arange(n) + 0.5) * np.pi / n
    corr = -np.cos(theta[:, None] - phi[None, :])
    parity = np.array([[1.0, -1.0], [-1.0, 1.0]])
    p = visibility * (1.0 + parity * corr[:, :, None, None]) / 4.0 + (1.0 - visibility) / 4.0
    return Box(Scenario((2,) * n, (2,) * n), p)


def strategy_lp(box: Box) -> decomp._StrategyLP:
    """The LP that cf_exact(box) solves."""
    solved = []

    def recording(lp):
        solved.append(lp)
        return simplex_solve(lp)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(decomp, "simplex_solve", recording)
        cf_exact(box)
    (lp,) = solved
    assert type(lp) is decomp._StrategyLP
    return lp


@pytest.mark.parametrize(
    "outcomes_a, outcomes_b",
    [((2, 3), (3, 2, 2)), ((3,), (2, 3)), ((2, 3, 2), (2, 2, 3)), ((4, 2), (3,)), ((2, 2), (2, 2))],
)
def test_factored_reduced_costs_match_the_dense_ones(outcomes_a, outcomes_b):
    lp = strategy_lp(maximally_mixed_box(Scenario(outcomes_a, outcomes_b)))
    rng = np.random.default_rng(sum(outcomes_a) * 100 + sum(outcomes_b))
    for _ in range(20):
        y = rng.normal(size=len(lp.b))
        dense = lp.c - y @ lp.a
        assert np.abs(lp._reduced_costs(y) - dense).max() <= 1e-12


def _assert_same_pivots_and_bits(box: Box):
    lp = strategy_lp(box)
    factored = simplex_solve(lp)
    dense = simplex_solve(DenseLP(lp.c, lp.a, lp.b))
    assert factored.iterations == dense.iterations
    assert factored.x.tobytes() == dense.x.tobytes()


@pytest.mark.parametrize("path", sorted(GOLDEN_INPUTS.glob("*_box.json")), ids=lambda p: p.stem)
def test_factored_pricing_takes_the_dense_pivots_on_golden_boxes(path):
    _assert_same_pivots_and_bits(Box.from_dict(json.loads(path.read_text())))


@pytest.mark.parametrize("n, visibility", [(n, 0.95) for n in range(2, 7)] + [(5, 0.86)])
def test_factored_pricing_takes_the_dense_pivots_on_chained_singlets(n, visibility):
    _assert_same_pivots_and_bits(chained_singlet(n, visibility))


def test_a_pricer_that_misses_every_column_cannot_produce_a_report(monkeypatch, capsys):
    # the simplex stops at once on the slack basis; only the dense
    # certificate, priced from fresh duals, sees the improving columns
    monkeypatch.setattr(decomp._StrategyLP, "_reduced_costs", lambda self, y: np.zeros(len(self.c)))
    with pytest.raises(RuntimeError, match="reduced costs are not optimal"):
        cf_exact(chained_singlet(3, 0.95))
    rc = main(["box", str(GOLDEN_INPUTS / "chained4_v090_box.json"), "--ops", "ns,fod,cf"])
    out, err = capsys.readouterr()
    assert rc == 3 and out == ""
    assert err.startswith("internal error:") and "reduced costs are not optimal" in err
