"""The classical-fraction LP's factored pricing held to the dense one, and
its certificates driven to fail, with numpy as the only dependency.

`cf_exact` builds its LP as `decomp._StrategyLP`, which never stores its
rows x strategies matrix: it prices every strategy column through Alice's
and Bob's one-hot factors and builds the columns it is asked for from them.
`DenseLP` holds the dense matrix and prices as c - y @ a. The two must give
the same reduced costs, take the same pivots and land on the same bits, and
the solve must not build the dense matrix. The dual certificate's Bell bound
must match the dense dual objective, and a wrong solve must fail one of the
two certificates.
"""

import dataclasses
import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from nonlocality import boxes, decomp
from nonlocality.boxes import Box, BellFunctional, Scenario, bell_det_max, bell_value, maximally_mixed_box
from nonlocality.cli import main
from nonlocality.decomp import LP_TOL, _certify_duals, cf_exact, simplex_solve
from golden_reports import GOLDEN, GOLDEN_REPORTS
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


UNEVEN_SCENARIOS = pytest.mark.parametrize(
    "outcomes_a, outcomes_b",
    [((2, 3), (3, 2, 2)), ((3,), (2, 3)), ((2, 3, 2), (2, 2, 3)), ((4, 2), (3,)), ((2, 2), (2, 2))],
)


@UNEVEN_SCENARIOS
def test_factored_reduced_costs_match_the_dense_ones(outcomes_a, outcomes_b):
    lp = strategy_lp(maximally_mixed_box(Scenario(outcomes_a, outcomes_b)))
    rng = np.random.default_rng(sum(outcomes_a) * 100 + sum(outcomes_b))
    for _ in range(20):
        y = rng.normal(size=len(lp.b))
        dense = lp.c - y @ lp.a
        factored = np.full(len(lp.c), np.nan)
        lp._reduced_costs(y, factored)
        assert np.abs(factored - dense).max() <= 1e-12


@UNEVEN_SCENARIOS
def test_dual_bound_matches_the_dense_objective(outcomes_a, outcomes_b):
    # duals >= 0, and duals of both signs that the certificate clips at 0: a
    # padded outcome's 0 would outbid every cell of S = -y if `_alice_side`
    # did not mask it
    box = maximally_mixed_box(Scenario(outcomes_a, outcomes_b))
    lp = strategy_lp(box)
    a, b = lp.a[:-1], lp.b[:-1]
    rng = np.random.default_rng(sum(outcomes_a) * 100 + sum(outcomes_b) + 1)
    for y in [*rng.uniform(0.0, 1.0, (20, len(lp.b))), *rng.normal(size=(20, len(lp.b)))]:
        cells = np.maximum(y[:-1], 0.0)
        dense = cells @ b + max(0.0, (1.0 - cells @ a).max())
        # the margin is LP_TOL minus the distance from the bound to `total`
        assert _certify_duals(box, y, dense) >= LP_TOL - 1e-12


@pytest.fixture
def no_dense_matrix(monkeypatch):
    def refuse(lp):
        raise AssertionError("the solve built the dense strategy matrix")

    monkeypatch.setattr(decomp._StrategyLP, "a", property(refuse))


BOX_GOLDENS = sorted(name for name, argv in GOLDEN_REPORTS.items() if argv[0] == "box")


@pytest.mark.parametrize("golden", BOX_GOLDENS)
def test_box_goldens_never_build_the_dense_matrix(no_dense_matrix, monkeypatch, tmp_path, golden):
    monkeypatch.chdir(GOLDEN)
    out = tmp_path / golden
    assert main([*GOLDEN_REPORTS[golden], "--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / golden).read_bytes()


@pytest.mark.parametrize("n, visibility", [(n, 0.95) for n in range(2, 7)] + [(5, 0.86)])
def test_chained_singlets_never_build_the_dense_matrix(no_dense_matrix, n, visibility):
    total, _ = cf_exact(chained_singlet(n, visibility))
    assert 0.0 < total < 1.0


def test_the_8x8_solve_stays_small():
    # the dense matrix alone would be 257 x 65,536 doubles, 134.7 MB; the
    # factors, the basis inverse and one vector of reduced costs are a few MB
    box = chained_singlet(8, 0.95)
    tracemalloc.start()
    try:
        cf_exact(box)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 20e6


def test_the_9x9_solve_keeps_one_copy_of_its_factors():
    # the LP holds U and V and reads them at the cell rows through its two
    # slot vectors; copies of both read at the cell rows would add 2^9 x 324
    # doubles per side, 2.7 MB, to the peak
    box = chained_singlet(9, 1.0)
    tracemalloc.start()
    try:
        cf_exact(box)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8.5e6


def test_cf_on_2_to_the_19_strategies_reaches_its_solve(monkeypatch):
    # 2^12 x 2^7 binary: Alice's one-hot and pricing rows take 2^12 x 50
    # cells and the simplex's table 337 x 338, all inside the budget
    class Solved(Exception):
        pass

    def solved(lp):
        raise Solved

    monkeypatch.setattr(decomp, "simplex_solve", solved)
    with pytest.raises(Solved):
        cf_exact(maximally_mixed_box(Scenario((2,) * 12, (2,) * 7)))


def test_the_simplex_table_is_counted_before_it_is_built(monkeypatch, tmp_path, capsys):
    # 32 one-outcome inputs per side make one strategy but 1024 cell rows,
    # whose simplex table of 1025 x 1026 doubles is refused before any
    # assignment table is listed or any LP is solved, by the library and the CLI
    box = maximally_mixed_box(Scenario((1,) * 32, (1,) * 32))

    def unreached(*args):
        raise AssertionError("a table was built")

    monkeypatch.setattr(boxes, "assignments", unreached)
    monkeypatch.setattr(decomp, "simplex_solve", unreached)
    message = "enumeration needs 1051650 table cells, budget is 1000000"
    with pytest.raises(ValueError, match=f"^{message}$"):
        cf_exact(box)
    path = tmp_path / "box.json"
    path.write_text(json.dumps(box.to_dict()))
    assert main(["box", str(path), "--ops", "ns,cf"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: {message}\n"


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
    # the simplex stops at once on the slack basis with all duals 0; their
    # Bell bound is 1, far above the value 0
    monkeypatch.setattr(decomp._StrategyLP, "_reduced_costs", lambda self, y, out: out.fill(0.0))
    with pytest.raises(RuntimeError, match=r"classical fraction 0\.0 is 1\.000e\+00 from the dual bound 1\.0"):
        cf_exact(chained_singlet(3, 0.95))
    rc = main(["box", str(GOLDEN_INPUTS / "chained4_v090_box.json"), "--ops", "ns,fod,cf"])
    out, err = capsys.readouterr()
    assert rc == 3 and out == ""
    assert err.startswith("internal error:") and "from the dual bound" in err


@pytest.mark.parametrize(
    "scale, message",
    [(1.0 + 1e-6, "does not reconstruct the box"), (1.0 - 1e-6, "from the dual bound")],
    ids=["too_much", "too_little"],
)
def test_scaled_weights_fail_a_certificate(monkeypatch, scale, message):
    # too much weight leaves negative cells that no residual box can fill;
    # too little is a feasible decomposition whose value sits a millionth of
    # itself below the dual bound
    def scaled(lp):
        solved = simplex_solve(lp)
        return dataclasses.replace(solved, x=solved.x * scale)

    monkeypatch.setattr(decomp, "simplex_solve", scaled)
    with pytest.raises(RuntimeError, match=message):
        cf_exact(chained_singlet(3, 0.95))


def test_certify_duals_accepts_the_optimal_total_only():
    box = chained_singlet(3, 0.95)
    solved = simplex_solve(strategy_lp(box))
    total = float(solved.x.sum())
    s = np.zeros(box.scenario.shape)
    s[box.scenario.inside] = -np.maximum(solved.duals[:-1], 0.0)
    functional = BellFunctional(box.scenario, s)
    bound = max(0.0, 1.0 + bell_det_max(functional)) - bell_value(functional, box)
    assert 0.0 < _certify_duals(box, solved.duals, total) == LP_TOL - abs(bound - total)
    for off in (2 * LP_TOL, -2 * LP_TOL):
        with pytest.raises(RuntimeError, match="from the dual bound"):
            _certify_duals(box, solved.duals, total + off)
    # a NaN dual, even on a single cell, fails the gap
    one_nan = solved.duals.copy()
    one_nan[0] = math.nan
    for nan in (np.full_like(solved.duals, math.nan), one_nan):
        with pytest.raises(RuntimeError, match="is nan from the dual bound nan"):
            _certify_duals(box, nan, total)
