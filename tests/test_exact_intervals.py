"""An exact interval behind every classical fraction `cf_exact` prints, with
numpy as the only dependency.

A float is a dyadic rational, so the box as read, the simplex's duals and the
decomposition's weights are exact numbers, and both of `cf_exact`'s
certificates can be checked without rounding. Every finite double times
2^1074 is an integer, so the oracle works in Python ints over that common
denominator:

- Upper bound, by weak duality. With S = -max(y, 0) on the cells, from the
  duals y of the cell rows, CF(P) <= max(0, 1 + det_max(S)) - <S, P>, the
  maximum taken over every deterministic strategy.
- Lower bound. The weights w, scaled by the smallest P / load over the cells
  that sum_i w_i D_i overloads, and by 1 / sum(w) when the sum exceeds 1,
  are feasible; so their sum, min(1, t sum(w)), is a classical fraction of P.

The interval must be narrower than LP_TOL. The printed cf is a rounded float
sum of the weights, so it may sit just outside the interval; it must lie
within 2 ulps of it.

The same oracle holds the two strategy maxima to their exact values on every
scenario of at most 2^12 strategies: `fod_exact` must equal the max-min over
all of them, and `bell_det_max`, a rounded float sum, must lie within 2 ulps
of the exact largest sum.
"""

import itertools
import json
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from nonlocality import decomp
from nonlocality.boxes import BellFunctional, Box, Scenario, bell_det_max
from nonlocality.decomp import LP_TOL, cf_exact, fod_exact, simplex_solve
from test_factored_pricing import chained_singlet

GOLDEN_INPUTS = Path(__file__).parent / "golden" / "inputs"
ULP = 1 << 1074  # the common denominator of every finite double


def k_outcome_box(k: int, visibility: float) -> Box:
    """Two inputs a side and k outcomes each:
    p(a, b | x, y) = v [b = a - xy mod k] / k + (1 - v) / k^2."""
    a, b = np.meshgrid(np.arange(k), np.arange(k), indexing="ij")
    p = np.empty((2, 2, k, k))
    for x, y in itertools.product(range(2), repeat=2):
        p[x, y] = visibility * (b == (a - x * y) % k) / k + (1.0 - visibility) / k**2
    return Box(Scenario((k, k), (k, k)), p)


def exact(values) -> np.ndarray:
    """Each float of `values` times 2^1074, an exact Python int, in an
    object array of the same shape."""
    ints = []
    for value in np.ravel(values):
        numerator, denominator = float(value).as_integer_ratio()
        ints.append(numerator * (ULP // denominator))
    return np.array(ints, dtype=object).reshape(np.shape(values))


def exact_det_max(s: np.ndarray, scenario: Scenario) -> int:
    """max over deterministic strategies of sum_{x,y} s[x, y, alpha_x, beta_y],
    for an object array `s` of ints: per Alice assignment alpha, Bob's best
    outcome per input."""
    xs = np.arange(scenario.inputs_a)
    best = None
    for alpha in itertools.product(*map(range, scenario.outcomes_a)):
        bob_side = s[xs, :, list(alpha), :].sum(axis=0)
        value = sum(max(row[:outcomes]) for row, outcomes in zip(bob_side, scenario.outcomes_b))
        best = value if best is None else max(best, value)
    return best


def solve(box: Box):
    """cf_exact(box) and the simplex duals behind it, from one solve."""
    results = []

    def recording(lp):
        results.append(simplex_solve(lp))
        return results[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(decomp, "simplex_solve", recording)
        value, decomposition = cf_exact(box)
    (solved,) = results
    return value, decomposition, solved.duals


def exact_interval(box: Box, decomposition, duals: np.ndarray) -> tuple[Fraction, Fraction]:
    """The exact lower and upper bounds on CF(box) that the decomposition and
    the duals certify."""
    sc = box.scenario
    p = exact(box.p)
    s = np.zeros(sc.shape)
    s[sc.inside] = -np.maximum(duals[:-1], 0.0)
    s = exact(s)
    upper = Fraction(max(0, ULP + exact_det_max(s, sc)), ULP) - Fraction(int((s * p).sum()), ULP * ULP)

    xs, ys = np.arange(sc.inputs_a)[:, None], np.arange(sc.inputs_b)[None, :]
    load = np.zeros(sc.shape, dtype=object)
    weights = exact(decomposition.coefficients)
    for strategy, weight in zip(decomposition.strategies, weights):
        load[xs, ys, np.array(strategy.alice)[:, None], np.array(strategy.bob)[None, :]] += weight
    over = [Fraction(int(cell), int(loaded)) for cell, loaded in zip(p.ravel(), load.ravel()) if loaded > cell]
    lower = min(Fraction(1), min(over, default=Fraction(1)) * Fraction(int(weights.sum()), ULP))
    return lower, upper


def ulps_outside(value: float, lower: Fraction, upper: Fraction) -> float:
    """How far `value` lies outside [lower, upper], in ulps of `value`; 0
    inside."""
    gap = max(lower - Fraction(value), Fraction(value) - upper, Fraction(0))
    return float(gap / Fraction(float(np.spacing(value))))


# case -> box; the golden box inputs, chained singlets with white noise and
# the k-outcome boxes, each built only when its test runs
CASES = {
    **{
        path.stem: lambda path=path: Box.from_dict(json.loads(path.read_text()))
        for path in sorted(GOLDEN_INPUTS.glob("*_box.json"))
    },
    **{
        f"chained{n}_v{v}": lambda n=n, v=v: chained_singlet(n, v)
        for n in range(2, 8)
        for v in (0.86, 0.90, 0.95, 1.0)
    },
    **{f"k{k}_v{v}": lambda k=k, v=v: k_outcome_box(k, v) for k in range(2, 6) for v in (0.5, 0.7, 0.9)},
    "chained8_v0.9": lambda: chained_singlet(8, 0.90),
    "chained9_v1.0": lambda: chained_singlet(9, 1.0),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_the_printed_cf_has_an_exact_interval_narrower_than_lp_tol(case):
    box = CASES[case]()
    assert (box.p >= 0.0).all()
    value, decomposition, duals = solve(box)
    lower, upper = exact_interval(box, decomposition, duals)
    assert lower <= upper
    assert upper - lower < LP_TOL
    assert ulps_outside(value, lower, upper) <= 2.0


def strategy_count(scenario: Scenario) -> int:
    return math.prod(scenario.outcomes_a) * math.prod(scenario.outcomes_b)


# name -> box or functional dict whose strategy maxima are held exactly: the
# golden inputs of at most 2^12 strategies, and chained singlets 2x2-6x6
MAX_STRATEGIES = 1 << 12
SMALL_TABLES = {
    **{
        name: d
        for name, d in ((path.stem, json.loads(path.read_text())) for path in sorted(GOLDEN_INPUTS.glob("*.json")))
        if strategy_count(Scenario.from_dict(d["scenario"])) <= MAX_STRATEGIES
    },
    **{f"chained{n}": chained_singlet(n, 0.86).to_dict() for n in range(2, 7)},
}
SMALL_BOXES = sorted(name for name, d in SMALL_TABLES.items() if "p" in d)


@pytest.mark.parametrize("case", SMALL_BOXES)
def test_fod_exact_is_the_max_min_over_every_strategy(case):
    box = Box.from_dict(SMALL_TABLES[case])
    sc = box.scenario
    alphas = list(itertools.product(*map(range, sc.outcomes_a)))
    betas = list(itertools.product(*map(range, sc.outcomes_b)))
    xs, ys = np.arange(sc.inputs_a)[:, None], np.arange(sc.inputs_b)[None, :]
    cells = box.p[xs, ys, np.array(alphas)[:, None, :, None], np.array(betas)[None, :, None, :]]
    # a min and a max of floats round nothing, so floats are exact here
    worst = cells.min(axis=(2, 3))
    value, strategy = fod_exact(box)
    assert value == worst.max()
    # ties keep the first strategy in (alice, bob) order
    first_alpha, first_beta = np.unravel_index(int(np.argmax(worst)), worst.shape)
    assert (tuple(strategy.alice), tuple(strategy.bob)) == (alphas[first_alpha], betas[first_beta])


def signed_tables(case: str) -> list:
    """The table of a box or functional case, and a table of random signs on
    the same cells seeded by the case's name, as functionals."""
    d = SMALL_TABLES[case]
    table = Box.from_dict(d) if "p" in d else BellFunctional.from_dict(d)
    sc = table.scenario
    rng = np.random.default_rng(list(case.encode()))
    signed = np.where(sc.inside, rng.uniform(-1.0, 1.0, sc.shape), 0.0)
    return [BellFunctional(sc, table.p if "p" in d else table.s), BellFunctional(sc, signed)]


@pytest.mark.parametrize("case", sorted(SMALL_TABLES))
def test_bell_det_max_is_within_two_ulps_of_the_exact_maximum(case):
    for functional in signed_tables(case):
        sc = functional.scenario
        best = Fraction(exact_det_max(exact(functional.s), sc), ULP)
        value = bell_det_max(functional)
        assert abs(Fraction(value) - best) <= 2 * Fraction(float(np.spacing(value)))
