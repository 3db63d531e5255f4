"""Simplex solver unit cases, LP cross-checks, and box decompositions."""

import itertools
import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from scipy.optimize import linprog

from nonlocality import boxes, decomp
from nonlocality.boxes import (
    BellFunctional,
    Box,
    DeterministicStrategy,
    Scenario,
    _cells,
    bell_det_max,
    chsh_scenario,
    deterministic_box,
    enumerate_deterministic,
    local_box,
    maximally_mixed_box,
    pr_box,
)
from nonlocality.decomp import (
    LP_TOL,
    RECONSTRUCTION_TOL,
    SimplexResult,
    _certify_reconstruction,
    _leftover,
    bell_bound_from_fod,
    cf_exact,
    fod_exact,
    simplex_solve,
)
from test_entering_rule import DenseLP
from test_factored_pricing import chained_singlet
from test_pivot_step import checked_tables, forced_step, solve_bits

GOLDEN_INPUTS = Path(__file__).parent / "golden" / "inputs"
# the CHSH facet box (1 - t) L + t PR at t = 1e-8, with L the uniform mixture
# of the eight deterministic boxes of CHSH value 2; kept apart from the golden
# inputs because its residual magnifies rounding by 1 / t
NEAR_FACET_BOX = Path(__file__).parent / "inputs" / "near_facet_box.json"
# HiGHS's default feasibility tolerance, 1e-7, can round a classical fraction
# within about 1e-7 of 1 up to 1; comparisons at 1e-9 run HiGHS at these.
HIGHS_TIGHT = {"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10}


def test_simplex_box_constraints():
    res = simplex_solve(DenseLP(c=np.ones(2), a=np.eye(2), b=np.array([1.0, 2.0])))
    assert res.value == pytest.approx(3.0)
    np.testing.assert_allclose(res.x, [1.0, 2.0])


def test_random_lps_match_scipy():
    for seed in range(25):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 7))
        m = int(rng.integers(2, 6))
        # mixed-sign rows and objective; zero right-hand sides make degenerate
        # vertices, and the bounding row keeps the optimum finite
        a = np.vstack([rng.uniform(-1.0, 1.0, (m, n)), np.ones(n)])
        b = np.append(np.where(rng.random(m) < 0.3, 0.0, rng.uniform(0.5, 1.5, m)), 2.0)
        c = rng.uniform(-0.5, 1.0, n)
        lp = DenseLP(c=c, a=a, b=b)
        mine = simplex_solve(lp)
        ref = linprog(-c, A_ub=a, b_ub=b, bounds=[(0, None)] * n, method="highs")
        assert ref.status == 0
        assert mine.value == pytest.approx(-ref.fun, abs=1e-7)
        assert (mine.x >= 0.0).all() and (a @ mine.x <= b + 1e-9).all()
        dense = _dense_simplex(lp)
        assert mine.iterations == dense.iterations
        np.testing.assert_allclose(mine.x, dense.x, rtol=0.0, atol=1e-12)


def _dense_simplex(lp) -> SimplexResult:
    """The dense oracle behind simplex_solve's interface: the tableau [a | I]
    from the slack basis, with the reduced costs carried as one more row.
    Each Gauss-Jordan step updates one touched row per Python iteration.
    The entering column is the first within 1e-12 of the largest reduced
    cost on that row, except that after m pivots in a row whose step is at
    most LP_TOL Bland's rule chooses until a step exceeds it."""
    m, n = lp.a.shape
    t = np.block([[lp.a, np.eye(m)], [lp.c, np.zeros(m)]])
    rhs = np.append(lp.b, 0.0)
    basis = np.arange(n, n + m)
    iterations = zero_steps = 0
    while True:
        improving = t[m] > LP_TOL
        if not improving.any():
            break
        if zero_steps < m:
            improving = t[m] >= t[m].max() - 1e-12
        entering = int(np.argmax(improving))
        col = t[:m, entering]
        rows = np.flatnonzero(col > LP_TOL)
        if not rows.size:
            raise RuntimeError("improving direction has no blocking constraint")
        ratios = rhs[rows] / col[rows]
        tied = rows[ratios <= ratios.min() + 1e-12]
        row = int(tied[np.argmin(basis[tied])])
        zero_steps = zero_steps + 1 if ratios.min() <= LP_TOL else 0
        piv = t[row, entering]
        t[row] /= piv
        rhs[row] /= piv
        for i in np.flatnonzero(t[:, entering]).tolist():
            if i != row:
                f = t[i, entering]
                t[i] -= f * t[row]
                rhs[i] -= f * rhs[row]
        basis[row] = entering
        iterations += 1
    x = np.zeros(n + m)
    x[basis] = rhs[:m]
    x = np.where(np.abs(x) < LP_TOL, 0.0, x)[:n]
    # the slack columns' reduced costs are -y
    return SimplexResult(value=float(lp.c @ x), x=x, iterations=iterations, duals=-t[m, n:])


def _random_lp(m: int, n: int, bounded: bool, coarse: bool, rng) -> DenseLP:
    """m mixed-sign <= rows, about 30% of them with a zero right-hand side,
    plus a row of ones when bounded; coarse entries are multiples of 1/4, so
    ratio ties and exact cancellations to zero are common."""
    a = rng.integers(-4, 5, (m, n)) / 4.0 if coarse else rng.uniform(-1.0, 1.0, (m, n))
    b = np.where(rng.random(m) < 0.3, 0.0, rng.uniform(0.5, 1.5, m))
    if bounded:
        a, b = np.vstack([a, np.ones(n)]), np.append(b, 2.0)
    return DenseLP(c=rng.uniform(-0.5, 1.0, n), a=a, b=b)


random_lps = st.builds(
    _random_lp,
    st.integers(1, 8),
    st.integers(1, 10),
    st.booleans(),
    st.booleans(),
    st.integers(0, 2**32 - 1).map(np.random.default_rng),
)


@given(random_lps)
# HiGHS's status on this LP is 4, "Unknown", though it is unbounded
@example(_random_lp(5, 5, False, False, np.random.default_rng(87)))
# the same pivots and support as the oracle, with x off by 1.1e-12 to
# 2.7e-12 relative (the first two under Bland's rule from the first pivot)
@example(_random_lp(6, 5, False, False, np.random.default_rng(81)))
@example(_random_lp(6, 10, False, False, np.random.default_rng(132)))
@example(_random_lp(8, 7, False, False, np.random.default_rng(250)))
@example(_random_lp(7, 9, False, False, np.random.default_rng(228)))
def test_simplex_matches_dense_oracle(lp):
    try:
        dense = _dense_simplex(lp)
    except RuntimeError:
        with pytest.raises(RuntimeError, match="no blocking constraint"):
            simplex_solve(lp)
        # x = 0 is feasible, so a ray d >= 0 with a d <= 0 and c d > 0 proves
        # the LP unbounded; HiGHS finds one without being asked to classify
        ray = linprog(
            -lp.c,
            A_ub=lp.a,
            b_ub=np.zeros(len(lp.b)),
            bounds=(0, 1),
            method="highs",
            options=HIGHS_TIGHT,
        )
        assert ray.status == 0 and -ray.fun > 0
        return
    ref = linprog(-lp.c, A_ub=lp.a, b_ub=lp.b, bounds=(0, None), method="highs")
    mine = simplex_solve(lp)
    assert mine.iterations == dense.iterations
    np.testing.assert_array_equal(mine.x == 0.0, dense.x == 0.0)
    # without a bounding row coordinates reach the thousands, and the two
    # pivot arithmetics part by up to about 3e-12 relative
    np.testing.assert_allclose(mine.x, dense.x, rtol=1e-11, atol=1e-12)
    assert ref.status == 0 and mine.value == pytest.approx(-ref.fun, abs=1e-7)


@given(random_lps)
def test_every_rank1_step_gives_the_same_bits(lp):
    # these tables have at most 9 rows, below decomp._SCANNED_ROWS, so each
    # path is forced on every pivot; coarse entries (in half of the LPs)
    # cancel to exact zeros
    outcomes = []
    for path in ("outer", "einsum", "sparse"):
        with forced_step(path), checked_tables():
            try:
                outcomes.append(solve_bits(lp))
            except RuntimeError as exc:
                outcomes.append(str(exc))
    assert outcomes[0] == outcomes[1] == outcomes[2]


def _signalling_box() -> Box:
    sc = chsh_scenario()
    t = np.zeros(sc.shape)
    t[0, 0, 0, 0] = 1.0
    t[0, 1, 1, 0] = 1.0
    t[1, 0, 0, 0] = 1.0
    t[1, 1, 0, 0] = 1.0
    return Box(sc, t)


def test_fod_maximally_mixed():
    value, strategy = fod_exact(maximally_mixed_box(chsh_scenario()))
    assert value == pytest.approx(0.25, abs=0.0)
    assert strategy == DeterministicStrategy((0, 0), (0, 0))


def test_fod_pr_box_vanishes():
    value, _ = fod_exact(pr_box())
    assert value == 0.0


def test_fod_deterministic_box():
    strat = DeterministicStrategy((1, 0), (0, 1))
    value, found = fod_exact(deterministic_box(strat, chsh_scenario()))
    assert value == pytest.approx(1.0)
    assert found == strat


def test_fod_rejects_signalling():
    with pytest.raises(ValueError, match="no-signalling"):
        fod_exact(_signalling_box())


def test_fod_budget_passthrough():
    # 10 binary inputs per side: 2^20 strategies exceed the 10^6 budget. The
    # full listing's callers are refused the same way, again on a second call;
    # the one-sided searches build only 2^10 x 10 x 2 cells and pass
    sc = Scenario((2,) * 10, (2,) * 10)
    box = maximally_mixed_box(sc)
    functional = BellFunctional(sc, np.zeros(sc.shape))
    calls = [lambda: enumerate_deterministic(sc), lambda: local_box(sc, [1.0]), lambda: cf_exact(box)]
    for call in calls * 2:
        with pytest.raises(ValueError, match="^enumeration needs 1048576 strategies, budget is 1000000$"):
            call()
    for _ in range(2):
        assert fod_exact(box) == (0.25, DeterministicStrategy((0,) * 10, (0,) * 10))
        assert bell_det_max(functional) == 0.0
    # 19 binary inputs against 2: the searches' 2^19 x 2 x 2 cells exceed it
    sc = Scenario((2,) * 19, (2, 2))
    box = maximally_mixed_box(sc)
    functional = BellFunctional(sc, np.zeros(sc.shape))
    for call in [lambda: fod_exact(box), lambda: bell_det_max(functional)] * 2:
        with pytest.raises(ValueError, match="^enumeration needs 2097152 table cells, budget is 1000000$"):
            call()


def _traced(call) -> tuple:
    """Bytes (held after, peak during) that tracemalloc sees for `call()`."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()


def test_fod_holds_no_table_past_the_call():
    # nothing is cached on the scenario: the box lives, and no search array
    # does (a cached listing once kept Alice's 2^16 x 16 table, 8.4 MB)
    box = maximally_mixed_box(Scenario((2,) * 16, (2, 2)))
    assert box.ns_report.passed
    held, _ = _traced(lambda: fod_exact(box))
    assert held < 0.1 * 2**20


def test_searches_build_no_more_than_they_count():
    # 2^15 x 30 x 1 search cells (7.9 MB); one gather over every x would take
    # 15 times that
    sc = Scenario((2,) * 15, (1,) * 30)
    box = maximally_mixed_box(sc)
    functional = BellFunctional(sc, np.zeros(sc.shape))
    assert box.ns_report.passed
    for call in (lambda: fod_exact(box), lambda: bell_det_max(functional)):
        _, peak = _traced(call)
        assert peak <= 24 * 2**20


def test_wide_tables_are_counted_before_they_are_built(monkeypatch):
    # 1000 one-outcome inputs add width but no assignment: the searches build
    # only their 2^19 x 1 x 1 cells (4.2 MB), while cf's rows of Alice's table,
    # one-hot factor and pricing would take 2^19 x 3058 cells, refused before
    # any table is listed
    sc = Scenario((1,) * 1000 + (2,) * 19, (1,))
    box = maximally_mixed_box(sc)
    functional = BellFunctional(sc, np.zeros(sc.shape))
    assert box.ns_report.passed
    for call in (lambda: fod_exact(box), lambda: bell_det_max(functional)):
        _, peak = _traced(call)
        assert peak <= 16 * 2**20

    def unlisted(outcomes):
        raise AssertionError("a table was listed")

    monkeypatch.setattr(boxes, "assignments", unlisted)
    with pytest.raises(ValueError, match="^enumeration needs 1603272704 table cells, budget is 1000000$"):
        cf_exact(box)


def test_cf_is_refused_before_its_lp(monkeypatch):
    # cf builds the simplex's 7 x 8 table for its 6 cell rows and the sum row,
    # more than the 2 x (1 + 2 + 3) cells of Alice's table, one-hot and
    # pricing rows, which cover the 2 x 3 of its dual certificate's search:
    # cf is refused before its LP, never after it
    box = maximally_mixed_box(Scenario((2,), (1, 1, 1)))
    monkeypatch.setattr(boxes, "ENUMERATION_BUDGET", 56)
    assert cf_exact(box)[0] == 1.0

    def unreached(lp):
        raise AssertionError("the LP was solved")

    monkeypatch.setattr(decomp, "simplex_solve", unreached)
    for budget in (55, 6):
        monkeypatch.setattr(boxes, "ENUMERATION_BUDGET", budget)
        with pytest.raises(ValueError, match=f"^enumeration needs 56 table cells, budget is {budget}$"):
            cf_exact(box)


def test_cf_pr_box():
    total, decomp = cf_exact(pr_box())
    assert total == pytest.approx(0.0, abs=1e-9)
    assert decomp.residual is not None
    np.testing.assert_allclose(decomp.residual.p, pr_box().p, atol=1e-9)
    assert decomp.to_dict()["terms"] == []


def test_cf_deterministic_box():
    strat = DeterministicStrategy((0, 1), (1, 0))
    total, decomp = cf_exact(deterministic_box(strat, chsh_scenario()))
    assert total == pytest.approx(1.0, abs=1e-9)
    assert decomp.residual is None
    terms = decomp.to_dict()["terms"]
    assert len(terms) == 1
    assert terms[0]["alice"] == [0, 1] and terms[0]["bob"] == [1, 0]
    assert terms[0]["weight"] == pytest.approx(1.0)


def test_cf_rejects_signalling():
    with pytest.raises(ValueError, match="no-signalling"):
        cf_exact(_signalling_box())


def test_cf_local_box_is_fully_classical():
    rng = np.random.default_rng(11)
    w = rng.random(16)
    w /= w.sum()
    total, decomp = cf_exact(local_box(chsh_scenario(), w))
    assert total == pytest.approx(1.0, abs=1e-9)
    assert decomp.residual is None


def test_cf_dominates_known_local_weight():
    rng = np.random.default_rng(5)
    w = rng.random(16)
    w /= w.sum()
    sc = chsh_scenario()
    mixed = Box(sc, 0.7 * local_box(sc, w).p + 0.3 * pr_box().p)
    total, _ = cf_exact(mixed)
    assert total >= 0.7 - 1e-7
    assert total <= 1.0 + 1e-9


def test_cf_isotropic_closed_form():
    # t PR + (1-t) uniform has classical fraction min(1, 2 - 2t)
    sc = chsh_scenario()
    for t in (0.0, 0.3, 0.5, 0.6, 0.8, 1.0):
        box = Box(sc, t * pr_box().p + (1.0 - t) * maximally_mixed_box(sc).p)
        total, _ = cf_exact(box)
        assert total == pytest.approx(min(1.0, 2.0 - 2.0 * t), abs=1e-9)


def _single_bob_input_ns_box(seed: int) -> Box:
    """p(a,b|x) = q(b) p(a|b,x): Bob's marginal is x-independent by design."""
    sc = Scenario((2, 2), (2,))
    rng = np.random.default_rng(seed)
    q = rng.dirichlet(np.ones(2))
    t = np.zeros(sc.shape)
    for x in range(2):
        for b in range(2):
            cond = rng.dirichlet(np.ones(2))
            for a in range(2):
                t[x, 0, a, b] = q[b] * cond[a]
    return Box(sc, t)


def _cf_by_vertex_enumeration(box: Box) -> float:
    """Independent geometric oracle: walk every basic point of the feasible
    region {c >= 0, sum_i c_i D_i <= P, sum c_i <= 1} and take the best."""
    sc = box.scenario
    strategies = enumerate_deterministic(sc)
    n = len(strategies)
    rows, rhs = [], []
    for x in range(sc.inputs_a):
        for y in range(sc.inputs_b):
            for a in range(sc.outcomes_a[x]):
                for b in range(sc.outcomes_b[y]):
                    rows.append(
                        [1.0 if (s.alice[x] == a and s.bob[y] == b) else 0.0 for s in strategies]
                    )
                    rhs.append(float(box.p[x, y, a, b]))
    rows.append([1.0] * n)
    rhs.append(1.0)
    mat = np.array(rows)
    vec = np.array(rhs)
    constraints = [(mat[i], vec[i]) for i in range(len(vec))]
    constraints += [(-np.eye(n)[j], 0.0) for j in range(n)]
    best = -1.0
    for subset in itertools.combinations(range(len(constraints)), n):
        a_sub = np.array([constraints[i][0] for i in subset])
        b_sub = np.array([constraints[i][1] for i in subset])
        try:
            point = np.linalg.solve(a_sub, b_sub)
        except np.linalg.LinAlgError:
            continue
        if (mat @ point <= vec + 1e-9).all() and (point >= -1e-9).all():
            best = max(best, float(point.sum()))
    return best


def test_cf_single_bob_input_boxes_are_local():
    # with a single input on one side every no-signalling box is classical
    for seed in (0, 1, 2):
        total, decomp = cf_exact(_single_bob_input_ns_box(seed))
        assert total == pytest.approx(1.0, abs=1e-9)
        assert decomp.residual is None


def test_cf_matches_vertex_enumeration():
    box = _single_bob_input_ns_box(7)
    total, _ = cf_exact(box)
    assert total == pytest.approx(_cf_by_vertex_enumeration(box), abs=1e-9)


def test_cf_random_ns_boxes_match_scipy():
    sc = chsh_scenario()
    strategies = enumerate_deterministic(sc)
    for seed in range(5):
        rng = np.random.default_rng(seed)
        w = rng.random(16)
        w /= w.sum()
        t = float(rng.uniform(0.2, 0.9))
        box = Box(sc, t * pr_box().p + (1.0 - t) * local_box(sc, w).p)
        total, _ = cf_exact(box)
        rows = [
            [1.0 if (s.alice[x] == a and s.bob[y] == b) else 0.0 for s in strategies]
            for x, y, a, b in itertools.product(range(2), repeat=4)
        ]
        rhs = [float(box.p[x, y, a, b]) for x, y, a, b in itertools.product(range(2), repeat=4)]
        rows.append([1.0] * 16)
        rhs.append(1.0)
        ref = linprog(
            -np.ones(16), A_ub=np.array(rows), b_ub=np.array(rhs), bounds=[(0, None)] * 16,
            method="highs",
        )
        assert ref.status == 0
        assert total == pytest.approx(-ref.fun, abs=1e-7)


def test_bell_bound_from_fod():
    assert bell_bound_from_fod(4.0, 2.0, 0.25) == pytest.approx(3.5)
    assert bell_bound_from_fod(4.0, 2.0, 0.0) == pytest.approx(4.0)
    assert bell_bound_from_fod(4.0, 2.0, 1.0) == pytest.approx(2.0)
    with pytest.raises(ValueError, match="fraction"):
        bell_bound_from_fod(4.0, 2.0, 1.5)
    with pytest.raises(ValueError, match="fraction"):
        bell_bound_from_fod(4.0, 2.0, -0.1)
    with pytest.raises(ValueError, match="exceed"):
        bell_bound_from_fod(2.0, 4.0, 0.5)
    for bad in ((math.nan, 2.0, 0.5), (math.inf, 2.0, 0.5), (4.0, -math.inf, 0.5), (4.0, 2.0, math.nan)):
        with pytest.raises(ValueError, match="finite"):
            bell_bound_from_fod(*bad)


@pytest.mark.parametrize("n, visibility, pivots", [(4, 0.9, 22), (5, 0.86, 102), (6, 0.95, 32)])
def test_cf_simplex_pivot_counts_are_pinned(monkeypatch, n, visibility, pivots):
    # The largest-reduced-cost rule, its tie window and its Bland fallback fix
    # the pivot sequence; any change to the entering or leaving choice, or to
    # the tableau arithmetic, moves these counts. Bland's rule alone took 38,
    # 453 and 138.
    solved = []

    def recording(lp, *args, **kwargs):
        result = simplex_solve(lp, *args, **kwargs)
        solved.append(((len(lp.b), len(lp.c)), result.iterations))
        return result

    monkeypatch.setattr(decomp, "simplex_solve", recording)
    cf_exact(chained_singlet(n, visibility))
    rows = 4 * n * n + 1
    assert solved == [((rows, 4**n), pivots)]


def _fod_by_strict_loop(box: Box):
    """The fraction of determinism by walking every strategy, keeping the
    first one whose smallest matched cell is strictly larger."""
    best_value, best = -1.0, None
    for strat in enumerate_deterministic(box.scenario):
        worst = min(
            float(box.p[x, y, a, b])
            for x, a in enumerate(strat.alice)
            for y, b in enumerate(strat.bob)
        )
        if worst > best_value:
            best_value, best = worst, strat
    return best_value, best


def _pr_like(sc: Scenario) -> np.ndarray:
    """a xor b = [x = y = 1] on outcomes {0, 1}, uniform otherwise: no-signalling
    on any scenario with at least two outcomes per input."""
    t = np.zeros(sc.shape)
    for x, y, a, b in itertools.product(range(sc.inputs_a), range(sc.inputs_b), range(2), range(2)):
        if (a ^ b) == int(x == 1 and y == 1):
            t[x, y, a, b] = 0.5
    return t


def _ns_box(sc: Scenario, kind: str, rng) -> Box:
    strategies = enumerate_deterministic(sc)
    if kind == "mixed":
        return maximally_mixed_box(sc)
    if kind == "deterministic":
        return deterministic_box(strategies[rng.integers(len(strategies))], sc)
    w = np.zeros(len(strategies))
    if kind == "ties":
        w[rng.choice(len(w), size=min(len(w), 3), replace=False)] = 1.0
    else:
        w = rng.dirichlet(np.full(len(w), 0.3))
    local = local_box(sc, w / w.sum())
    if kind == "pr":
        t = rng.uniform(0.1, 0.9)
        return Box(sc, t * _pr_like(sc) + (1.0 - t) * local.p)
    return local


ns_boxes = st.builds(
    _ns_box,
    st.builds(
        Scenario,
        st.lists(st.integers(2, 3), min_size=1, max_size=3).map(tuple),
        st.lists(st.integers(2, 3), min_size=1, max_size=3).map(tuple),
    ),
    st.sampled_from(["mixed", "deterministic", "ties", "local", "pr"]),
    st.integers(0, 2**32 - 1).map(np.random.default_rng),
)


@given(ns_boxes)
def test_fod_matches_strict_strategy_loop(box):
    assert fod_exact(box) == _fod_by_strict_loop(box)


def _highs_cf(box: Box, **options) -> float:
    """The classical fraction by HiGHS on the LP over every enumerated strategy,
    with `options` passed to HiGHS."""
    strategies = enumerate_deterministic(box.scenario)
    columns = np.array([deterministic_box(s, box.scenario).p.ravel() for s in strategies]).T
    ref = linprog(
        -np.ones(len(strategies)),
        A_ub=np.vstack([columns, np.ones(len(strategies))]),
        b_ub=np.append(np.clip(box.p.ravel(), 0.0, None), 1.0),
        bounds=(0, None),
        method="highs",
        options=options or None,
    )
    assert ref.status == 0
    return -ref.fun


@given(ns_boxes)
def test_cf_matches_highs_and_reconstructs(box):
    sc = box.scenario
    strategies = enumerate_deterministic(sc)
    total, decomp = cf_exact(box)
    assert total == pytest.approx(_highs_cf(box), abs=1e-7)
    order = [strategies.index(s) for s in decomp.strategies]
    assert order == sorted(order) and (decomp.coefficients > 0.0).all()
    terms = zip(decomp.strategies, decomp.coefficients)
    rebuilt = sum(w * deterministic_box(s, sc).p for s, w in terms)
    if decomp.residual is not None:
        rebuilt = rebuilt + (1.0 - total) * decomp.residual.p
    np.testing.assert_allclose(rebuilt, box.p, rtol=0.0, atol=1e-8)


def _cf_solved_by(solver, box: Box):
    """cf_exact(box) with `solver` in place of decomp.simplex_solve:
    (value, decomposition, pivots of its one LP solve)."""
    pivots = []

    def recording(lp):
        result = solver(lp)
        pivots.append(result.iterations)
        return result

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(decomp, "simplex_solve", recording)
        total, found = cf_exact(box)
    (count,) = pivots
    return total, found, count


def _assert_cf_agrees_with_dense_oracle(box: Box, weight_tol: float, residual_tol: float):
    """Same pivot count and the same strategies in the same order as with
    the dense oracle; value and weights within weight_tol, residual entries
    within residual_tol. Returns the kernel's value."""
    total, found, pivots = _cf_solved_by(simplex_solve, box)
    dense_total, dense, dense_pivots = _cf_solved_by(_dense_simplex, box)
    assert pivots == dense_pivots
    assert found.strategies == dense.strategies
    assert abs(total - dense_total) <= weight_tol
    np.testing.assert_allclose(found.coefficients, dense.coefficients, rtol=0.0, atol=weight_tol)
    assert (found.residual is None) == (dense.residual is None)
    if found.residual is not None:
        np.testing.assert_allclose(found.residual.p, dense.residual.p, rtol=0.0, atol=residual_tol)
    return total


# up to 4x4 inputs with two or three outcomes each, at most 576 strategies
# so that the dense oracle stays fast
wide_scenarios = st.builds(
    Scenario,
    st.lists(st.integers(2, 3), min_size=1, max_size=4).map(tuple),
    st.lists(st.integers(2, 3), min_size=1, max_size=4).map(tuple),
).filter(lambda sc: math.prod(sc.outcomes_a + sc.outcomes_b) <= 576)


@given(
    st.builds(
        _ns_box,
        wide_scenarios,
        st.sampled_from(["deterministic", "ties", "local", "pr"]),
        st.integers(0, 2**32 - 1).map(np.random.default_rng),
    )
)
def test_cf_matches_dense_oracle_on_ns_boxes(box):
    # Both solvers sit up to about 1e-13 from the exact vertex on boxes with
    # many tiny weights, so they are held to each other at 1e-12.
    total = _assert_cf_agrees_with_dense_oracle(box, weight_tol=1e-12, residual_tol=1e-12)
    assert total == pytest.approx(_highs_cf(box, **HIGHS_TIGHT), abs=1e-9)


@given(wide_scenarios)
def test_cf_of_maximally_mixed_boxes_is_one(sc):
    # The uniform box is the uniform mixture of every deterministic box. Its
    # LP is the most degenerate one here: every cell row binds at the
    # optimum. Bland's rule alone stalled there for up to about 2,300 pivots,
    # and its basic values drifted by about 1e-12, the width of the
    # ratio-test tie window, so the kernel and the dense oracle could take
    # different pivot paths. The largest reduced cost takes at most 127
    # pivots on the 550 scenarios drawn here, the same ones in both solvers.
    box = maximally_mixed_box(sc)
    total = _assert_cf_agrees_with_dense_oracle(box, weight_tol=1e-12, residual_tol=1e-12)
    assert total == pytest.approx(1.0, abs=1e-9)
    _, found = cf_exact(box)
    assert found.residual is None and (found.coefficients > 0.0).all()


@pytest.mark.parametrize("path", sorted(GOLDEN_INPUTS.glob("*_box.json")), ids=lambda p: p.stem)
def test_cf_goldens_agree_with_dense_oracle(path):
    box = Box.from_dict(json.loads(path.read_text()))
    _assert_cf_agrees_with_dense_oracle(box, weight_tol=1e-15, residual_tol=1e-14)


def test_cf_residual_of_a_box_near_a_facet_is_a_box(tmp_path):
    from nonlocality.cli import main

    # 1 / (1 - cf) = 1e8 once magnified the rounding of the leftover block
    # sums past the box check's 1e-9
    out = tmp_path / "report.json"
    assert main(["box", str(NEAR_FACET_BOX), "--ops", "ns,fod,cf", "--out", str(out)]) == 0
    cf = json.loads(out.read_text())["rows"][-1]["computed"]
    box = Box.from_dict(json.loads(NEAR_FACET_BOX.read_text()))
    assert cf == pytest.approx(1.0 - 1e-8, abs=1e-9)
    assert cf == pytest.approx(_highs_cf(box, **HIGHS_TIGHT), abs=1e-9)
    total, found = cf_exact(box)
    assert total == cf and found.residual is not None


def test_certify_reconstruction_rejects_perturbed_weights():
    sc = chsh_scenario()
    strategies = enumerate_deterministic(sc)
    alice = np.array([s.alice for s in strategies])
    bob = np.array([s.bob for s in strategies])
    w = np.random.default_rng(3).dirichlet(np.ones(len(alice)))
    p = local_box(sc, w).p
    cells = _cells(alice, bob)
    assert 0.0 < _certify_reconstruction(_leftover(p, cells, w), 1.0, None) <= RECONSTRUCTION_TOL
    with pytest.raises(RuntimeError, match="does not reconstruct"):
        _certify_reconstruction(_leftover(p, cells, w * (1.0 + 1e-6)), 1.0, None)
    # half the strategies, with the other half's mixture as the residual box
    kept = _cells(alice[:8], bob[:8])
    total = float(w[:8].sum())
    residual = local_box(sc, np.append(np.zeros(8), w[8:]) / (1.0 - total)).p
    leftover = _leftover(p, kept, w[:8])
    assert _certify_reconstruction(leftover, total, residual) > 0.0
    with pytest.raises(RuntimeError, match="does not reconstruct"):
        _certify_reconstruction(leftover, total, np.roll(residual, 1, axis=3))
    with pytest.raises(RuntimeError, match="does not reconstruct"):
        _certify_reconstruction(leftover, total, np.where(residual > 0.0, math.nan, 0.0))


def _lp_by_input_pairs(box: Box):
    """The classical-fraction LP's (a, b) assembled one input pair at a time
    by comparing each strategy's outputs with every outcome."""
    sc = box.scenario
    strategies = enumerate_deterministic(sc)
    alice = np.array([s.alice for s in strategies])
    bob = np.array([s.bob for s in strategies])
    rows, cells = [], []
    for x, ka in enumerate(sc.outcomes_a):
        hit_a = alice[:, x] == np.arange(ka)[:, None]
        for y, kb in enumerate(sc.outcomes_b):
            hit_b = bob[:, y] == np.arange(kb)[:, None]
            rows.append((hit_a[:, None, :] & hit_b[None, :, :]).reshape(ka * kb, len(strategies)))
            cells.append(box.block(x, y).ravel())
    rows.append(np.ones((1, len(strategies))))
    cells = np.concatenate(cells)
    return np.vstack(rows), np.append(np.where(cells > 0.0, cells, 0.0), 1.0)


@given(ns_boxes)
def test_cf_lp_matches_per_pair_assembly(box):
    solved = []

    def recording(lp):
        solved.append(lp)
        return simplex_solve(lp)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(decomp, "simplex_solve", recording)
        cf_exact(box)
    a, b = _lp_by_input_pairs(box)
    (lp,) = solved
    assert np.array_equal(lp.a, a) and np.array_equal(lp.b, b)
    assert np.array_equal(lp.c, np.ones(len(a[0])))
