"""Simplex solver unit cases, LP cross-checks, and box decompositions."""

import itertools
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.optimize import linprog

from nonlocality.boxes import (
    Box,
    DeterministicStrategy,
    Scenario,
    _cells,
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
    LinearProgram,
    SimplexResult,
    UnboundedError,
    _certify_basis,
    _certify_reconstruction,
    _leftover,
    bell_bound_from_fod,
    cf_exact,
    fod_exact,
    simplex_solve,
)

GOLDEN_INPUTS = Path(__file__).parent / "golden" / "inputs"
# the CHSH facet box (1 - t) L + t PR at t = 1e-8, with L the uniform mixture
# of the eight deterministic boxes of CHSH value 2; kept apart from the golden
# inputs because its residual magnifies rounding by 1 / t
NEAR_FACET_BOX = Path(__file__).parent / "inputs" / "near_facet_box.json"


def test_lp_validation():
    with pytest.raises(ValueError, match="dimensions"):
        LinearProgram(c=np.ones(2), a=np.eye(3), b=np.ones(3))
    with pytest.raises(ValueError, match="shapes"):
        LinearProgram(c=np.ones(2), a=np.ones(4), b=np.ones(2))
    for bad in (-1e-300, -1.0, math.nan):
        with pytest.raises(ValueError, match="nonnegative"):
            LinearProgram(c=np.ones(2), a=np.eye(2), b=np.array([1.0, bad]))
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="finite"):
            LinearProgram(c=np.array([bad, 1.0]), a=np.eye(2), b=np.ones(2))
        with pytest.raises(ValueError, match="finite"):
            LinearProgram(c=np.ones(2), a=np.array([[1.0, bad], [0.0, 1.0]]), b=np.ones(2))
    with pytest.raises(ValueError, match="finite"):
        LinearProgram(c=np.ones(2), a=np.eye(2), b=np.array([1.0, math.inf]))


def test_simplex_box_constraints():
    res = simplex_solve(LinearProgram(c=np.ones(2), a=np.eye(2), b=np.array([1.0, 2.0])))
    assert res.value == pytest.approx(3.0)
    np.testing.assert_allclose(res.x, [1.0, 2.0])


def test_simplex_negative_rhs_normalization():
    # x1 >= 1 written as -x1 <= -1 has no slack basis: rejected, not flipped
    with pytest.raises(ValueError, match="nonnegative"):
        LinearProgram(c=np.array([-1.0]), a=np.array([[-1.0]]), b=np.array([-1.0]))


def test_simplex_unbounded():
    with pytest.raises(UnboundedError):
        simplex_solve(
            LinearProgram(c=np.array([1.0, 0.0]), a=np.array([[0.0, 1.0]]), b=np.array([1.0]))
        )


def test_simplex_beale_terminates():
    # classic degenerate instance that cycles without an anti-cycling rule
    res = simplex_solve(
        LinearProgram(
            c=np.array([0.75, -150.0, 0.02, -6.0]),
            a=np.array(
                [
                    [0.25, -60.0, -1.0 / 25.0, 9.0],
                    [0.5, -90.0, -1.0 / 50.0, 3.0],
                    [0.0, 0.0, 1.0, 0.0],
                ]
            ),
            b=np.array([0.0, 0.0, 1.0]),
        )
    )
    assert res.value == pytest.approx(0.05, abs=1e-12)
    np.testing.assert_allclose(res.x, [0.04, 0.0, 1.0, 0.0], atol=1e-12)


def _klee_minty(n: int) -> LinearProgram:
    """The Klee-Minty cube: max sum_j 2^(n-j) x_j subject to
    sum_{j<i} 2^(i-j+1) x_j + x_i <= 5^i, with b scaled by 5^-12 to stay at
    most 1."""
    i = np.arange(1, n + 1)
    below = i[:, None] > i[None, :]
    a = np.where(below, 2.0 ** (i[:, None] - i[None, :] + 1), 0.0) + np.eye(n)
    return LinearProgram(c=2.0 ** (n - i), a=a, b=5.0**i / 5.0**12)


def test_simplex_budget_stops_klee_minty():
    # Bland's rule takes 3, 5, 9, ..., 177, 287 pivots for n = 2 to 11; at
    # n = 12 it runs past the budget of 10 * (2 rows + columns) = 360 pivots
    assert simplex_solve(_klee_minty(11)).iterations == 287
    with pytest.raises(RuntimeError, match="budget 360 exhausted"):
        simplex_solve(_klee_minty(12))


def test_simplex_certifies_the_unscaled_klee_minty_cube():
    # max sum_j 10^(n-j) x_j subject to 2 sum_{j<i} 10^(i-j) x_j + x_i <= 100^(i-1):
    # b reaches 1e20, and the last row's residual is about 3.3e5 in absolute
    # terms but 3.3e-15 relative to b, within LP_TOL once scaled by max(1, |b_i|)
    n = 11
    i = np.arange(1, n + 1)
    below = i[:, None] > i[None, :]
    a = np.where(below, 2.0 * 10.0 ** (i[:, None] - i[None, :]), 0.0) + np.eye(n)
    res = simplex_solve(LinearProgram(c=10.0 ** (n - i), a=a, b=100.0 ** (i - 1)))
    assert res.value == pytest.approx(100.0**10, rel=1e-12)
    np.testing.assert_array_equal(res.x[:-1], 0.0)


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
        lp = LinearProgram(c=c, a=a, b=b)
        mine = simplex_solve(lp)
        ref = linprog(-c, A_ub=a, b_ub=b, bounds=[(0, None)] * n, method="highs")
        assert ref.status == 0
        assert mine.value == pytest.approx(-ref.fun, abs=1e-7)
        assert (mine.x >= 0.0).all() and (a @ mine.x <= b + 1e-9).all()
        dense = _dense_simplex(lp)
        assert mine.iterations == dense.iterations
        np.testing.assert_allclose(mine.x, dense.x, rtol=0.0, atol=1e-12)


def _dense_simplex(lp) -> SimplexResult:
    """The dense oracle behind simplex_solve's interface: Bland's rule on the
    tableau [a | I] from the slack basis, with the reduced costs carried as
    one more row. Each Gauss-Jordan step updates one touched row per Python
    iteration."""
    m, n = lp.a.shape
    t = np.block([[lp.a, np.eye(m)], [lp.c, np.zeros(m)]])
    rhs = np.append(lp.b, 0.0)
    basis = np.arange(n, n + m)
    iterations = 0
    while True:
        improving = t[m] > LP_TOL
        if not improving.any():
            break
        entering = int(np.argmax(improving))
        col = t[:m, entering]
        rows = np.flatnonzero(col > LP_TOL)
        if not rows.size:
            raise UnboundedError("improving direction has no blocking constraint")
        ratios = rhs[rows] / col[rows]
        tied = rows[ratios <= ratios.min() + 1e-12]
        row = int(tied[np.argmin(basis[tied])])
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
    return SimplexResult(value=float(lp.c @ x), x=x, iterations=iterations)


def _random_lp(m: int, n: int, bounded: bool, coarse: bool, rng) -> LinearProgram:
    """m mixed-sign <= rows, about 30% of them with a zero right-hand side,
    plus a row of ones when bounded; coarse entries are multiples of 1/4, so
    ratio ties and exact cancellations to zero are common."""
    a = rng.integers(-4, 5, (m, n)) / 4.0 if coarse else rng.uniform(-1.0, 1.0, (m, n))
    b = np.where(rng.random(m) < 0.3, 0.0, rng.uniform(0.5, 1.5, m))
    if bounded:
        a, b = np.vstack([a, np.ones(n)]), np.append(b, 2.0)
    return LinearProgram(c=rng.uniform(-0.5, 1.0, n), a=a, b=b)


random_lps = st.builds(
    _random_lp,
    st.integers(1, 8),
    st.integers(1, 10),
    st.booleans(),
    st.booleans(),
    st.integers(0, 2**32 - 1).map(np.random.default_rng),
)


@given(random_lps)
def test_simplex_matches_dense_oracle(lp):
    ref = linprog(-lp.c, A_ub=lp.a, b_ub=lp.b, bounds=(0, None), method="highs")
    try:
        dense = _dense_simplex(lp)
    except UnboundedError:
        with pytest.raises(UnboundedError):
            simplex_solve(lp)
        # x = 0 is feasible, so HiGHS calling the LP unbounded or infeasible
        # (its presolve does not always tell them apart) means unbounded
        assert ref.status in (2, 3)
        return
    mine = simplex_solve(lp)
    assert mine.iterations == dense.iterations
    # without a bounding row coordinates reach the thousands: 1e-12 relative
    np.testing.assert_allclose(mine.x, dense.x, rtol=1e-12, atol=1e-12)
    assert ref.status == 0 and mine.value == pytest.approx(-ref.fun, abs=1e-7)


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
    # 10 binary inputs per side: 2^20 strategies exceed the 10^6 budget
    box = maximally_mixed_box(Scenario((2,) * 10, (2,) * 10))
    with pytest.raises(ValueError, match="budget"):
        fod_exact(box)
    with pytest.raises(ValueError, match="budget"):
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


def _chained_singlet(n: int, visibility: float) -> Box:
    """Singlet at the chained-Bell angles x pi/n and (y + 1/2) pi/n, mixed
    with white noise; n binary inputs per side."""
    theta = np.arange(n) * np.pi / n
    phi = (np.arange(n) + 0.5) * np.pi / n
    corr = -np.cos(theta[:, None] - phi[None, :])
    parity = np.array([[1.0, -1.0], [-1.0, 1.0]])
    p = visibility * (1.0 + parity * corr[:, :, None, None]) / 4.0 + (1.0 - visibility) / 4.0
    return Box(Scenario((2,) * n, (2,) * n), p)


@pytest.mark.parametrize("n, visibility, pivots", [(4, 0.9, 38), (5, 0.86, 453)])
def test_cf_simplex_pivot_counts_are_pinned(monkeypatch, n, visibility, pivots):
    # Bland's rule fixes the pivot sequence; any change to the entering or
    # leaving choice, or to the tableau arithmetic, moves these counts.
    from nonlocality import decomp

    solved = []

    def recording(lp, *args, **kwargs):
        result = simplex_solve(lp, *args, **kwargs)
        solved.append((lp.a.shape, result.iterations))
        return result

    monkeypatch.setattr(decomp, "simplex_solve", recording)
    cf_exact(_chained_singlet(n, visibility))
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


# HiGHS's default feasibility tolerance, 1e-7, can round a classical fraction
# within about 1e-7 of 1 up to 1; comparisons at 1e-9 run HiGHS at these.
HIGHS_TIGHT = {"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10}


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
    from nonlocality import decomp

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
).filter(lambda sc: sc.strategy_count() <= 576)


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
    # LP is the most degenerate one here: Bland's rule stalls for up to about
    # 2,300 pivots, and the basic values drift by about 1e-12, the width of
    # the ratio-test tie window. The kernel and the dense oracle can then
    # break a tie differently and take other pivot paths to the same value,
    # so this test checks the value; cf_exact's own certificates check the
    # final basis and the reconstruction.
    total, found = cf_exact(maximally_mixed_box(sc))
    assert total == pytest.approx(1.0, abs=1e-9)
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


def test_certify_basis_accepts_the_final_basis_only():
    # max x1 + x2 with x1 <= 1, x2 <= 2: the optimum has both structurals basic
    a, b, c = np.eye(2), np.array([1.0, 2.0]), np.ones(2)
    assert _certify_basis(a, b, c, np.array([0, 1]), np.array([1.0, 2.0])) == LP_TOL
    # the slack basis is feasible but both structurals still improve
    with pytest.raises(RuntimeError, match="reduced costs are not optimal"):
        _certify_basis(a, b, c, np.array([2, 3]), b.copy())
    # one structural basic: the other still prices in
    with pytest.raises(RuntimeError, match="reduced costs are not optimal"):
        _certify_basis(a, b, c, np.array([0, 3]), b.copy())
    # an optimal basis whose basic values are off by more than LP_TOL
    with pytest.raises(RuntimeError, match="reproduce the right-hand side"):
        _certify_basis(a, b, c, np.array([0, 1]), np.array([1.0, 2.0 + 1e-8]))
    with pytest.raises(RuntimeError, match="reproduce the right-hand side"):
        _certify_basis(a, b, c, np.array([0, 1]), np.array([1.0, math.nan]))
    # the residual is scaled by max(1, |b_i|): 1e-8 off a b_i of 100 passes
    margin = _certify_basis(a, 100.0 * b, c, np.array([0, 1]), np.array([100.0, 200.0 + 1e-8]))
    assert 0.0 < margin < LP_TOL
    # dual feasible and reproducing b, but x_1 = -1: not a feasible basis
    a, b = np.array([[1.0, 1.0], [1.0, 0.0]]), np.array([1.0, 2.0])
    with pytest.raises(RuntimeError, match="negative basic value"):
        _certify_basis(a, b, c, np.array([0, 1]), np.array([2.0, -1.0]))
    # -LP_TOL is not above -LP_TOL
    with pytest.raises(RuntimeError, match="negative basic value"):
        _certify_basis(a, b + [1.0 - LP_TOL, 0.0], c, np.array([0, 1]), np.array([2.0, -LP_TOL]))


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
    from nonlocality import decomp

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
