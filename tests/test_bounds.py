"""Truncation-scale optimum, closeness floors, the determinism-floor pipeline,
and the binary-Bob worst-case constants."""

import json
import math
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from nonlocality import bounds, decomp
from nonlocality.boxes import Box, DeterministicStrategy, Scenario, quantum_box, tsirelson_realization
from nonlocality.bounds import (
    _confusing_outcomes,
    binary_bob_bounds,
    close_pair,
    confusing_outcome,
    epsilon_from_average_distance,
    fod_floor_pipeline,
    mu_objective,
    optimize_mu,
    universal_fod_bound,
)
from nonlocality.cli import main
from nonlocality.decomp import bell_bound_from_fod, cf_exact, fod_exact
from nonlocality.linalg import partial_trace, tensor, trace_norm
from nonlocality.records import InequalityRecord
from nonlocality.rti import embed_subnormalized
from nonlocality.states import (
    Ensemble,
    Povm,
    SubnormalizedState,
    _check_state_matrix,
    basis_state,
    ensemble_average,
    maximally_mixed,
    pure_state,
    sample_density,
    sample_povm,
    steer,
    trace_distance,
    xz_spin_povm,
)
from test_pipeline_oracle import assert_matches_oracle, realization

MU_STAR = (5.0 + math.sqrt(17.0)) / 2.0
F_STAR = 0.11340054556247131
THEOREM_222 = 0.0035437670488272285


def two_by_n_fods(n: int, seed: int) -> tuple:
    """A seeded qubit realization with binary Bob and n Alice inputs: its
    pipeline trace, and fod of its box with the parties swapped, searched
    over Bob's 4 assignments, then in the paper's orientation up to n = 8."""
    rng = np.random.default_rng((2, n, seed))
    rho = sample_density(4, 4, rng)
    bob = [sample_povm(2, 2, rng) for _ in range(2)]
    alice = [sample_povm(2, 2, rng) for _ in range(n)]
    box = quantum_box(rho, alice, bob)
    swapped = Box(Scenario(box.scenario.outcomes_b, box.scenario.outcomes_a), box.p.transpose(1, 0, 3, 2))
    fods = (fod_exact(swapped)[0], *([fod_exact(box)[0]] if n <= 8 else []))
    return fod_floor_pipeline(rho, bob[0], bob[1], alice), fods


@pytest.mark.parametrize("n", [2, 8, 32, 128])
def test_two_by_n_realizations_keep_their_determinism(n):
    # the paper's 2 x n claim; no listing of the n-input party reaches n = 32
    floor = binary_bob_bounds().fod_bound
    for seed in range(3):
        trace, fods = two_by_n_fods(n, seed)
        assert fods[0] >= floor
        assert trace.passed and trace.theorem_form <= trace.c <= fods[0]
        # fod is one cell of the box, whichever party is searched
        assert [fod.hex() for fod in fods] == [fods[0].hex()] * (1 + (n <= 8))


def test_mu_objective_values():
    assert mu_objective(2.0) == 0.0
    assert mu_objective(3.0) == pytest.approx(1.0 / 12.0)
    for bad in (1.0, 0.5, -3.0):
        with pytest.raises(ValueError):
            mu_objective(bad)


def test_optimize_mu_frozen():
    opt = optimize_mu()
    assert opt.mu == MU_STAR
    assert opt.mu == pytest.approx(4.561552812808831, abs=1e-12)
    assert opt.value == pytest.approx(F_STAR, abs=1e-12)
    assert opt.to_dict() == {"mu": opt.mu, "value": opt.value}


def certify_mu0(mu: float, value: float) -> None:
    """Search-free oracle for the truncation optimum: exact rational values
    of the objective fall off on both sides of mu, a float grid over (2, 50]
    peaks within one step of it, and mu pairs with binary_bob's _P_SAME as
    the two roots of mu^2 - 5 mu + 2."""
    exact = Fraction(mu)
    peak = mu_objective(exact)
    for step in (Fraction(1, 10**9), Fraction(1, 10**14)):
        assert mu_objective(exact - step) < peak
        assert mu_objective(exact + step) < peak
    grid = 2.0 + 1e-3 * np.arange(1, 48_001)
    values = np.array([mu_objective(g) for g in grid.tolist()])
    assert values.max() <= value
    assert abs(grid[np.argmax(values)] - mu) <= 1e-3
    assert mu + bounds._P_SAME == 5.0
    assert mu * bounds._P_SAME == 2.0


def test_optimize_mu_is_the_objective_maximum():
    opt = optimize_mu()
    certify_mu0(opt.mu, opt.value)


def test_epsilon_from_average_distance():
    assert epsilon_from_average_distance(0.0, 1, 1) == pytest.approx(1.0)
    assert epsilon_from_average_distance(0.0, 2, 2) == pytest.approx(0.25)
    assert epsilon_from_average_distance(1.0, 1, 1) == pytest.approx(0.25)
    with pytest.raises(ValueError):
        epsilon_from_average_distance(2.0, 1, 1)
    with pytest.raises(ValueError):
        epsilon_from_average_distance(-0.1, 1, 1)
    with pytest.raises(ValueError):
        epsilon_from_average_distance(0.5, 0, 1)


def test_universal_fod_bound_frozen():
    bound = universal_fod_bound(2, 2, 2)
    assert bound.theorem_form == pytest.approx(THEOREM_222, rel=1e-12)
    assert bound.proof_form == pytest.approx(THEOREM_222, rel=1e-12)  # l1 = l2
    assert universal_fod_bound(1, 1, 1).theorem_form == pytest.approx(F_STAR / 2.0)
    with pytest.raises(ValueError):
        universal_fod_bound(0, 2, 2)
    assert universal_fod_bound(np.int64(2), 2, 2).theorem_form == bound.theorem_form
    for counts in ((2.5, 2, 2), (2, 2.0, 2), (2, 2, "2"), (True, 2, 2)):
        with pytest.raises(ValueError, match="integers"):
            universal_fod_bound(*counts)


def test_proof_form_never_exceeds_theorem_form():
    for k in (1, 2, 3):
        for l1 in (1, 2, 3, 4):
            for l2 in (1, 2, 3, 4):
                bound = universal_fod_bound(k, l1, l2)
                assert bound.proof_form <= bound.theorem_form + 1e-15


def test_confusing_outcome_uniform_pair():
    mixed = maximally_mixed(2)
    povm = Povm((np.eye(2, dtype=complex) / 2.0, np.eye(2, dtype=complex) / 2.0))
    co = confusing_outcome(mixed, mixed, povm)
    assert co.index == 0
    assert co.epsilon == pytest.approx(0.5)
    assert co.prob_rho == pytest.approx(0.5)
    assert co.prob_sigma == pytest.approx(0.5)


def test_confusing_outcome_orthogonal_states():
    co = confusing_outcome(basis_state(0, 2), basis_state(1, 2), xz_spin_povm(0.0))
    assert co.epsilon == pytest.approx(0.0, abs=1e-12)
    assert co.index == 0  # a zero floor is met immediately
    # claimed to be at distance 0, they would need overlap 1/2 on some outcome
    with pytest.raises(RuntimeError, match="guaranteed overlap floor"):
        _confusing_outcomes(basis_state(0, 2).mat, basis_state(1, 2).mat, [xz_spin_povm(0.0)], 0.0)


def test_confusing_outcome_dimension_mismatch():
    with pytest.raises(ValueError, match="dimension"):
        confusing_outcome(basis_state(0, 2), basis_state(0, 2), Povm((np.eye(3, dtype=complex),)))


@given(st.integers(0, 2_000), st.integers(2, 4), st.integers(2, 4))
def test_confusing_outcome_floor_always_met(seed, dim, outcomes):
    rho = sample_density(dim, dim, (seed, 0))
    sigma = sample_density(dim, 1, (seed, 1))
    povm = sample_povm(dim, outcomes, (seed, 2))
    co = confusing_outcome(rho, sigma, povm)
    assert min(co.prob_rho, co.prob_sigma) >= co.epsilon - 1e-10
    assert 0 <= co.index < outcomes


def _confusing_outcome_loop(rho, sigma, povm, distance):
    """Element-by-element oracle: (index, epsilon, prob_rho, prob_sigma) of
    `_confusing_outcomes` under the one POVM, or None where it raises."""
    eps = (2.0 - distance) / (2.0 * len(povm))
    for r, element in enumerate(povm.elements):
        p = float(np.real(np.trace(element @ rho)))
        q = float(np.real(np.trace(element @ sigma)))
        if min(p, q) >= eps - 1e-10:
            return r, eps, p, q
    return None


@given(
    st.integers(1, 4),
    st.integers(1, 5),
    st.one_of(st.none(), st.floats(0.0, 2.0)),
    st.integers(0, 2**32 - 1),
)
def test_confusing_outcome_matches_element_loop(dim, outcomes, distance, seed):
    # a distance below the true one raises the floor past every outcome
    rng = np.random.default_rng(seed)
    rho = sample_density(dim, int(rng.integers(1, dim + 1)), rng)
    sigma = sample_density(dim, int(rng.integers(1, dim + 1)), rng)
    povm = sample_povm(dim, outcomes, rng)
    if distance is None:
        distance = trace_distance(rho, sigma)
    want = _confusing_outcome_loop(rho.mat, sigma.mat, povm, distance)
    if want is None:
        with pytest.raises(RuntimeError, match="overlap floor"):
            _confusing_outcomes(rho.mat, sigma.mat, [povm], distance)
        return
    (co,) = _confusing_outcomes(rho.mat, sigma.mat, [povm], distance)
    assert type(co.index) is int and type(co.prob_rho) is float and type(co.prob_sigma) is float
    assert (co.index, co.epsilon) == want[:2]
    assert np.array([co.prob_rho, co.prob_sigma]).tobytes() == np.array(want[2:]).tobytes()


def test_close_pair_identical_singletons():
    e = Ensemble(weights=np.array([1.0]), states=(maximally_mixed(2),))
    pair = close_pair(e, e)
    assert (pair.i, pair.j) == (0, 0)
    assert pair.distance == pytest.approx(0.0, abs=1e-12)
    assert pair.epsilon == pytest.approx(1.0)
    assert pair.average_distance == pytest.approx(0.0, abs=1e-12)


def test_close_pair_mutually_unbiased_bases():
    z = Ensemble(
        weights=np.array([0.5, 0.5]), states=(basis_state(0, 2), basis_state(1, 2))
    )
    plus = pure_state(np.array([1.0, 1.0]) / math.sqrt(2.0))
    minus = pure_state(np.array([1.0, -1.0]) / math.sqrt(2.0))
    x = Ensemble(weights=np.array([0.5, 0.5]), states=(plus, minus))
    pair = close_pair(z, x)
    assert pair.average_distance == pytest.approx(0.0, abs=1e-12)
    assert pair.epsilon == pytest.approx(0.25)
    assert pair.distance == pytest.approx(math.sqrt(2.0))
    assert (pair.i, pair.j) == (0, 0)  # all pairs tie; first in scan order wins


def _close_pair_loop(e1, e2):
    """i-major double loop with a strict-< update: the first minimum wins."""
    best, best_d = (0, 0), math.inf
    for i, rho in enumerate(e1.states):
        for j, sigma in enumerate(e2.states):
            d = trace_norm(rho - sigma)
            if d < best_d:
                best, best_d = (i, j), d
    return best, best_d


@given(
    st.integers(1, 3),
    st.lists(st.integers(0, 2), min_size=1, max_size=4),
    st.lists(st.integers(0, 2), min_size=1, max_size=4),
    st.integers(0, 2**32 - 1),
)
def test_close_pair_matches_i_major_loop(dim, first, second, seed):
    # members drawn with repetition from a pool of three states, so that
    # equal distances, and so ties, are common
    rng = np.random.default_rng(seed)
    pool = [sample_density(dim, int(rng.integers(1, dim + 1)), rng) for _ in range(3)]
    e1, e2 = (
        Ensemble(weights=rng.dirichlet(np.ones(len(picks))), states=tuple(pool[i] for i in picks))
        for picks in (first, second)
    )
    pair = close_pair(e1, e2)
    (i, j), distance = _close_pair_loop(e1, e2)
    assert (pair.i, pair.j) == (i, j)
    assert type(pair.i) is int and type(pair.j) is int
    assert pair.distance == distance
    assert pair.average_distance == trace_distance(ensemble_average(e1), ensemble_average(e2))


def test_close_pair_ties_keep_the_first_pair_in_i_major_order():
    a, b, c = (sample_density(2, 2, seed) for seed in (1, 2, 3))
    e1 = Ensemble(weights=np.array([0.2, 0.3, 0.5]), states=(a, b, b))
    e2 = Ensemble(weights=np.array([0.6, 0.4]), states=(c, b))
    pair = close_pair(e1, e2)
    assert (pair.i, pair.j) == (1, 1) == _close_pair_loop(e1, e2)[0]
    assert pair.distance == 0.0


def test_close_pair_rejects_distinguishable_averages():
    e0 = Ensemble(weights=np.array([1.0]), states=(basis_state(0, 2),))
    e1 = Ensemble(weights=np.array([1.0]), states=(basis_state(1, 2),))
    with pytest.raises(ValueError, match="distinguishable"):
        close_pair(e0, e1)


def test_close_pair_raises_past_its_floor(monkeypatch):
    # a claimed floor of 2 leaves room only for a pair at distance 0
    monkeypatch.setattr(bounds, "epsilon_from_average_distance", lambda x, l1, l2: 2.0)
    e0 = Ensemble(weights=np.array([1.0]), states=(basis_state(0, 2),))
    e1 = Ensemble(weights=np.array([1.0]), states=(maximally_mixed(2),))
    with pytest.raises(RuntimeError, match="guaranteed closeness floor"):
        close_pair(e0, e1)


def test_close_pair_dimension_mismatch():
    e2 = Ensemble(weights=np.array([1.0]), states=(maximally_mixed(2),))
    e3 = Ensemble(weights=np.array([1.0]), states=(maximally_mixed(3),))
    with pytest.raises(ValueError, match="dimension"):
        close_pair(e2, e3)


def test_pipeline_tsirelson_realization():
    rho, alice, bob = tsirelson_realization()
    trace = fod_floor_pipeline(rho, bob[0], bob[1], alice)
    assert not trace.vacuous
    assert trace.passed
    assert trace.k == 2 and trace.l1 == 2 and trace.l2 == 2
    assert trace.truncated_sizes == (2, 2)
    # untruncated symmetric steering realizes the theorem floor exactly
    assert trace.c == pytest.approx(trace.theorem_form, rel=1e-12)
    assert trace.theorem_form == pytest.approx(THEOREM_222, rel=1e-12)
    assert len(trace.inequalities) == 15
    box = quantum_box(rho, alice, [bob[0], bob[1]])
    value, _ = fod_exact(box)
    assert value >= trace.c - 1e-8
    payload = json.dumps(trace.to_dict())
    assert "theorem_form" in payload


def test_pipeline_random_realizations():
    for seed in range(20):
        rho = sample_density(4, int(1 + seed % 4), (seed, 0))
        alice = [sample_povm(2, 2, (seed, 1, x)) for x in range(2)]
        bob1 = sample_povm(2, 2, (seed, 2, 0))
        bob2 = sample_povm(2, 2, (seed, 2, 1))
        trace = fod_floor_pipeline(rho, bob1, bob2, alice)
        assert trace.passed, f"seed {seed}: {[r.to_dict() for r in trace.inequalities if not r.holds]}"
        assert trace.c >= trace.theorem_form - 1e-15
        box = quantum_box(rho, alice, [bob1, bob2])
        value, _ = fod_exact(box)
        assert value >= trace.c - 1e-8


def test_pipeline_on_nearly_product_states():
    # sqrt(1 - w) |a0>|0> + sqrt(w) |a1>|1> with w near 1e-8, and Bob's first
    # measurement near z: a light steered member's rounding, divided by its
    # weight, once passed PSD_TOL and made `steer` reject the state
    for seed in range(20):
        rng = np.random.default_rng(seed)
        w = 10.0 ** rng.uniform(-8.5, -7.5)
        kets = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        a0, a1 = kets / np.linalg.norm(kets, axis=1, keepdims=True)
        vec = math.sqrt(1.0 - w) * np.kron(a0, [1.0, 0.0]) + math.sqrt(w) * np.kron(a1, [0.0, 1.0])
        rho = pure_state(vec)
        bob1, bob2 = xz_spin_povm(rng.uniform(-1e-3, 1e-3)), xz_spin_povm(rng.uniform(0.0, math.pi))
        alice = [sample_povm(2, 2, rng) for _ in range(2)]
        trace = fod_floor_pipeline(rho, bob1, bob2, alice)
        assert trace.passed
        value, _ = fod_exact(quantum_box(rho, alice, [bob1, bob2]))
        assert trace.theorem_form - 1e-15 <= trace.c <= value + 1e-8


@given(
    st.integers(2, 3),
    st.integers(2, 3),
    st.integers(2, 3),
    st.integers(2, 3),
    st.booleans(),
    st.integers(0, 2**32 - 1),
)
def test_derived_objects_pass_the_checks_they_skip(dim_a, dim_b, k_a, k_b, zero_outcome, seed):
    # `steer`, `ensemble_average`, `embed_subnormalized`, `quantum_box`,
    # `fod_exact` and `cf_exact` build their results unchecked; on ordinary realizations those results
    # still pass every check they skip, at the plain tolerances
    rng = np.random.default_rng(seed)
    rho = sample_density(dim_a * dim_b, int(rng.integers(1, dim_a * dim_b + 1)), rng)
    alice = [sample_povm(dim_a, k_a, rng) for _ in range(2)]
    bob = [sample_povm(dim_b, k_b, rng) for _ in range(2)]
    if zero_outcome:
        bob[1] = Povm((*bob[1].elements, np.zeros((dim_b, dim_b))))
    for povm in bob:
        # steer's operators before normalization, computed as it computes them
        lifted = tensor(np.eye(dim_a, dtype=complex), povm.elements)
        _check_state_matrix(partial_trace(lifted @ rho.mat, dim_a, dim_b), 0.0)
        ensemble = steer(rho, povm)
        average = ensemble_average(ensemble)
        _check_state_matrix(average.mat, 1.0)
    # the zero outcome is dropped from the second ensemble
    assert k_b not in ensemble.labels
    for lifted in embed_subnormalized(average, SubnormalizedState(average.mat / 2)):
        _check_state_matrix(lifted.mat, 1.0)
    box = quantum_box(rho, alice, bob)
    solve, solved = decomp.simplex_solve, []

    def recording(lp):
        solved.append(lp)
        return solve(lp)

    with mock.patch.object(decomp, "simplex_solve", recording):
        _, decomposition = cf_exact(box)
    (lp,) = solved
    assert all(np.isfinite(v).all() for v in (lp.c, lp.a, lp.b))
    assert lp.a.shape == (len(lp.b), len(lp.c))
    assert (lp.c == 1.0).all() and (0.0 <= lp.b).all() and (lp.b <= 1.0).all()
    derived = [box] if decomposition.residual is None else [box, decomposition.residual]
    for b in derived:
        # `from_dict` runs the constructor's full check
        assert Box.from_dict(b.to_dict()).p.tobytes() == b.p.tobytes()
    _, strategy = fod_exact(box)
    for s in (strategy, *decomposition.strategies):
        assert DeterministicStrategy(s.alice, s.bob) == s
        assert all(type(o) is int for o in s.alice + s.bob)


@given(
    st.integers(2, 3),
    st.integers(2, 3),
    st.lists(st.integers(1, 4), min_size=1, max_size=4),
    st.integers(1, 4).flatmap(lambda l1: st.tuples(st.just(l1), st.integers(1, 4).filter(lambda l2: l2 != l1))),
    st.booleans(),
    st.one_of(st.none(), st.floats(2.0, 20.0, exclude_min=True)),
    st.integers(0, 2**32 - 1),
    st.data(),
)
def test_pipeline_matches_its_one_step_oracle(dim_a, dim_b, alice_outcomes, bob_outcomes, zero_outcome, mu, seed, data):
    # rank 1 up to full; the zero Bob outcome is dropped by `steer`
    rank = data.draw(st.integers(1, dim_a * dim_b))
    rho, alice, bob = realization(seed, dim_a, dim_b, rank, tuple(alice_outcomes), bob_outcomes, zero_outcome)
    assert_matches_oracle(rho, alice, bob, mu)


def test_pipeline_validation():
    rho, alice, bob = tsirelson_realization()
    with pytest.raises(ValueError, match="exceed 2"):
        fod_floor_pipeline(rho, bob[0], bob[1], alice, mu=2.0)
    for bad in (math.nan, math.inf, -math.inf, np.float64("nan")):
        with pytest.raises(ValueError, match="must be finite"):
            fod_floor_pipeline(rho, bob[0], bob[1], alice, mu=bad)
    with pytest.raises(ValueError, match="at least one"):
        fod_floor_pipeline(rho, bob[0], bob[1], [])
    with pytest.raises(ValueError, match="share a dimension"):
        fod_floor_pipeline(rho, bob[0], Povm((np.eye(3, dtype=complex),)), alice)


# the grid oracle: first step, and the step its zooming stops at
GRID_STEP = 1e-3
REFINE_STEP = 1e-6

FOD_SAME = (5.0 - math.sqrt(17.0)) / 8.0
CROSS_DECOUPLED = (25.0 - math.sqrt(113.0)) / 128.0
CROSS_COUPLED = 2.0 / 17.0


def _grid(lo: float, hi: float, step: float) -> np.ndarray:
    n = max(1, int(round((hi - lo) / step))) + 1
    return np.linspace(lo, hi, n)


def _minimize(fn, arity: int):
    """Minimize fn(q0) over q0 in [0, 1/2] (arity 1), or fn(p0, q0) over
    0 <= p0 <= q0 <= 1/2 (arity 2), by grid search at GRID_STEP, then zooming
    to +-2 steps around the best point at a tenth of the step until the step
    is at most REFINE_STEP. Returns the value and the tuple of arguments."""
    lo, hi = (0.0,) * arity, (0.5,) * arity
    step = GRID_STEP
    while True:
        grid = np.meshgrid(*(_grid(a, b, step) for a, b in zip(lo, hi)), indexing="ij")
        vals = fn(*grid)
        if arity == 2:
            vals = np.where(grid[0] <= grid[1] + 1e-15, vals, np.inf)
        i = np.unravel_index(int(np.argmin(vals)), vals.shape)
        best = tuple(float(g[i]) for g in grid)
        if not step > REFINE_STEP:
            return float(vals[i]), best
        lo = tuple(max(0.0, v - 2.0 * step) for v in best)
        hi = tuple(min(0.5, v + 2.0 * step) for v in best)
        step /= 10.0


@pytest.mark.parametrize("case", sorted(bounds._BINARY_BOB_CASES))
def test_binary_bob_closed_forms_match_the_grid_oracle(case):
    objective, minimum, args = bounds._BINARY_BOB_CASES[case]
    searched, _ = _minimize(objective, len(args))
    # attained at the witness, so no grid point may beat it by more than rounding
    assert minimum <= searched + 1e-15
    assert searched - minimum <= 1e-7
    assert float(objective(*args)) == pytest.approx(minimum, abs=bounds.WITNESS_TOL)
    assert all(0.0 <= a <= 0.5 for a in args) and args == tuple(sorted(args))


def test_binary_bob_constants_frozen():
    b = binary_bob_bounds()
    assert b.k == 2
    assert b.fod_constant == FOD_SAME
    assert b.cf_constant == CROSS_DECOUPLED
    assert b.cf_constant_coupled == CROSS_COUPLED
    assert b.fod_bound == FOD_SAME / 4.0
    assert b.cf_bound == CROSS_DECOUPLED / 4.0
    assert b.fod_witness == ((5.0 - math.sqrt(17.0)) / 2.0, 0.5)
    q0 = (25.0 - math.sqrt(113.0)) / 32.0
    assert b.cf_witness == (q0, q0)


def test_binary_bob_case_minima():
    assert binary_bob_bounds().case_minima == {
        "fod_case00": FOD_SAME,
        "fod_case01": FOD_SAME,
        "fod_case10": CROSS_DECOUPLED,
        "fod_case11": 0.125,
        "cf_case00": 0.125,
        "cf_case01": CROSS_COUPLED,
        "cf_case10": CROSS_DECOUPLED,
        "cf_case11": 0.125,
        "cf_case10_coupled": CROSS_COUPLED,
        "cf_case11_coupled": 0.125,
    }
    witnesses = {case: args for case, (_, _, args) in bounds._BINARY_BOB_CASES.items()}
    p_same = (5.0 - math.sqrt(17.0)) / 2.0
    q_cross = (25.0 - math.sqrt(113.0)) / 32.0
    assert witnesses == {
        "fod_case00": (p_same, 0.5),
        "fod_case01": (p_same, 0.5),
        "fod_case10": (q_cross,),
        "fod_case11": (0.5,),
        "cf_case00": (0.5, 0.5),
        "cf_case01": (8.0 / 17.0, 8.0 / 17.0),
        "cf_case10": (q_cross,),
        "cf_case11": (0.5,),
        "cf_case10_coupled": (8.0 / 17.0, 8.0 / 17.0),
        "cf_case11_coupled": (0.5, 0.5),
    }


def test_binary_bob_bounds_raises_when_a_witness_misses_its_closed_form(monkeypatch, capsys):
    cases = dict(bounds._BINARY_BOB_CASES)
    objective, minimum, args = cases["cf_case01"]
    cases["cf_case01"] = (objective, minimum - 1e-14, args)
    monkeypatch.setattr(bounds, "_BINARY_BOB_CASES", cases)
    with pytest.raises(RuntimeError, match="cf_case01: objective .* misses its closed form"):
        binary_bob_bounds()
    assert main(["reproduce"]) == 3
    assert capsys.readouterr().err.startswith("internal error: RuntimeError: cf_case01")


def test_binary_bob_bell_bounds():
    b = binary_bob_bounds()
    assert bell_bound_from_fod(4.0, 2.0, b.fod_bound) == pytest.approx(3.9452, abs=1e-3)
    assert bell_bound_from_fod(4.0, 2.0, b.cf_bound) == pytest.approx(3.9439, abs=1e-3)


@pytest.mark.parametrize("k", [math.nan, 2.5, True, 0, 10**400])
def test_binary_bob_rejects_bad_outcome_counts(k):
    with pytest.raises(ValueError, match="outcome counts"):
        binary_bob_bounds(k)


def test_binary_bob_validation_and_serialization():
    with pytest.raises(ValueError):
        binary_bob_bounds(k=0)
    payload = json.dumps(binary_bob_bounds().to_dict())
    assert "cf_constant_coupled" in payload


def test_inequality_record():
    ok = InequalityRecord("demo", 1.0, 2.0)
    assert ok.slack == pytest.approx(1.0)
    assert ok.holds
    bad = InequalityRecord("demo", 2.0, 1.0)
    assert not bad.holds
    assert set(ok.to_dict()) == {"name", "lhs", "rhs", "slack", "holds"}
