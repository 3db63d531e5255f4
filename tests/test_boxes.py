"""Boxes, no-signalling checks, deterministic strategies, Bell functionals."""

import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from nonlocality import boxes
from nonlocality.boxes import (
    ENTRY_TOL,
    NORMALIZATION_TOL,
    BellFunctional,
    Box,
    DeterministicStrategy,
    Scenario,
    _alice_side,
    assignments,
    bell_algebraic_max,
    bell_det_max,
    bell_value,
    chsh_functional,
    chsh_scenario,
    deterministic_box,
    enumerate_deterministic,
    local_box,
    maximally_mixed_box,
    pr_box,
    quantum_box,
    tsirelson_realization,
    validate_ns,
)
from nonlocality.states import Povm, pure_state, sample_density, sample_povm, singlet, xz_spin_povm


def test_scenario_validation_and_roundtrip():
    sc = Scenario((2, 3), (2,))
    assert sc.inputs_a == 2 and sc.inputs_b == 1
    assert sc.shape == (2, 1, 3, 2)
    assert math.prod(sc.outcomes_a + sc.outcomes_b) == 2 * 3 * 2
    assert Scenario.from_dict(sc.to_dict()) == sc
    with pytest.raises(ValueError):
        Scenario((), (2,))
    with pytest.raises(ValueError):
        Scenario((2, 0), (2,))
    with pytest.raises(ValueError):
        Scenario.from_dict({"nA": 3, "nB": 1, "outcomesA": [2, 2], "outcomesB": [2]})


@pytest.mark.parametrize(
    "outcomes_a, outcomes_b",
    [((2.7, 2), (2,)), ((2, 2), (True,)), ((2.0,), (2,)), (("2",), (2,))],
)
def test_scenario_rejects_non_integer_counts(outcomes_a, outcomes_b):
    with pytest.raises(ValueError, match="must be integers"):
        Scenario(outcomes_a, outcomes_b)
    with pytest.raises(ValueError, match="must be integers"):
        Scenario.from_dict({"outcomesA": list(outcomes_a), "outcomesB": list(outcomes_b)})


@given(
    st.lists(st.integers(1, 5), min_size=1, max_size=4).map(tuple),
    st.lists(st.integers(1, 5), min_size=1, max_size=4).map(tuple),
)
def test_scenario_inside_matches_block_slicing(outcomes_a, outcomes_b):
    sc = Scenario(outcomes_a, outcomes_b)
    mask = np.zeros(sc.shape, dtype=bool)
    for x, ka in enumerate(outcomes_a):
        for y, kb in enumerate(outcomes_b):
            mask[x, y, :ka, :kb] = True
    assert sc.inside.dtype == bool and np.array_equal(sc.inside, mask)
    assert sc.inside is sc.inside and not sc.inside.flags.writeable


def test_scenario_accepts_numpy_integer_counts():
    sc = Scenario(np.array([2, 3]), (np.int64(2),))
    assert sc == Scenario((2, 3), (2,))
    assert all(type(k) is int for k in sc.outcomes_a + sc.outcomes_b)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_tables_reject_non_finite_cells(bad):
    sc = Scenario((2, 1), (2,))  # input 1 of Alice pads one outcome
    t = maximally_mixed_box(sc).p.copy()
    t[0, 0, 0, 0] = bad
    with pytest.raises(ValueError, match="non-finite"):
        Box(sc, t)
    with pytest.raises(ValueError, match="non-finite"):
        BellFunctional(sc, t)
    padded = maximally_mixed_box(sc).p.copy()
    padded[1, 0, 1, 0] = bad  # a structural-zero cell
    with pytest.raises(ValueError, match="non-finite"):
        Box(sc, padded)
    with pytest.raises(ValueError, match="non-finite"):
        BellFunctional(sc, padded)
    d = pr_box().to_dict()
    d["p"][1][1][0][1] = bad
    with pytest.raises(ValueError, match="non-finite"):
        Box.from_dict(d)
    d = chsh_functional().to_dict()
    d["s"][0][1][1][0] = bad
    with pytest.raises(ValueError, match="non-finite"):
        BellFunctional.from_dict(d)


def test_box_table_validation():
    sc = chsh_scenario()
    good = pr_box().p.copy()
    bad = good.copy()
    bad[0, 0, 0, 0] = -0.1
    bad[0, 0, 1, 1] = 0.6  # keep the sum at 1 so the range check fires
    with pytest.raises(ValueError, match="out of range"):
        Box(sc, bad)
    bad = good.copy()
    bad[0, 0, 0, 0] = 0.7
    with pytest.raises(ValueError, match="sums to"):
        Box(sc, bad)
    with pytest.raises(ValueError, match="shape"):
        Box(sc, np.zeros((2, 2, 2)))


def test_structural_zeros_enforced_on_ragged_scenario():
    sc = Scenario((2, 3), (2,))
    t = maximally_mixed_box(sc).p.copy()
    t[0, 0, 2, 0] = 0.5  # input x=0 has only 2 outcomes
    t[0, 0, 0, 0] -= 0.5
    with pytest.raises(ValueError, match="structural-zero"):
        Box(sc, t)


def test_box_dict_roundtrip_ragged():
    sc = Scenario((2, 3), (2,))
    box = maximally_mixed_box(sc)
    again = Box.from_dict(box.to_dict())
    assert again.scenario == sc
    np.testing.assert_allclose(again.p, box.p)


def test_dict_schema_errors_raise_value_error():
    # any malformed dict must surface as ValueError, never KeyError/TypeError
    good = pr_box().to_dict()
    with pytest.raises(ValueError, match="'scenario' and 'p'"):
        Box.from_dict({"scenario": good["scenario"]})
    with pytest.raises(ValueError, match="'scenario' and 'p'"):
        Box.from_dict([1, 2, 3])
    with pytest.raises(ValueError, match="outcome-count lists"):
        Scenario.from_dict({"outcomesA": [2, 2]})
    with pytest.raises(ValueError, match="no block at input pair \\(1, 0\\)"):
        Box.from_dict({"scenario": good["scenario"], "p": good["p"][:1]})
    with pytest.raises(ValueError, match="'scenario' and 's'"):
        BellFunctional.from_dict({"scenario": good["scenario"], "p": good["p"]})


def test_validate_ns_pr_box():
    report = validate_ns(pr_box())
    assert report.passed
    assert report.max_violation == pytest.approx(0.0, abs=1e-15)
    assert report.to_dict()["pass"] is True


def test_box_ns_report_is_validate_ns_once():
    box = pr_box()
    assert box.ns_report is box.ns_report
    assert box.ns_report == validate_ns(box)


def test_validate_ns_flags_signalling_with_location():
    sc = chsh_scenario()
    t = np.zeros(sc.shape)
    t[0, 0, 0, 0] = 1.0  # Alice outputs 0 when y=0 ...
    t[0, 1, 1, 0] = 1.0  # ... but 1 when y=1: signalling at x=0
    t[1, 0, 0, 0] = 1.0
    t[1, 1, 0, 0] = 1.0
    report = validate_ns(Box(sc, t))
    assert not report.passed
    assert report.max_violation == pytest.approx(1.0)
    assert report.location == "alice marginal at x=0 between y=0 and y=1"


def test_enumeration_order_and_budget():
    strategies = enumerate_deterministic(chsh_scenario())
    assert len(strategies) == 16
    assert strategies[0] == DeterministicStrategy((0, 0), (0, 0))
    assert strategies[1] == DeterministicStrategy((0, 0), (0, 1))
    assert strategies[4] == DeterministicStrategy((0, 1), (0, 0))
    with pytest.raises(ValueError, match="budget"):
        enumerate_deterministic(Scenario((2,) * 10, (2,) * 10))  # 2^20 > 10^6


def test_enumeration_counts_the_outputs_it_builds(monkeypatch):
    # 2^19 strategies fit the budget, but each holds 910 + 9 outputs
    def build(*args):
        raise AssertionError("built a strategy before the budget check")

    monkeypatch.setattr(boxes, "_strategy", build)
    with pytest.raises(ValueError, match="^enumeration needs 481820672 table cells, budget is 1000000$"):
        enumerate_deterministic(Scenario((2,) * 10 + (1,) * 900, (2,) * 9))


def test_deterministic_box_range_check():
    sc = chsh_scenario()
    box = deterministic_box(DeterministicStrategy((1, 0), (0, 1)), sc)
    assert box.p[0, 0, 1, 0] == 1.0
    assert box.p[1, 1, 0, 1] == 1.0
    with pytest.raises(ValueError, match="out of range"):
        deterministic_box(DeterministicStrategy((2, 0), (0, 0)), sc)
    with pytest.raises(ValueError, match="strategy length"):
        deterministic_box(DeterministicStrategy((0,), (0, 0)), sc)


def test_local_box_uniform_is_maximally_mixed():
    sc = chsh_scenario()
    box = local_box(sc, np.full(16, 1.0 / 16.0))
    np.testing.assert_allclose(box.p, maximally_mixed_box(sc).p, atol=1e-12)


def test_local_box_weight_validation():
    sc = chsh_scenario()
    with pytest.raises(ValueError, match="sum"):
        local_box(sc, np.full(16, 0.1))
    with pytest.raises(ValueError, match="length"):
        local_box(sc, np.array([1.0]))
    w = np.zeros(16)
    w[:2] = math.nan, 1.0
    with pytest.raises(ValueError, match="nonnegative numbers, min is nan"):
        local_box(sc, w)


def test_pr_box_reaches_algebraic_chsh():
    assert bell_value(chsh_functional(), pr_box()) == pytest.approx(4.0)


def test_chsh_functional_maxima():
    f = chsh_functional()
    assert bell_algebraic_max(f) == pytest.approx(4.0)
    assert bell_det_max(f) == pytest.approx(2.0)
    # the search builds 2^10 x 10 x 2 cells, though 2^20 strategies exceed 10^6
    sc = Scenario((2,) * 10, (2,) * 10)
    assert bell_det_max(BellFunctional(sc, np.ones(sc.shape))) == 100.0
    sc = Scenario((2,) * 19, (2, 2))  # the search's 2^19 x 2 x 2 cells > 10^6
    with pytest.raises(ValueError, match="budget"):
        bell_det_max(BellFunctional(sc, np.zeros(sc.shape)))


def test_bell_value_oracles():
    f = chsh_functional()
    assert bell_value(f, maximally_mixed_box(chsh_scenario())) == pytest.approx(0.0)
    strat = DeterministicStrategy((0, 0), (0, 0))  # all equal: E=1 everywhere, CHSH=2
    assert bell_value(f, deterministic_box(strat, chsh_scenario())) == pytest.approx(2.0)
    with pytest.raises(ValueError, match="different scenarios"):
        bell_value(f, maximally_mixed_box(Scenario((2, 3), (2, 2))))


def test_functional_dict_roundtrip():
    f = chsh_functional()
    again = BellFunctional.from_dict(f.to_dict())
    np.testing.assert_allclose(again.s, f.s)
    assert again.scenario == f.scenario


def test_quantum_box_singlet_anticorrelation():
    z = xz_spin_povm(0.0)
    box = quantum_box(singlet(), [z], [z])
    block = box.block(0, 0)
    assert block[0, 0] == pytest.approx(0.0, abs=1e-12)
    assert block[1, 1] == pytest.approx(0.0, abs=1e-12)
    assert block[0, 1] == pytest.approx(0.5)
    assert block[1, 0] == pytest.approx(0.5)
    assert validate_ns(box).passed


def test_quantum_box_dimension_mismatch():
    z = xz_spin_povm(0.0)
    trivial_3dim = Povm((np.eye(3, dtype=complex),))
    with pytest.raises(ValueError, match="dim"):
        quantum_box(singlet(), [z], [trivial_3dim])


def _born_loop(rho, alice, bob):
    """Per-cell oracle: one Kronecker product and trace per (x, y, a, b),
    then each block over its own sum."""
    sc = Scenario(tuple(len(p) for p in alice), tuple(len(p) for p in bob))
    t = np.zeros(sc.shape)
    for x, ma in enumerate(alice):
        for y, nb in enumerate(bob):
            for a, ea in enumerate(ma.elements):
                for b, eb in enumerate(nb.elements):
                    t[x, y, a, b] = max(0.0, float(np.real(np.trace(np.kron(ea, eb) @ rho.mat))))
    return t / t.sum(axis=(2, 3), keepdims=True)


def _basis_povm(dim):
    return Povm(tuple(np.diag(row).astype(complex) for row in np.eye(dim)))


@given(
    st.integers(1, 3),
    st.integers(1, 3),
    st.lists(st.integers(1, 3), min_size=1, max_size=3),
    st.lists(st.integers(1, 3), min_size=1, max_size=3),
    st.booleans(),
    st.integers(0, 2**32 - 1),
)
def test_quantum_box_matches_per_cell_kron_loop(dim_a, dim_b, outcomes_a, outcomes_b, projective, seed):
    rng = np.random.default_rng(seed)
    dim = dim_a * dim_b
    alice = [sample_povm(dim_a, k, rng) for k in outcomes_a]
    bob = [sample_povm(dim_b, k, rng) for k in outcomes_b]
    if projective:
        # a pure state and basis measurements leave exact and rounded zeros
        rho = pure_state(rng.standard_normal(dim) + 1j * rng.standard_normal(dim))
        alice[0], bob[-1] = _basis_povm(dim_a), _basis_povm(dim_b)
    else:
        rho = sample_density(dim, int(rng.integers(1, dim + 1)), rng)
    box = quantum_box(rho, alice, bob)
    assert box.p.tobytes() == _born_loop(rho, alice, bob).tobytes()


def test_quantum_box_clamps_like_the_loop():
    # parallel measurements on the singlet: the Born rule gives -2.2e-17 for
    # the same-outcome cells at angle pi/20, which both forms clamp to +0.0
    alice = [xz_spin_povm(np.pi / 20), xz_spin_povm(0.0)]
    bob = [xz_spin_povm(np.pi / 20), xz_spin_povm(21 * np.pi / 20)]
    box = quantum_box(singlet(), alice, bob)
    assert box.p.tobytes() == _born_loop(singlet(), alice, bob).tobytes()
    assert box.p[0, 0, 0, 0] == 0.0 and not np.signbit(box.p).any()


def test_tsirelson_realization_value():
    rho, alice, bob = tsirelson_realization()
    box = quantum_box(rho, alice, bob)
    assert validate_ns(box).passed
    assert bell_value(chsh_functional(), box) == pytest.approx(2.0 * math.sqrt(2.0), abs=1e-12)


@given(st.integers(0, 10_000))
def test_random_local_boxes_are_ns_and_classical(seed):
    rng = np.random.default_rng(seed)
    w = rng.random(16)
    w /= w.sum()
    box = local_box(chsh_scenario(), w)
    assert validate_ns(box).passed
    assert bell_value(chsh_functional(), box) <= 2.0 + 1e-9


scenarios = st.builds(
    Scenario,
    st.lists(st.integers(1, 3), min_size=1, max_size=3).map(tuple),
    st.lists(st.integers(1, 3), min_size=1, max_size=3).map(tuple),
)


@given(scenarios)
def test_assignments_pair_up_in_enumeration_order(sc):
    alice, bob = assignments(sc.outcomes_a), assignments(sc.outcomes_b)
    paired = [DeterministicStrategy(a, b) for a in alice for b in bob]
    assert paired == enumerate_deterministic(sc)


def test_assignments_past_64_inputs():
    # numpy arrays stop at 64 dimensions; the table needs none per input
    outcomes = (1,) * 70 + (2, 3)
    table = assignments(outcomes)
    assert table.dtype == np.intp
    assert table.tolist() == [list(row) for row in itertools.product(*map(range, outcomes))]


def test_alice_side_folds_inputs_in_x_order():
    # g is each assignment's slices folded in x order. A gather reduced by
    # np.min or np.sum has its bits, except where np.sum sums pairwise: 8 or
    # more Alice inputs against a single Bob cell
    rng = np.random.default_rng(31)
    for _ in range(300):
        outcomes_a = tuple(rng.integers(1, 4, size=rng.integers(1, 13)).tolist())
        outcomes_b = (1,) if rng.random() < 0.3 else tuple(rng.integers(1, 4, size=rng.integers(1, 5)).tolist())
        if math.prod(outcomes_a) > 2000:
            continue
        sc = Scenario(outcomes_a, outcomes_b)
        table = np.where(sc.inside, rng.normal(size=sc.shape), 0.0)
        alice = assignments(outcomes_a)
        for ufunc, reduce in ((np.minimum, np.min), (np.add, np.sum)):
            g = _alice_side(table, sc, ufunc)
            folded = table[0, :, alice[:, 0], :]
            for x in range(1, sc.inputs_a):
                folded = ufunc(folded, table[x, :, alice[:, x], :])
            gathered = reduce(table[np.arange(sc.inputs_a), :, alice, :], axis=1)
            for oracle in (folded, gathered):
                oracle[:, ~sc.inside[0, :, 0, :]] = -np.inf
            assert g.tobytes() == folded.tobytes()
            if ufunc is np.minimum or sc.shape[1] * sc.shape[3] > 1:
                assert g.tobytes() == gathered.tobytes()
            else:
                np.testing.assert_allclose(g, gathered, rtol=1e-13, atol=1e-13)


def _random_functional(sc: Scenario, rng) -> BellFunctional:
    s = np.zeros(sc.shape)
    for x, ka in enumerate(sc.outcomes_a):
        for y, kb in enumerate(sc.outcomes_b):
            s[x, y, :ka, :kb] = rng.normal(size=(ka, kb)) * 10.0 ** rng.integers(-3, 3)
    return BellFunctional(sc, s)


@given(scenarios, st.integers(0, 2**32 - 1))
def test_bell_det_max_matches_strategy_loop(sc, seed):
    f = _random_functional(sc, np.random.default_rng(seed))
    best = -math.inf
    for strat in enumerate_deterministic(sc):
        val = 0.0
        for x, a in enumerate(strat.alice):
            for y, b in enumerate(strat.bob):
                val += float(f.s[x, y, a, b])
        best = max(best, val)
    assert bell_det_max(f) == best


def _strategy_sums(f: BellFunctional) -> list:
    """Each strategy's value, summed with x outer and y inner, in enumeration order."""
    sums = []
    for strat in enumerate_deterministic(f.scenario):
        val = 0.0
        for x, a in enumerate(strat.alice):
            for y, b in enumerate(strat.bob):
                val += float(f.s[x, y, a, b])
        sums.append(val)
    return sums


@given(scenarios, st.integers(0, 2**32 - 1))
def test_bell_det_max_on_decimal_ties_is_some_strategy_sum(sc, seed):
    # coefficients in multiples of 0.1 tie exactly in the reals, and the
    # Alice-side search may round a tie differently from the strategy loop
    rng = np.random.default_rng(seed)
    s = np.where(sc.inside, rng.integers(-20, 21, size=sc.shape) / 10.0, 0.0)
    f = BellFunctional(sc, s)
    sums = _strategy_sums(f)
    got = bell_det_max(f)
    assert got in sums
    assert abs(got - max(sums)) <= sc.inputs_a * sc.inputs_b * 2.0**-52 * float(np.abs(s).sum())


def test_bell_det_max_masks_bob_cells_past_the_outcome_counts():
    # every coefficient is negative, so a structural zero past one of Bob's
    # outcome counts would beat every real cell if it were not masked
    sc = Scenario((2, 3), (3, 1, 2))
    cells = -1.0 - np.random.default_rng(5).random(sc.shape)
    f = BellFunctional(sc, np.where(sc.inside, cells, 0.0))
    assert bell_det_max(f) == max(_strategy_sums(f))


def test_bell_det_max_on_a_wide_bob_side():
    sc = Scenario((2, 2), (3,) * 7)
    f = _random_functional(sc, np.random.default_rng(11))
    assert bell_det_max(f) == max(_strategy_sums(f))


def _mixture_by_loop(sc, weights, strategies):
    t = np.zeros(sc.shape)
    for w, strat in zip(weights, strategies):
        if w > 0.0:
            t += w * deterministic_box(strat, sc).p
    return t / t.sum(axis=(2, 3), keepdims=True)


@given(scenarios, st.integers(0, 2**32 - 1), st.floats(0.0, 0.95))
def test_local_box_matches_deterministic_box_loop(sc, seed, sparsity):
    rng = np.random.default_rng(seed)
    strategies = enumerate_deterministic(sc)
    w = rng.random(len(strategies))
    w[rng.random(len(w)) < sparsity] = 0.0
    w[rng.integers(len(w))] += 0.5
    w /= w.sum()
    assert np.array_equal(local_box(sc, w).p, _mixture_by_loop(sc, w, strategies))


def _first_table_fault(sc, t, normalized):
    """Per-block oracle of the table check: the message for the first failing
    input pair in x-major order, or None."""
    for x, ka in enumerate(sc.outcomes_a):
        for y, kb in enumerate(sc.outcomes_b):
            pad = np.abs(t[x, y, ka:, :]).max(initial=0.0) + np.abs(t[x, y, :, kb:]).max(initial=0.0)
            if pad > 0.0:
                return f"structural-zero cells are nonzero at input pair ({x}, {y})"
            if normalized:
                block = t[x, y, :ka, :kb]
                if float(block.min()) < -ENTRY_TOL or float(block.max()) > 1.0 + ENTRY_TOL:
                    return f"probabilities out of range at input pair ({x}, {y})"
                total = float(block.sum())
                if abs(total - 1.0) > NORMALIZATION_TOL:
                    return f"block ({x}, {y}) sums to {total!r}, expected 1"
    return None


def _corrupt(t, sc, x, y, kind, rng):
    """Damage block (x, y) of a valid table in one of several ways, some of
    them within tolerance."""
    ka, kb = sc.outcomes_a[x], sc.outcomes_b[y]
    a, b = rng.integers(ka), rng.integers(kb)
    padding = np.argwhere((np.arange(t.shape[2])[:, None] >= ka) | (np.arange(t.shape[3]) >= kb))
    if kind == "pad" and len(padding):
        a, b = padding[rng.integers(len(padding))]
        t[x, y, a, b] = rng.choice([1e-300, -0.25, 0.5])
    elif kind == "low":
        t[x, y, a, b] = -rng.choice([2e-12, 5e-13, 0.3])
    elif kind == "high":
        t[x, y, a, b] = 1.0 + rng.choice([2e-12, 5e-13, 0.3])
    else:
        # scale the block near the edge of the sum tolerance, either side
        t[x, y, :ka, :kb] *= 1.0 + rng.choice([-1.0, 1.0]) * rng.choice([5e-10, 9.99e-10, 1.001e-9, 3e-9, 0.2])


@given(
    st.lists(st.integers(1, 4), min_size=1, max_size=3).map(tuple),
    st.lists(st.integers(1, 4), min_size=2, max_size=3).map(tuple),
    st.integers(0, 2**32 - 1),
    st.integers(2, 6),
)
def test_table_check_reports_the_per_block_loops_first_fault(outcomes_a, outcomes_b, seed, faults):
    sc = Scenario(outcomes_a, outcomes_b)
    rng = np.random.default_rng(seed)
    t = np.zeros(sc.shape)
    for x, ka in enumerate(sc.outcomes_a):
        for y, kb in enumerate(sc.outcomes_b):
            block = rng.random((ka, kb)) ** 3
            t[x, y, :ka, :kb] = block / block.sum()
    pairs = list(itertools.product(range(sc.inputs_a), range(sc.inputs_b)))
    for i in rng.choice(len(pairs), size=min(faults, len(pairs)), replace=False):
        _corrupt(t, sc, *pairs[i], rng.choice(["pad", "low", "high", "sum"]), rng)
    for cls, normalized in ((Box, True), (BellFunctional, False)):
        expected = _first_table_fault(sc, t, normalized)
        if expected is None:
            assert np.array_equal(getattr(cls(sc, t), cls._FIELD), t)
        else:
            with pytest.raises(ValueError, match=f"^{re.escape(expected)}$"):
                cls(sc, t)


def _ns_by_party_loops(box):
    """Two-loop oracle of `validate_ns`: Alice's marginals over y, then Bob's
    over x, keeping the first largest deviation."""
    sc = box.scenario
    worst, where = 0.0, "none"
    for x in range(sc.inputs_a):
        marg = [box.block(x, y).sum(axis=1) for y in range(sc.inputs_b)]
        for y1, y2 in itertools.combinations(range(sc.inputs_b), 2):
            dev = float(np.abs(marg[y1] - marg[y2]).max())
            if dev > worst:
                worst, where = dev, f"alice marginal at x={x} between y={y1} and y={y2}"
    for y in range(sc.inputs_b):
        marg = [box.block(x, y).sum(axis=0) for x in range(sc.inputs_a)]
        for x1, x2 in itertools.combinations(range(sc.inputs_a), 2):
            dev = float(np.abs(marg[x1] - marg[x2]).max())
            if dev > worst:
                worst, where = dev, f"bob marginal at y={y} between x={x1} and x={x2}"
    return worst, where


@given(
    st.lists(st.integers(1, 11), min_size=1, max_size=3).map(tuple),
    st.lists(st.integers(1, 11), min_size=1, max_size=3).map(tuple),
    st.integers(0, 2**32 - 1),
)
def test_validate_ns_matches_party_loops(outcomes_a, outcomes_b, seed):
    sc = Scenario(outcomes_a, outcomes_b)
    rng = np.random.default_rng(seed)
    t = np.zeros(sc.shape)
    for x, ka in enumerate(sc.outcomes_a):
        for y, kb in enumerate(sc.outcomes_b):
            block = rng.random((ka, kb)) ** rng.integers(1, 5)
            t[x, y, :ka, :kb] = block / block.sum()
    box = Box(sc, t)
    report = validate_ns(box)
    assert (report.max_violation, report.location) == _ns_by_party_loops(box)


@pytest.mark.parametrize(
    "outcomes_a, outcomes_b",
    [
        # a marginal summed over a slice padded to the largest count takes
        # numpy's pairwise order once that slice has 8 cells: Alice's side
        # here, then Bob's
        ((2,), (8, 5)),
        ((8, 8, 5), (1,)),
        # Bob's single-outcome input beside a binary one: a block of one
        # column is summed over Alice's outcomes in the pairwise order too
        ((9, 9, 12), (1, 2)),
    ],
)
@pytest.mark.parametrize("kind", ["signalling", "product"])
def test_validate_ns_sums_each_block_over_its_own_cells(outcomes_a, outcomes_b, kind):
    # a product box p(a|x) q(b|y) is no-signalling, so each of its deviations
    # is a rounding residue, and the report depends on every bit of the sums
    sc = Scenario(outcomes_a, outcomes_b)
    for seed in range(25):
        rng = np.random.default_rng(seed)
        rows_a = [rng.random(ka) ** rng.integers(1, 5) for ka in sc.outcomes_a]
        rows_b = [rng.random(kb) ** rng.integers(1, 5) for kb in sc.outcomes_b]
        t = np.zeros(sc.shape)
        for x, ka in enumerate(sc.outcomes_a):
            for y, kb in enumerate(sc.outcomes_b):
                if kind == "product":
                    block = np.outer(rows_a[x] / rows_a[x].sum(), rows_b[y] / rows_b[y].sum())
                else:
                    block = rng.random((ka, kb)) ** rng.integers(1, 5)
                t[x, y, :ka, :kb] = block / block.sum()
        box = Box(sc, t)
        report = validate_ns(box)
        assert (report.max_violation, report.location) == _ns_by_party_loops(box), seed


def _certain_outputs(outcomes_a, outcomes_b, *terms) -> Box:
    """The equal mixture of boxes that output (a(x, y), b(x, y)) with
    certainty, one per term (a, b): each term may signal either way."""
    sc = Scenario(outcomes_a, outcomes_b)
    t = np.zeros(sc.shape)
    for a, b in terms:
        for x, y in itertools.product(range(sc.inputs_a), range(sc.inputs_b)):
            t[x, y, a(x, y), b(x, y)] += 1.0 / len(terms)
    return Box(sc, t)


@pytest.mark.parametrize(
    "box, worst, location",
    [
        # a tie between the parties goes to Alice; within a party the first
        # largest pair, x (or y) outer, wins
        (
            _certain_outputs((2,) * 6, (2,) * 6, (lambda x, y: int(y >= 3), lambda x, y: int(x >= 4))),
            1.0,
            "alice marginal at x=0 between y=0 and y=3",
        ),
        (
            _certain_outputs((2,) * 6, (3, 2, 3, 2, 3, 2), (lambda x, y: 0, lambda x, y: int(x == 5))),
            1.0,
            "bob marginal at y=0 between x=0 and x=5",
        ),
        # Alice's half deviation loses to Bob's whole one
        (
            _certain_outputs(
                (2,) * 6,
                (2,) * 6,
                (lambda x, y: int(y >= 3), lambda x, y: int(x >= 4)),
                (lambda x, y: 0, lambda x, y: int(x >= 4)),
            ),
            1.0,
            "bob marginal at y=0 between x=0 and x=4",
        ),
        # uneven outcome counts; Alice's first signalling input is x = 1
        (
            _certain_outputs(
                (2, 3, 2, 3, 2, 3),
                (3, 2, 3, 2, 3, 2),
                (lambda x, y: (x % 2) * (y % 2), lambda x, y: y % 2),
                (lambda x, y: x % 2, lambda x, y: 0),
            ),
            0.5,
            "alice marginal at x=1 between y=0 and y=1",
        ),
        (_certain_outputs((3,) * 4, (2,) * 5, (lambda x, y: x % 3, lambda x, y: y % 2)), 0.0, "none"),
    ],
)
def test_validate_ns_reports_the_first_largest_deviation(box, worst, location):
    report = validate_ns(box)
    assert (report.max_violation, report.location) == (worst, location) == _ns_by_party_loops(box)
    assert report.passed is (worst == 0.0)


@given(
    st.lists(st.integers(1, 3), min_size=1, max_size=6).map(tuple),
    st.lists(st.integers(1, 3), min_size=1, max_size=6).map(tuple),
    st.integers(0, 2**32 - 1),
)
def test_validate_ns_matches_party_loops_on_tied_deviations(outcomes_a, outcomes_b, seed):
    # cells of a few levels over small block sums: equal deviations recur,
    # within a party and across the two
    sc = Scenario(outcomes_a, outcomes_b)
    rng = np.random.default_rng(seed)
    t = np.zeros(sc.shape)
    for x, ka in enumerate(sc.outcomes_a):
        for y, kb in enumerate(sc.outcomes_b):
            block = rng.integers(0, 3, (ka, kb)).astype(float)
            block.flat[rng.integers(block.size)] += 1.0
            t[x, y, :ka, :kb] = block / block.sum()
    box = Box(sc, t)
    report = validate_ns(box)
    assert (report.max_violation, report.location) == _ns_by_party_loops(box)
