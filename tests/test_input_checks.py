"""The two boundary checks every entry point shares: counts (ensemble sizes,
outcome counts, dimensions, ranks) and probability weights; the rule that
input a boundary check accepts is never rejected inside; and the checks that
keep non-finite numbers out of every report."""

import itertools
import json
import math
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from nonlocality import cli, rti
from nonlocality.bounds import (
    PipelineTrace,
    binary_bob_bounds,
    epsilon_from_average_distance,
    fod_floor_pipeline,
    mu_objective,
    universal_fod_bound,
)
from nonlocality.boxes import (
    BellFunctional,
    Box,
    DeterministicStrategy,
    Scenario,
    bell_algebraic_max,
    chsh_functional,
    chsh_scenario,
    deterministic_box,
    local_box,
    maximally_mixed_box,
    pr_box,
    quantum_box,
)
from nonlocality.cli import main
from nonlocality.decomp import bell_bound_from_fod, cf_exact, fod_exact
from nonlocality.rti import (
    RtiInstance,
    classical_sharp_example,
    embed_subnormalized,
    fvdg_check,
    rti_campaign,
    rti_commuting_bound,
    rti_general_bound,
    sample_rti_instance,
)
from nonlocality.linalg import PSD_TOL, psd_sqrt, trace_norm
from nonlocality.states import (
    POVM_SUM_TOL,
    WEIGHT_SUM_TOL,
    DensityMatrix,
    Ensemble,
    Povm,
    SubnormalizedState,
    _check_weights,
    basis_state,
    ensemble_average,
    fidelity,
    maximally_mixed,
    sample_density,
    sample_povm,
    steer,
    trace_distance,
    xz_spin_povm,
)

UNEVEN3_FUNCTIONAL = Path(__file__).parent / "golden" / "inputs" / "uneven3_functional.json"
BAD_COUNTS = [math.nan, 2.5, True, 0, 10**400]

# entry point taking one bad count -> the words its error names the count by
COUNT_TAKERS = {
    "Scenario": (lambda n: Scenario((n,), (2,)), "outcome counts"),
    "universal_fod_bound k": (lambda n: universal_fod_bound(n, 2, 2), "outcome counts"),
    "universal_fod_bound l2": (lambda n: universal_fod_bound(2, 2, n), "outcome counts"),
    "binary_bob_bounds": (lambda n: binary_bob_bounds(n), "outcome counts"),
    "rti_general_bound": (lambda n: rti_general_bound(n, 0.1), "ensemble sizes"),
    "rti_commuting_bound": (lambda n: rti_commuting_bound(n, 0.1), "ensemble sizes"),
    "classical_sharp_example": (lambda n: classical_sharp_example(n, 0.0), "ensemble sizes"),
    "epsilon_from_average_distance l1": (
        lambda n: epsilon_from_average_distance(0.5, n, 2), "ensemble sizes"
    ),
    "epsilon_from_average_distance l2": (
        lambda n: epsilon_from_average_distance(0.5, 2, n), "ensemble sizes"
    ),
    "sample_density dim": (lambda n: sample_density(n, 1, seed=0), "dimension and rank"),
    "sample_density rank": (lambda n: sample_density(3, n, seed=0), "dimension and rank"),
    "sample_povm dim": (lambda n: sample_povm(n, 2, seed=0), "dimension and outcome count"),
    "sample_povm outcomes": (lambda n: sample_povm(2, n, seed=0), "dimension and outcome count"),
    "sample_rti_instance dim": (lambda n: sample_rti_instance(n, 2, seed=0), "dimensions"),
    "sample_rti_instance l": (lambda n: sample_rti_instance(3, n, seed=0), "ensemble sizes"),
    "rti_campaign dims": (lambda n: rti_campaign([3, n], [2], 1, 0), "dimensions"),
    "rti_campaign ls": (lambda n: rti_campaign([3], [2, n], 1, 0), "ensemble sizes"),
}


@pytest.mark.parametrize("bad", BAD_COUNTS, ids=["nan", "2.5", "True", "0", "10**400"])
@pytest.mark.parametrize("taker", COUNT_TAKERS)
def test_every_count_taker_rejects_a_bad_count(taker, bad):
    call, quantity = COUNT_TAKERS[taker]
    with pytest.raises(ValueError, match=quantity):
        call(bad)


def test_numpy_integer_counts_pass():
    assert rti_general_bound(np.int64(2), 0.5) == rti_general_bound(2, 0.5)
    assert epsilon_from_average_distance(0.0, np.int32(2), 2) == 0.25
    assert sample_rti_instance(np.int64(3), np.int64(2), seed=0).l == 2


def test_ensemble_sizes_whose_product_passes_float_range():
    # each size fits a float, their product does not: the floor underflows to 0
    assert epsilon_from_average_distance(0.5, 10**200, 10**200) == 0.0
    assert epsilon_from_average_distance(0.5, 3, 7) == (1.5 / 2.0) ** 2 / 21


def test_rti_dimension_one_names_the_separation():
    for call in (lambda: sample_rti_instance(1, 2, seed=0), lambda: rti_campaign([2, 1], [1], 1, 0)):
        with pytest.raises(ValueError, match="need dim >= 2"):
            call()


def test_campaign_checks_every_cell_before_drawing(monkeypatch):
    def draw(*args):
        raise AssertionError("drew an instance before rejecting a bad size")

    monkeypatch.setattr(rti, "_draw_rti", draw)
    with pytest.raises(ValueError, match="ensemble sizes must be at least 1"):
        rti_campaign([2, 3], [1, 0], 5, 0)


def test_cli_ensemble_size_error_is_the_library_message(capsys):
    assert main(["verify-rti", "--trials", "1", "--dims", "2", "--l", "2,0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: ensemble sizes must be at least 1\n"


def _two_members():
    sigma = basis_state(0, 3)
    return sigma, (basis_state(1, 3), basis_state(2, 3))


# entry point taking an n-member weight vector -> (n, call on weights)
WEIGHT_TAKERS = {
    "Ensemble": (2, lambda w: Ensemble(weights=w, states=_two_members()[1])),
    "local_box": (16, lambda w: local_box(chsh_scenario(), w)),
    # its ensemble takes the weights
    "RtiInstance": (2, lambda w: RtiInstance(_two_members()[0], Ensemble(w, _two_members()[1]), 0.0)),
}


def _bad_weights(n: int) -> dict:
    """Weight vectors of length n, each wrong in one way, and the words the
    error for it names."""
    uniform = np.full(n, 1.0 / n)
    nan, low, heavy = uniform.copy(), uniform.copy(), uniform.copy()
    nan[0] = math.nan
    low[0], low[1] = -2e-10, low[0] + low[1] + 2e-10
    heavy[0] += 2e-10
    return {
        "nan": (nan, "nonnegative numbers, min is nan"),
        "below floor": (low, "nonnegative numbers, min is -2e-10"),
        "heavy sum": (heavy, "weights sum to"),
        "wrong length": (uniform[:-1] * n / (n - 1), "weights and members disagree in length"),
        "empty": (uniform[:0], "weights and members disagree in length"),
    }


@pytest.mark.parametrize("case", ["nan", "below floor", "heavy sum", "wrong length", "empty"])
@pytest.mark.parametrize("taker", WEIGHT_TAKERS)
def test_every_weight_taker_rejects_bad_weights(taker, case):
    n, call = WEIGHT_TAKERS[taker]
    w, message = _bad_weights(n)[case]
    with pytest.raises(ValueError, match=message):
        call(w)


@pytest.mark.parametrize("taker", WEIGHT_TAKERS)
def test_one_vector_takers_reject_a_stack(taker):
    n, call = WEIGHT_TAKERS[taker]
    with pytest.raises(ValueError, match="weights and members disagree in length"):
        call(np.full((3, n), 1.0 / n))


@pytest.mark.parametrize("case", ["nan", "below floor", "heavy sum"])
def test_a_stack_names_its_first_bad_row(case):
    good = np.full(2, 0.5)
    w, message = _bad_weights(2)[case]
    stack = np.stack([good, w, good])
    with pytest.raises(ValueError, match=message):
        _check_weights(stack, (3, 2))
    with pytest.raises(ValueError, match="disagree in length"):
        _check_weights(stack[:, :1] * 2.0, (3, 2))
    assert _check_weights(np.stack([good] * 3), (3, 2)).flags.writeable is False


def test_campaign_checks_its_stacked_weights(monkeypatch):
    unpack = rti._unpack_rti

    def corrupt(*args):
        *draws, weights = unpack(*args)
        weights[-1, 0] += 2e-10
        return (*draws, weights)

    monkeypatch.setattr(rti, "_unpack_rti", corrupt)
    with pytest.raises(ValueError, match="weights sum to"):
        rti_campaign([3], [2], 4, 0)


def test_weight_check_leaves_the_callers_array_writable():
    w = np.array([0.25, 0.75])
    e = Ensemble(weights=w, states=_two_members()[1])
    assert w.flags.writeable and not e.weights.flags.writeable


def test_local_box_weights_at_the_shared_tolerance():
    sc = chsh_scenario()
    uniform = np.full(16, 1.0 / 16.0)
    # the sum may sit WEIGHT_SUM_TOL = 1e-10 off 1, not NORMALIZATION_TOL = 1e-9
    assert WEIGHT_SUM_TOL == 1e-10
    local_box(sc, uniform * (1.0 + 5e-11))
    with pytest.raises(ValueError, match="weights sum to"):
        local_box(sc, uniform * (1.0 + 5e-10))
    # a weight may sit WEIGHT_SUM_TOL below 0, not only ENTRY_TOL = 1e-12
    w = uniform.copy()
    w[0], w[1] = -5e-11, w[0] + w[1] + 5e-11
    local_box(sc, w)


def test_rti_weights_at_the_shared_tolerance():
    sigma, rhos = _two_members()
    RtiInstance(sigma, Ensemble(np.array([-5e-11, 1.0 + 5e-11]), rhos), 0.0)
    RtiInstance(sigma, Ensemble(np.array([0.5, 0.5 + 5e-11]), rhos), 0.0)
    with pytest.raises(ValueError, match="nonnegative"):
        RtiInstance(sigma, Ensemble(np.array([-2e-10, 1.0 + 2e-10]), rhos), 0.0)


@pytest.mark.parametrize("mu", [math.nan, math.inf, -math.inf])
def test_mu_objective_rejects_non_finite_mu(mu):
    with pytest.raises(ValueError, match="finite mu > 1"):
        mu_objective(mu)


def test_deterministic_strategy_rejects_non_integer_outputs():
    for alice, bob in (((1.7, 0), (0, 1)), ((1, 0), (0, True)), ((1, 0), (np.bool_(True), 0))):
        with pytest.raises(ValueError, match="outputs must be integers"):
            DeterministicStrategy(alice, bob)
    strategy = DeterministicStrategy(np.array([1, 0]), (np.int64(0), 1))
    assert strategy == DeterministicStrategy((1, 0), (0, 1))
    assert all(type(o) is int for o in strategy.alice + strategy.bob)
    assert deterministic_box(strategy, chsh_scenario()).p[1, 1, 0, 1] == 1.0


def test_campaign_rejects_bad_trials_and_seeds():
    cases = [
        ({"trials": -3}, "trials must be nonnegative, got -3"),
        ({"trials": True}, "trials must be an integer, got True"),
        ({"trials": 2.0}, "trials must be an integer, got 2.0"),
        ({"seed": True}, "seed must be an integer, got True"),
        ({"seed": 2.5}, "seed must be an integer, got 2.5"),
        ({"seed": np.True_}, "seed must be an integer"),
        ({"trials": 0, "seed": -1}, "expected non-negative integer"),
    ]
    for bad, message in cases:
        args = {"trials": 1, "seed": 0, **bad}
        with pytest.raises(ValueError, match=message):
            rti_campaign([3], [2], **args)
    # no trials is an empty row, and numpy integers count as integers
    (row,) = rti_campaign([3], [2], 0, 0)
    assert (row.trials, row.violations, row.min_slack) == (0, 0, math.inf)
    assert rti_campaign([3], [2], np.int64(2), np.int32(5)) == rti_campaign([3], [2], 2, 5)


# Input that a boundary check accepts is never rejected inside. The states
# and POVMs below pass `DensityMatrix` and `Povm` at their tolerances; the
# steered operators, their averages and the Born-rule box derived from them
# sit a multiple of those tolerances off, which is no reason to reject them.

QUBIT_QUTRIT_EDGE = np.diag([-9e-11] * 3 + [1 / 3 + 9e-11] * 3)  # min eigenvalue -9e-11


def _qutrit_basis(scale: float = 1.0) -> Povm:
    return Povm(tuple(np.diag(row) * scale for row in np.eye(3)))


def test_edge_state_averages_are_not_rechecked():
    # the reduced state on the qubit has minimum eigenvalue 3 * -9e-11
    rho = DensityMatrix(QUBIT_QUTRIT_EDGE)
    bob = _qutrit_basis()
    trace = fod_floor_pipeline(rho, bob, bob, [xz_spin_povm(0.0), xz_spin_povm(math.pi / 2)])
    assert isinstance(trace, PipelineTrace) and trace.passed


def test_edge_state_average_has_a_fidelity():
    # Tr_B of the accepted state has minimum eigenvalue 2 * -1e-10, past PSD_TOL
    rho = DensityMatrix(np.diag([-1e-10, -1e-10, 0.5 + 1e-10, 0.5 + 1e-10]))
    average = ensemble_average(steer(rho, Povm((np.eye(2),))))
    assert fidelity(average, maximally_mixed(2)) == pytest.approx(math.sqrt(0.5), abs=1e-9)
    assert all(record.holds for record in fvdg_check(average, maximally_mixed(2)))


def test_state_at_its_trace_tolerance_embeds():
    # trace 1 + 1e-10 puts a deficit of about -1e-10 on a diagonal slot
    rho, sigma = SubnormalizedState(np.diag([0.5, 0.5 + 1e-10])), maximally_mixed(2)
    big_rho, big_sigma = embed_subnormalized(rho, sigma)
    assert big_rho.trace() == pytest.approx(1.0, abs=1e-15) and big_sigma.trace() == 1.0
    gap = rho.trace() + sigma.trace() - trace_distance(rho, sigma)
    assert 2.0 - trace_distance(big_rho, big_sigma) == pytest.approx(gap, abs=1e-9)


def test_edge_state_steered_operators_are_not_rechecked():
    # Tr_B((I (x) N_0) rho) has minimum eigenvalue Tr N_0 * -9e-11 = -1.8e-10
    rho = DensityMatrix(QUBIT_QUTRIT_EDGE)
    bob = Povm((np.diag([1.0, 1.0, 0.0]), np.diag([0.0, 0.0, 1.0])))
    trace = fod_floor_pipeline(rho, bob, bob, [xz_spin_povm(0.0), xz_spin_povm(math.pi / 2)])
    assert isinstance(trace, PipelineTrace) and trace.passed


def _edge_povm_realization():
    # each POVM sums to (1 + 9e-10) I, so each block of the Born-rule table
    # sums to (1 + 9e-10)^2, past NORMALIZATION_TOL
    povm = _qutrit_basis(1.0 + 9e-10)
    return maximally_mixed(9), [povm, povm], [povm, povm]


def _assert_round_trips(box: Box) -> None:
    again = Box.from_dict(box.to_dict())
    assert again.p.tobytes() == box.p.tobytes()


def test_edge_povm_box_round_trips():
    rho, alice, bob = _edge_povm_realization()
    trace = fod_floor_pipeline(rho, bob[0], bob[1], alice)
    assert isinstance(trace, PipelineTrace) and trace.passed
    # each block is divided by its own sum, so a boundary check accepts the box
    _assert_round_trips(quantum_box(rho, alice, bob))


def test_saved_edge_povm_box_exits_0(tmp_path):
    path = tmp_path / "box.json"
    path.write_text(json.dumps(quantum_box(*_edge_povm_realization()).to_dict()))
    assert main(["box", str(path), "--ops", "ns,fod,cf", "--out", str(tmp_path / "report.json")]) == 0


def test_local_box_of_weights_at_the_tolerance_round_trips():
    # the weight check accepts a sum of 1 + 9e-11, but the one used
    # strategy's cells would then exceed 1 + ENTRY_TOL
    box = local_box(chsh_scenario(), np.eye(16)[0] * (1.0 + 9e-11))
    _assert_round_trips(box)
    assert box.p.max() == 1.0


@pytest.mark.parametrize("key, bad", [("nA", True), ("nB", 2.0), ("nA", 1.0), ("nB", "2")])
def test_scenario_input_counts_are_json_integers(tmp_path, capsys, key, bad):
    # one Alice input, so that true would equal her input count
    d = maximally_mixed_box(Scenario((2,), (2, 2))).to_dict()
    Box.from_dict(d)
    d["scenario"][key] = bad
    with pytest.raises(ValueError, match="input counts .* are not the integer lengths"):
        Scenario.from_dict(d["scenario"])
    path = tmp_path / "box.json"
    path.write_text(json.dumps(d))
    assert main(["box", str(path), "--ops", "ns"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "are not the integer lengths of the outcome lists" in captured.err


def _huge_functional(cell: float) -> dict:
    return {"scenario": chsh_scenario().to_dict(), "s": [[[[cell] * 2] * 2] * 2] * 2}


@pytest.mark.parametrize(
    "functional, message",
    [
        (_huge_functional(1e308), "overflow a sum"),
        # a well-formed functional on the uneven 3-input scenario, not the box's
        (json.loads(UNEVEN3_FUNCTIONAL.read_text()), "functional and box live on different scenarios"),
    ],
    ids=["malformed", "other_scenario"],
)
def test_box_checks_its_functional_before_any_op(tmp_path, capsys, monkeypatch, functional, message):
    box_path, functional_path = tmp_path / "box.json", tmp_path / "functional.json"
    box_path.write_text(json.dumps(pr_box().to_dict()))
    functional_path.write_text(json.dumps(functional))
    argv = ["box", str(box_path), "--ops", "cf,bell", "--functional", str(functional_path)]
    assert main(argv) == 2
    expected = capsys.readouterr()

    def no_lp(box):
        raise AssertionError("cf_exact ran before the functional was checked")

    monkeypatch.setattr(cli, "cf_exact", no_lp)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured == expected and captured.out == "" and message in captured.err


def test_single_outcome_povm_is_not_rechecked():
    # S has condition number 4.8e6, so S^(-1/2) S S^(-1/2) sits about 1e-10
    # off Hermitian before its Hermitian part is taken
    p = sample_povm(4, 1, (3073, 4, 1))
    assert p.elements.shape == (1, 4, 4)
    Povm(tuple(p.elements))


def test_bell_ceiling_must_be_finite():
    # (1 - c) beta_alg + c beta_det: opposite maxima near the float maximum
    # no longer overflow in their difference
    assert bell_bound_from_fod(1e308, -1e308, 0.0) == 1e308
    assert bell_bound_from_fod(1e308, -1e308, 0.5) == 0.0
    assert bell_bound_from_fod(1e307, -1e307, 0.5) == 0.0
    top = sys.float_info.max
    assert bell_bound_from_fod(top, top, 1.0) == top
    with pytest.raises(ValueError, match="ceiling overflows"):
        bell_bound_from_fod(top, top, 1 + 5e-13)


def test_decompositions_refuse_what_they_cannot_bound():
    # Alice's outcome follows Bob's input: a signalling box
    t = np.zeros(chsh_scenario().shape)
    t[:, 0, 0, 0] = t[:, 1, 1, 0] = 1.0
    for decompose in (fod_exact, cf_exact):
        with pytest.raises(ValueError, match="needs a no-signalling box: alice marginal at x=0"):
            decompose(Box(chsh_scenario(), t))
    with pytest.raises(ValueError, match="must be finite"):
        bell_bound_from_fod(math.nan, 2.0, 0.5)
    with pytest.raises(ValueError, match=r"fraction must lie in \[0, 1\]"):
        bell_bound_from_fod(4.0, 2.0, 1.5)
    with pytest.raises(ValueError, match="cannot exceed the algebraic maximum"):
        bell_bound_from_fod(2.0, 4.0, 0.5)


def test_functional_cells_must_sum_finitely():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="16 cells of magnitude up to -?1e\\+308 overflow a sum"):
            BellFunctional.from_dict(_huge_functional(1e308))
        with pytest.raises(ValueError, match="overflow a sum"):
            BellFunctional(chsh_scenario(), chsh_functional().s * -2e307)
        # 16 cells of 1e307 stay below the float range
        f = BellFunctional.from_dict(_huge_functional(1e307))
    assert bell_algebraic_max(f) == 4e307


def test_cli_prints_the_ceiling_of_opposite_huge_maxima(capsys):
    assert main(["bounds", "2", "2", "2", "--beta-alg", "1e308", "--beta-det=-1e308"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    rows = {row["name"]: row["computed"] for row in json.loads(captured.out)["rows"]}
    c = universal_fod_bound(2, 2, 2).theorem_form
    assert rows["bell_bound"] == (1 - c) * 1e308 + c * -1e308


def test_cli_rejects_an_overflowing_functional(tmp_path, capsys):
    box_path, functional_path = tmp_path / "box.json", tmp_path / "functional.json"
    box_path.write_text(json.dumps(pr_box().to_dict()))
    functional_path.write_text(json.dumps(_huge_functional(1e308)))
    argv = ["box", str(box_path), "--ops", "bell", "--functional", str(functional_path)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "overflow a sum" in captured.err


def _first_block_fault(sc: Scenario, rows, kind: str):
    """Per-block oracle of `from_dict`'s cell checks: the message for the
    first faulty block in x-major order, each block checked for presence,
    shape, cell types and then float range, or None."""
    for x, ka in enumerate(sc.outcomes_a):
        for y, kb in enumerate(sc.outcomes_b):
            try:
                block = rows[x][y]
            except (TypeError, KeyError, IndexError):
                return f"{kind} dict has no block at input pair ({x}, {y})"
            if not (
                type(block) is list
                and len(block) == ka
                and all(type(row) is list and len(row) == kb for row in block)
                and all(type(v) in (int, float) for row in block for v in row)
            ):
                return f"{kind} block at input pair ({x}, {y}) is not a {ka} x {kb} table of numbers"
            for v in (v for row in block for v in row):
                try:
                    float(v)
                except OverflowError:
                    return f"{kind} block at input pair ({x}, {y}) has an integer too large for a float"
    return None


def _damage(rows: list, x: int, y: int, how: str, rng) -> None:
    """Damage block (x, y) of a box dict's cells in place."""
    block = rows[x][y]
    a = int(rng.integers(len(block)))
    b = int(rng.integers(len(block[a])))
    if how == "missing":
        del rows[x][y:]
    elif how == "not a list":
        rows[x][y] = {"0": block}
    elif how == "short row":
        block[a].pop()
    elif how == "long block":
        block.append(list(block[a]))
    else:
        block[a][b] = {"bool": True, "string": "0.25", "nested": [0.25], "huge": -(10**400)}[how]


def test_from_dict_reports_the_per_block_oracles_first_fault():
    # up to three faults per dict: the first block with one, and that block's
    # first failing check, name the error
    kinds = ["missing", "not a list", "short row", "long block", "bool", "string", "nested", "huge"]
    for seed in range(300):
        rng = np.random.default_rng(seed)
        sc = Scenario(*(tuple(rng.integers(1, 4, size=rng.integers(1, 4)).tolist()) for _ in "ab"))
        strategy = DeterministicStrategy(*(tuple(rng.integers(k).tolist()) for k in (sc.outcomes_a, sc.outcomes_b)))
        box = deterministic_box(strategy, sc)
        # JSON integers are cells too
        rows = [
            [[[int(v) if rng.random() < 0.5 else v for v in row] for row in block] for block in blocks]
            for blocks in box.to_dict()["p"]
        ]
        pairs = list(itertools.product(range(sc.inputs_a), range(sc.inputs_b)))
        for i in rng.choice(len(pairs), size=min(len(pairs), rng.integers(0, 4)), replace=False):
            x, y = pairs[i]
            if y < len(rows[x]):
                _damage(rows, x, y, kinds[rng.integers(len(kinds))], rng)
        for cls in (Box, BellFunctional):
            d = {"scenario": sc.to_dict(), cls._FIELD: rows}
            expected = _first_block_fault(sc, rows, cls._KIND)
            if expected is None:
                assert getattr(cls.from_dict(d), cls._FIELD).tobytes() == box.p.tobytes()
            else:
                with pytest.raises(ValueError) as raised:
                    cls.from_dict(d)
                assert str(raised.value) == expected


def _povm_with(first: np.ndarray) -> tuple:
    """Two 2 x 2 elements: `first` and I - `first`, entry by entry."""
    return first, np.eye(2) - first


@pytest.mark.parametrize(
    "check",
    [DensityMatrix, lambda m: Povm((m, np.eye(2) - m)), trace_norm, psd_sqrt],
    ids=["DensityMatrix", "Povm", "trace_norm", "psd_sqrt"],
)
@pytest.mark.parametrize("entry", [(0, 0), (0, 1)], ids=["diagonal", "facing off-diagonal pair"])
def test_infinite_entries_facing_each_other_raise_unwarned(check, entry):
    # inf - inf in the Hermitian check is NaN, and the check names it; numpy
    # must not warn first, so even an error filter sees the ValueError
    m = np.diag([0.5, 0.5])
    m[entry] = m[entry[::-1]] = np.inf
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError) as raised:
            check(m)
    assert str(raised.value) == "matrix is not Hermitian: max|A - A^dag| = nan"


def test_povm_rejects_what_its_checks_name():
    # `Povm` checks no trace window: these are the faults it still names,
    # each with the message of the full state check it used to share
    half = np.eye(2) / 2
    cases = [
        ((np.array([[np.nan, 0.0], [0.0, 0.5]]), half), "matrix is not Hermitian: max|A - A^dag| = nan"),
        ((np.array([[0.5, np.inf], [0.0, 0.5]]), half), "matrix is not Hermitian: max|A - A^dag| = inf"),
        ((np.array([[0.5, 0.1], [0.0, 0.5]]), half), "matrix is not Hermitian: max|A - A^dag| = 1.000e-01"),
        (_povm_with(np.diag([-3 * PSD_TOL, 0.5])), "POVM element is not PSD: min eigenvalue = -3.000e-10"),
        ((half, np.diag([0.5 + 3 * POVM_SUM_TOL, 0.5])), "POVM does not sum to identity: max deviation = 3.000e-09"),
    ]
    for elements, message in cases:
        with pytest.raises(ValueError) as raised:
            Povm(elements)
        assert str(raised.value) == message
    # an infinite diagonal entry meets itself as inf - inf
    with pytest.raises(ValueError) as raised:
        Povm((np.array([[np.inf, 0.0], [0.0, 0.5]]), half))
    assert str(raised.value) == "matrix is not Hermitian: max|A - A^dag| = nan"
    # inside each tolerance the same kinds of element pass
    Povm(_povm_with(np.diag([-0.5 * PSD_TOL, 0.5])))
    Povm((half, np.diag([0.5 + 0.5 * POVM_SUM_TOL, 0.5])))
    # the trace window stays on states
    with pytest.raises(ValueError) as raised:
        DensityMatrix(np.diag([0.5, 0.6]))
    assert str(raised.value) == "state has trace 1.1, expected within [1.0, 1.0]"
