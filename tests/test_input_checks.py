"""The two boundary checks every entry point shares: counts (ensemble sizes,
outcome counts, dimensions, ranks) and probability weights."""

import math

import numpy as np
import pytest

from nonlocality import rti
from nonlocality.bounds import (
    binary_bob_bounds,
    epsilon_from_average_distance,
    mu_objective,
    universal_fod_bound,
)
from nonlocality.boxes import DeterministicStrategy, Scenario, chsh_scenario, deterministic_box, local_box
from nonlocality.cli import main
from nonlocality.rti import (
    RtiInstance,
    classical_sharp_example,
    rti_campaign,
    rti_commuting_bound,
    rti_general_bound,
    sample_rti_instance,
)
from nonlocality.states import (
    WEIGHT_SUM_TOL,
    Ensemble,
    _check_weights,
    basis_state,
    sample_density,
    sample_povm,
)

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
    "RtiInstance": (2, lambda w: RtiInstance(*_two_members(), weights=w, epsilon=0.0)),
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
    RtiInstance(sigma, rhos, np.array([-5e-11, 1.0 + 5e-11]), 0.0)
    RtiInstance(sigma, rhos, np.array([0.5, 0.5 + 5e-11]), 0.0)
    with pytest.raises(ValueError, match="nonnegative"):
        RtiInstance(sigma, rhos, np.array([-2e-10, 1.0 + 2e-10]), 0.0)


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
