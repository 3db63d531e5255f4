"""Reverse triangle inequality: bounds, certificates, extremal tightness,
classical sharpness, and the two proof-ingredient inequalities."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from nonlocality import rti
from nonlocality.rti import (
    RTI_CHUNK,
    ClassicalSharpExample,
    RtiInstance,
    classical_sharp_example,
    embed_subnormalized,
    extremal_family,
    extremal_gaps,
    fvdg_check,
    l1_distance,
    rotfeld_check,
    rti_campaign,
    rti_commuting_bound,
    rti_general_bound,
    sample_rti_instance,
    subnormalized_gap,
    verify_rti,
)
from nonlocality.states import (
    DensityMatrix,
    SubnormalizedState,
    basis_state,
    maximally_mixed,
    pure_state,
    sample_density,
    trace_distance,
)


def test_bound_formulas():
    assert rti_general_bound(2, 0.5) == pytest.approx(0.0)
    assert rti_general_bound(1, 0.0) == pytest.approx(2.0)
    assert rti_commuting_bound(3, 0.1) == pytest.approx(1.7)
    for bad in (-0.1, 2.1):
        with pytest.raises(ValueError):
            rti_general_bound(2, bad)
        with pytest.raises(ValueError):
            rti_commuting_bound(2, bad)
    with pytest.raises(ValueError):
        rti_general_bound(0, 0.1)


def test_instance_certificate_validation():
    sigma = basis_state(0, 2)
    rhos = (basis_state(1, 2),)
    RtiInstance(sigma=sigma, rhos=rhos, weights=np.array([1.0]), epsilon=0.0)
    RtiInstance(sigma=sigma, rhos=rhos, weights=np.array([1.0]), epsilon=0.5)  # loose ok
    with pytest.raises(ValueError, match="invalid certificate"):
        # tight eps for |+> vs |0> is 2 - sqrt(2) ~ 0.586, claim 0.1 is too strong
        RtiInstance(
            sigma=sigma,
            rhos=(pure_state(np.array([1.0, 1.0]) / math.sqrt(2.0)),),
            weights=np.array([1.0]),
            epsilon=0.1,
        )
    with pytest.raises(ValueError, match="probability"):
        RtiInstance(sigma=sigma, rhos=rhos, weights=np.array([0.5]), epsilon=0.0)


def test_instance_rejects_nan_weight_and_epsilon():
    sigma = basis_state(0, 3)
    rhos = (basis_state(1, 3), basis_state(2, 3))
    with pytest.raises(ValueError, match="probability"):
        RtiInstance(sigma=sigma, rhos=rhos, weights=np.array([np.nan, 1.0]), epsilon=0.0)
    with pytest.raises(ValueError, match="epsilon"):
        RtiInstance(sigma=sigma, rhos=rhos, weights=np.array([0.5, 0.5]), epsilon=math.nan)


def test_verify_orthogonal_single_member():
    inst = RtiInstance(
        sigma=basis_state(0, 2),
        rhos=(basis_state(1, 2),),
        weights=np.array([1.0]),
        epsilon=0.0,
    )
    report = verify_rti(inst)
    assert report.passed
    assert report.lhs == pytest.approx(2.0)
    assert report.bound == pytest.approx(2.0)
    assert report.slack == pytest.approx(0.0, abs=1e-12)
    assert report.to_dict()["pass"] is True


def test_verify_uses_tight_epsilon_when_stored_is_loose():
    inst = RtiInstance(
        sigma=basis_state(0, 2),
        rhos=(basis_state(1, 2),),
        weights=np.array([1.0]),
        epsilon=1.0,
    )
    report = verify_rti(inst)
    assert report.epsilon == pytest.approx(0.0, abs=1e-9)
    assert report.epsilon_stored == 1.0


def test_commuting_flag_rejects_noncommuting():
    inst = RtiInstance(
        sigma=basis_state(0, 2),
        rhos=(pure_state(np.array([1.0, 1.0]) / math.sqrt(2.0)),),
        weights=np.array([1.0]),
        epsilon=2.0 - math.sqrt(2.0),
    )
    with pytest.raises(ValueError, match="commute"):
        verify_rti(inst, commuting=True)


def test_commuting_bound_on_diagonal_family():
    # point masses vs a reference holding eps/2 on each point-mass slot:
    # member distances 2 - eps, mixture distance exactly 2 - 2 eps
    eps = 0.2
    sigma = DensityMatrix(np.diag([eps / 2.0, eps / 2.0, 1.0 - eps]))
    rho1 = DensityMatrix(np.diag([1.0, 0.0, 0.0]))
    rho2 = DensityMatrix(np.diag([0.0, 1.0, 0.0]))
    inst = RtiInstance(
        sigma=sigma, rhos=(rho1, rho2), weights=np.array([0.5, 0.5]), epsilon=eps
    )
    report = verify_rti(inst, commuting=True)
    assert report.passed
    assert report.lhs == pytest.approx(2.0 - 2.0 * eps)
    assert report.bound == pytest.approx(2.0 - 2.0 * eps)


@given(st.integers(0, 10_000), st.integers(2, 4), st.integers(1, 4))
def test_random_instances_satisfy_general_bound(seed, dim, l):
    inst = sample_rti_instance(dim, l, (seed, dim, l))
    assert verify_rti(inst).slack >= -1e-8


@given(st.integers(0, 10_000), st.integers(2, 4), st.integers(1, 4))
def test_random_diagonal_instances_satisfy_commuting_bound(seed, dim, l):
    inst = sample_rti_instance(dim, l, (seed, dim, l), commuting=True)
    assert verify_rti(inst, commuting=True).slack >= -1e-8


def test_campaign_rows():
    rows = rti_campaign([2, 3], [2], 25, seed=3)
    assert len(rows) == 2
    assert all(r.violations == 0 and r.trials == 25 for r in rows)
    # deterministic per seed
    again = rti_campaign([2, 3], [2], 25, seed=3)
    assert [r.min_slack for r in rows] == [r.min_slack for r in again]


def _oracle_row(dim, l, trials, seed, commuting):
    """(violations, min slack) of a campaign cell, one instance at a time."""
    slacks, violations = [], 0
    for t in range(trials):
        inst = sample_rti_instance(dim, l, (seed, dim, l, t), commuting)
        report = verify_rti(inst, commuting=commuting)
        slacks.append(report.slack)
        violations += 0 if report.passed else 1
    return violations, float(min(slacks, default=np.inf))


EDGE_SEEDS = (0, 2**32 - 1, 2**32, 2**64 + 3)


@given(
    st.integers(0, 10_000) | st.sampled_from(EDGE_SEEDS) | st.integers(2**32, 2**70),
    st.integers(2, 5),
    st.integers(1, 4),
    st.booleans(),
    st.integers(1, 9),
    st.integers(1, 4),
)
def test_campaign_matches_per_instance_oracle(seed, dim, l, commuting, trials, chunk):
    with mock.patch.object(rti, "RTI_CHUNK", chunk):
        (row,) = rti_campaign([dim], [l], trials, seed, commuting)
    assert (row.violations, row.min_slack) == _oracle_row(dim, l, trials, seed, commuting)


@pytest.mark.parametrize("commuting", [False, True])
def test_campaign_across_a_chunk_boundary_matches_oracle(commuting):
    trials = RTI_CHUNK + 5
    (row,) = rti_campaign([3], [2], trials, 17, commuting)
    assert row.trials == trials
    assert (row.violations, row.min_slack) == _oracle_row(3, 2, trials, 17, commuting)
    (empty,) = rti_campaign([3], [2], 0, 17, commuting)
    assert (empty.violations, empty.min_slack) == (0, math.inf)


def test_campaign_keeps_the_per_instance_state_checks():
    gram_state = rti._gram_state
    with mock.patch.object(rti, "_gram_state", lambda g: -gram_state(g)):
        with pytest.raises(ValueError, match="not PSD"):
            sample_rti_instance(3, 2, 1)
        with pytest.raises(ValueError, match="not PSD"):
            rti_campaign([3], [2], 4, 1)
    with pytest.raises(ValueError, match="dim >= 2"):
        rti_campaign([1], [2], 4, 1)
    with pytest.raises(ValueError, match="ensemble sizes must be at least 1"):
        rti_campaign([3], [0], 4, 1)


def _draw_rti_oracle(dim, l, rng, commuting):
    """The draws of one instance made call by call, as the draw step's
    oracle: (split, sigma's block draw, base, leak, noise, weights), with
    base, leak and noise stacked over the members."""

    def block(width):
        if commuting:
            return rng.random(width) + 1e-3
        return rng.standard_normal((width, width)) + 1j * rng.standard_normal((width, width))

    split = int(rng.integers(1, dim))
    sigma = block(split)
    members = []
    for _ in range(l):
        base = block(dim - split)
        leak = rng.uniform(0.0, 0.05)
        members.append((base, leak, block(dim)))
    base, leak, noise = (np.array(field) for field in zip(*members))
    weights = rng.random(l) + 0.1
    weights /= weights.sum()
    return split, sigma, base, leak, noise, weights


def _assert_draws_match_oracle(dim, l, commuting, seed, trials):
    """Draw and unpack `trials` instances, stacked by split as the campaign
    stacks them, and compare every field with the oracle byte for byte."""
    seeds = [(seed, dim, l, t) for t in range(trials)]
    by_split = {}
    for s in seeds:
        split, raw = rti._draw_rti(dim, l, np.random.default_rng(s), commuting)
        by_split.setdefault(split, []).append((s, raw))
    for split, group in by_split.items():
        fields = rti._unpack_rti(dim, l, split, np.stack([raw for _, raw in group]), commuting)
        for row, (s, _) in enumerate(group):
            want = _draw_rti_oracle(dim, l, np.random.default_rng(s), commuting)
            assert split == want[0]
            for got, expected in zip(fields, want[1:]):
                got = got[row]
                assert (got.shape, got.dtype) == (expected.shape, expected.dtype)
                assert got.tobytes() == expected.tobytes()


@given(
    st.integers(2, 8),
    st.integers(1, 6),
    st.booleans(),
    st.sampled_from(EDGE_SEEDS) | st.integers(0, 2**64 + 3),
    st.integers(1, 6),
)
def test_draw_and_unpack_match_the_call_by_call_oracle(dim, l, commuting, seed, trials):
    _assert_draws_match_oracle(dim, l, commuting, seed, trials)


@pytest.mark.parametrize("commuting", [False, True])
def test_draw_and_unpack_match_the_oracle_on_every_cell(commuting):
    for dim in range(2, 9):
        for l in range(1, 7):
            for seed in EDGE_SEEDS:
                _assert_draws_match_oracle(dim, l, commuting, seed, 3)


@given(
    st.sampled_from(EDGE_SEEDS) | st.integers(0, 2**70),
    st.integers(2, 16),
    st.integers(1, 8),
    st.lists(st.integers(0, 2**70), max_size=3),
)
def test_trial_states_match_default_rng(seed, dim, l, more_trials):
    trials = [0, 2**32 - 1, 2**32, *more_trials]
    for t, state in zip(trials, rti._trial_states(seed, dim, l, trials), strict=True):
        assert state == np.random.default_rng((seed, dim, l, t)).bit_generator.state


def test_instance_rejects_mismatched_lengths_and_dimensions():
    sigma = basis_state(0, 2)
    with pytest.raises(ValueError, match="disagree in length"):
        RtiInstance(sigma=sigma, rhos=(), weights=np.array([]), epsilon=0.0)
    with pytest.raises(ValueError, match="disagree in length"):
        RtiInstance(sigma=sigma, rhos=(basis_state(1, 2),), weights=np.array([0.5, 0.5]), epsilon=0.0)
    with pytest.raises(ValueError, match="dimension mismatch"):
        RtiInstance(sigma=sigma, rhos=(basis_state(1, 3),), weights=np.array([1.0]), epsilon=0.0)


def test_commuting_check_on_stacks():
    diag = np.stack([np.diag([0.5, 0.5]), np.diag([1.0, 0.0])]).astype(complex)
    plus = np.stack([np.diag([0.5, 0.5]), np.full((2, 2), 0.5)]).astype(complex)
    rti._check_commuting([diag, diag[::-1]])
    with pytest.raises(ValueError, match="commute"):
        rti._check_commuting([diag, plus])


def test_subnormalized_gap_oracle():
    x = SubnormalizedState(np.diag([0.5, 0.0]))
    y = SubnormalizedState(np.diag([0.0, 0.5]))
    assert subnormalized_gap(x, y) == pytest.approx(0.0, abs=1e-12)
    assert subnormalized_gap(x, x) == pytest.approx(1.0)


def test_extremal_family_gap_formulas():
    for r in np.linspace(0.0, 1.0, 21):
        rho1, rho2, sigma = extremal_family(float(r))
        member, mixture = extremal_gaps(float(r))
        assert subnormalized_gap(rho1, sigma) == pytest.approx(member, abs=1e-12)
        assert subnormalized_gap(rho2, sigma) == pytest.approx(member, abs=1e-12)
        mixed = type(rho1)(0.5 * rho1.mat + 0.5 * rho2.mat)
        assert subnormalized_gap(mixed, sigma) == pytest.approx(mixture, abs=1e-12)
        # tightness of the sqrt: mixture gap squared dominates 2 * member gap
        assert mixture**2 >= 2.0 * member - 1e-12


def test_extremal_ratio_approaches_one():
    member, mixture = extremal_gaps(1e-3)
    ratio = mixture / math.sqrt(2.0 * member)
    assert abs(ratio - 1.0) < 0.02


def test_extremal_family_validation():
    with pytest.raises(ValueError):
        extremal_family(1.5)
    with pytest.raises(ValueError):
        extremal_gaps(-0.1)


def test_embedding_preserves_gap():
    for r in (0.1, 0.3, 0.7):
        rho1, _, sigma = extremal_family(r)
        big_rho, big_sigma = embed_subnormalized(rho1, sigma)
        assert big_rho.trace() == pytest.approx(1.0)
        assert big_sigma.trace() == pytest.approx(1.0)
        gap_before = subnormalized_gap(rho1, sigma)
        gap_after = 2.0 - trace_distance(big_rho, big_sigma)
        assert gap_after == pytest.approx(gap_before, abs=1e-10)


def test_embedded_extremal_family_meets_general_bound():
    for r in (0.05, 0.2, 0.5, 0.9):
        rho1, rho2, sigma = extremal_family(r)
        big1, big_sigma = embed_subnormalized(rho1, sigma)
        big2, _ = embed_subnormalized(rho2, sigma)
        eps = RtiInstance.tight_epsilon_of((big1, big2), big_sigma)
        inst = RtiInstance(
            sigma=big_sigma,
            rhos=(big1, big2),
            weights=np.array([0.5, 0.5]),
            epsilon=eps,
        )
        report = verify_rti(inst)
        assert report.passed


def test_embedding_rejects_overweight():
    with pytest.raises(ValueError, match="share a dimension"):
        embed_subnormalized(
            SubnormalizedState(np.diag([0.5, 0.5])), SubnormalizedState(np.diag([1.0]))
        )


def test_classical_sharp_example_exact():
    for l, eps in ((2, 0.4), (3, 0.2), (4, 0.1)):
        ex = classical_sharp_example(l, eps)
        for g in ex.components:
            assert abs(l1_distance(g, ex.h) - (2.0 - eps)) < 1e-12
        assert abs(l1_distance(ex.mixture(), ex.h) - (2.0 - l * eps)) < 1e-12


def test_classical_sharp_example_validation():
    with pytest.raises(ValueError):
        classical_sharp_example(2, 1.5)  # above 2/l
    with pytest.raises(ValueError):
        classical_sharp_example(0, 0.1)


def test_rotfeld_rejects_an_empty_input():
    with pytest.raises(ValueError, match="at least one matrix"):
        rotfeld_check([])


def test_rotfeld_equality_on_disjoint_supports():
    report = rotfeld_check([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])
    assert report.holds
    assert report.slack == pytest.approx(0.0, abs=1e-12)


@given(st.integers(0, 10_000), st.integers(2, 4), st.integers(2, 4))
def test_rotfeld_on_random_psd(seed, dim, count):
    rng = np.random.default_rng(seed)
    mats = []
    for _ in range(count):
        g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        mats.append(g @ g.conj().T / dim)
    report = rotfeld_check(mats)
    assert report.slack >= -1e-8


def test_fvdg_equality_cases():
    z0, z1 = basis_state(0, 2), basis_state(1, 2)
    low, high = fvdg_check(z0, z0)
    assert low.holds and high.holds
    assert low.lhs == pytest.approx(0.0) and high.rhs == pytest.approx(0.0, abs=1e-8)
    low, high = fvdg_check(z0, z1)  # orthogonal: both sides equal 1
    assert low.slack == pytest.approx(0.0, abs=1e-8)
    assert high.slack == pytest.approx(0.0, abs=1e-8)


@given(st.integers(0, 10_000))
def test_fvdg_on_random_pairs(seed):
    rho = sample_density(3, 3, (seed, 0))
    sigma = sample_density(3, 1, (seed, 1))
    low, high = fvdg_check(rho, sigma)
    assert low.slack >= -1e-8
    assert high.slack >= -1e-8


def test_fvdg_mixed_vs_pure_oracle():
    # F(I/2, |0><0|) = 1/sqrt(2); distance = 1; check the sandwich numerically
    low, high = fvdg_check(maximally_mixed(2), basis_state(0, 2))
    assert low.lhs == pytest.approx(1.0 - 1.0 / math.sqrt(2.0))
    assert low.rhs == pytest.approx(0.5)
    assert high.rhs == pytest.approx(math.sqrt(0.5))
