"""States, measurements, ensembles: validation, metrics, steering, sampling."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from nonlocality import states
from nonlocality.states import (
    STEER_DROP_TOL,
    DensityMatrix,
    Ensemble,
    Povm,
    SubnormalizedState,
    basis_state,
    ensemble_average,
    fidelity,
    maximally_mixed,
    pure_state,
    sample_density,
    sample_povm,
    singlet,
    steer,
    trace_distance,
    truncate_ensemble,
    xz_spin_povm,
)
from nonlocality.states import _check_state_matrix

KET_PLUS = np.array([1.0, 1.0]) / math.sqrt(2.0)


def test_density_matrix_validation():
    with pytest.raises(ValueError):
        DensityMatrix(np.diag([0.5, 0.6]))  # trace 1.1
    with pytest.raises(ValueError):
        DensityMatrix(np.diag([1.5, -0.5]))  # negative eigenvalue
    with pytest.raises(ValueError, match="not Hermitian"):
        DensityMatrix(np.array([[1.0, 1.0], [0.0, 0.0]]))
    rho = DensityMatrix(np.diag([0.25, 0.75]))
    assert rho.dim == 2 and rho.trace() == pytest.approx(1.0)
    with pytest.raises(ValueError):
        rho.mat[0, 0] = 9.0  # write-protected


def test_density_matrix_rejects_nan():
    with pytest.raises(ValueError, match="not Hermitian"):
        DensityMatrix(np.array([[1.0, np.nan], [np.nan, 0.0]]))
    with pytest.raises(ValueError):
        DensityMatrix(np.diag([np.nan, 1.0]))


def test_stacked_state_check_matches_one_at_a_time():
    good = np.stack([sample_density(3, 3, s).mat for s in range(4)])
    checked = _check_state_matrix(good, 1.0, 1.0, "state")
    assert checked.shape == (4, 3, 3) and not checked.flags.writeable
    for i in range(4):
        assert np.array_equal(checked[i], DensityMatrix(good[i]).mat)
    for bad, match in (
        (np.diag([1.5, -0.5, 0.0]), "not PSD"),
        (np.diag([0.5, 0.6, 0.0]), "trace 1.1"),
        (np.diag([np.nan, 1.0, 0.0]), "not Hermitian"),
    ):
        stack = good.copy()
        stack[2] = bad
        with pytest.raises(ValueError, match=match):
            _check_state_matrix(stack, 1.0, 1.0, "state")


def test_subnormalized_state_range():
    SubnormalizedState(np.diag([0.2, 0.3]))
    SubnormalizedState(np.zeros((2, 2)))
    with pytest.raises(ValueError):
        SubnormalizedState(np.diag([0.7, 0.6]))  # trace 1.3


def test_pure_and_basis_states():
    rho = pure_state(KET_PLUS)
    assert np.abs(rho.mat - 0.5 * np.ones((2, 2))).max() < 1e-12
    assert np.abs(basis_state(1, 3).mat - np.diag([0.0, 1.0, 0.0])).max() == 0.0
    with pytest.raises(ValueError, match="zero vector"):
        pure_state(np.zeros(2))
    # the zero-vector test scales with the largest entry, not an absolute floor
    assert np.abs(pure_state([1e-13, 0.0]).mat - np.diag([1.0, 0.0])).max() == 0.0
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="non-finite vector entry at index 1"):
            pure_state([1.0, bad])


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "vec, expected",
    [
        # the norm underflows to zero, to a subnormal, or overflows
        ([1e-200, 1e-200], [[0.5, 0.5], [0.5, 0.5]]),
        ([1e-160, 1e-160j], [[0.5, -0.5j], [0.5j, 0.5]]),
        ([1e155, 1e155], [[0.5, 0.5], [0.5, 0.5]]),
        ([1e200, 1e200], [[0.5, 0.5], [0.5, 0.5]]),
    ],
)
def test_pure_state_at_the_ends_of_the_float_range(vec, expected):
    assert np.abs(pure_state(vec).mat - np.array(expected)).max() <= 1e-15


def test_maximally_mixed():
    rho = maximally_mixed(4)
    assert np.abs(rho.mat - np.eye(4) / 4).max() == 0.0


def test_singlet_reduced_states():
    rho = singlet()
    eigs = np.linalg.eigvalsh(rho.mat)
    assert np.abs(eigs - [0.0, 0.0, 0.0, 1.0]).max() < 1e-12  # pure
    from nonlocality.linalg import partial_trace

    red = partial_trace(rho.mat, 2, 2)
    assert np.abs(red - np.eye(2) / 2).max() < 1e-12


def test_xz_spin_povm_poles():
    z = xz_spin_povm(0.0)
    assert np.abs(z.elements[0] - np.diag([1.0, 0.0])).max() < 1e-12
    assert np.abs(z.elements[1] - np.diag([0.0, 1.0])).max() < 1e-12
    x = xz_spin_povm(math.pi / 2.0)
    assert np.abs(x.elements[0] - 0.5 * np.array([[1, 1], [1, 1]])).max() < 1e-12


def test_povm_validation():
    with pytest.raises(ValueError):
        Povm((np.diag([0.5, 0.5]), np.diag([0.5, 0.4])))  # sum != I
    with pytest.raises(ValueError):
        Povm((np.diag([1.5, 1.0]), np.diag([-0.5, 0.0])))  # negative element
    for bad in ((), (np.eye(2), np.eye(3)), np.eye(2), np.ones((2, 2, 3))):
        with pytest.raises(ValueError):  # no, mixed, vector or non-square elements
            Povm(bad)
    p = Povm((np.diag([0.3, 0.7]), np.diag([0.7, 0.3])))
    assert len(p) == 2 and p.dim == 2


def test_ensemble_validation():
    s = (basis_state(0, 2), basis_state(1, 2))
    e = Ensemble(weights=np.array([0.4, 0.6]), states=s)
    assert e.labels == (0, 1) and len(e) == 2 and e.dim == 2
    with pytest.raises(ValueError):
        Ensemble(weights=np.array([0.4, 0.4]), states=s)  # sum != 1
    with pytest.raises(ValueError):
        Ensemble(weights=np.array([1.0]), states=s)
    with pytest.raises(ValueError):
        Ensemble(weights=np.array([0.4, 0.6]), states=s, labels=(1,))
    with pytest.raises(ValueError, match="at least one member"):
        Ensemble(weights=np.array([]), states=())
    with pytest.raises(ValueError, match="mixed dimensions"):
        Ensemble(weights=np.array([0.5, 0.5]), states=(maximally_mixed(2), maximally_mixed(3)))


def test_ensemble_rejects_nan_weight():
    s = (basis_state(0, 2), basis_state(1, 2))
    with pytest.raises(ValueError, match="nonnegative"):
        Ensemble(weights=np.array([np.nan, 1.0]), states=s)


def test_trace_distance_oracles():
    z0, z1 = basis_state(0, 2), basis_state(1, 2)
    assert trace_distance(z0, z1) == pytest.approx(2.0)
    assert trace_distance(z0, z0) == pytest.approx(0.0, abs=1e-12)
    # pure states: distance = 2 sqrt(1 - overlap^2), overlap 1/sqrt(2)
    assert trace_distance(z0, pure_state(KET_PLUS)) == pytest.approx(math.sqrt(2.0))


def test_fidelity_oracles():
    z0, z1 = basis_state(0, 2), basis_state(1, 2)
    assert fidelity(z0, z0) == pytest.approx(1.0)
    assert fidelity(z0, z1) == pytest.approx(0.0, abs=1e-8)
    assert fidelity(maximally_mixed(2), z0) == pytest.approx(1.0 / math.sqrt(2.0))


@given(st.integers(0, 10_000))
def test_fidelity_symmetric_and_bounded(seed):
    rho = sample_density(3, 3, (seed, 0))
    sigma = sample_density(3, 2, (seed, 1))
    f1, f2 = fidelity(rho, sigma), fidelity(sigma, rho)
    # the singular values of sqrt(rho) sqrt(sigma) and its adjoint coincide
    assert f1 == pytest.approx(f2, abs=1e-12)
    assert -1e-12 <= f1 <= 1.0


def test_ensemble_average():
    e = Ensemble(
        weights=np.array([0.25, 0.75]),
        states=(basis_state(0, 2), basis_state(1, 2)),
    )
    assert np.abs(ensemble_average(e).mat - np.diag([0.25, 0.75])).max() < 1e-12


def test_steer_singlet_z():
    ens = steer(singlet(), xz_spin_povm(0.0))
    assert ens.labels == (0, 1)
    assert np.abs(ens.weights - 0.5).max() < 1e-12
    # perfectly anti-correlated: Bob outcome 0 leaves Alice in |1><1|
    assert np.abs(ens.states[0] - np.diag([0.0, 1.0])).max() < 1e-12
    assert np.abs(ens.states[1] - np.diag([1.0, 0.0])).max() < 1e-12


def test_steer_preserves_average():
    rho = sample_density(4, 4, 5)
    povm = sample_povm(2, 3, 6)
    ens = steer(rho, povm)
    from nonlocality.linalg import partial_trace

    reduced = partial_trace(rho.mat, 2, 2)
    assert np.abs(ensemble_average(ens).mat - reduced).max() < 1e-10


def test_steer_drops_zero_outcomes():
    rho_ab = DensityMatrix(np.kron(np.diag([1.0, 0.0]), np.diag([1.0, 0.0])))
    ens = steer(rho_ab, xz_spin_povm(0.0))
    assert ens.labels == (0,)
    assert ens.weights[0] == pytest.approx(1.0)


def test_steer_dimension_mismatch():
    with pytest.raises(ValueError, match="dimension mismatch"):
        steer(maximally_mixed(3), xz_spin_povm(0.0))


def _steer_loop(rho_ab, povm_b):
    """Per-member oracle: weights, validated states and labels of `steer`."""
    dim_b = povm_b.dim
    dim_a = rho_ab.dim // dim_b
    weights, members, labels = [], [], []
    for b, element in enumerate(povm_b.elements):
        lifted = np.kron(np.eye(dim_a, dtype=complex), element) @ rho_ab.mat
        reduced = np.einsum("ijkj->ik", lifted.reshape(dim_a, dim_b, dim_a, dim_b))
        w = float(np.real(np.trace(reduced)))
        if w < STEER_DROP_TOL:
            continue
        weights.append(w)
        members.append(DensityMatrix(reduced / w))
        labels.append(b)
    w = np.array(weights)
    return w / w.sum(), members, labels


def _assert_steers_like_the_loop(rho_ab, povm_b):
    ens = steer(rho_ab, povm_b)
    weights, members, labels = _steer_loop(rho_ab, povm_b)
    assert ens.weights.tobytes() == weights.tobytes()
    assert ens.labels == tuple(labels)
    assert all(type(b) is int for b in ens.labels)
    assert ens.states.shape == (len(members), ens.dim, ens.dim)
    assert not ens.states.flags.writeable and not ens.weights.flags.writeable
    for got, want in zip(ens.states, members):
        assert got.tobytes() == want.mat.tobytes()
    return ens


def _partly_supported_state(dim_a, dim_b, rng):
    """Pure state whose B side has no weight on B's last basis vector."""
    vec = np.zeros((dim_a, dim_b), dtype=complex)
    vec[:, :-1] = rng.standard_normal((dim_a, dim_b - 1)) + 1j * rng.standard_normal((dim_a, dim_b - 1))
    return pure_state(vec.reshape(-1))


def _basis_povm(dim):
    return Povm(tuple(np.diag(row).astype(complex) for row in np.eye(dim)))


@given(st.integers(1, 3), st.integers(1, 3), st.integers(1, 4), st.integers(0, 2**32 - 1))
def test_steer_matches_per_member_loop(dim_a, dim_b, outcomes, seed):
    rng = np.random.default_rng(seed)
    dim = dim_a * dim_b
    rho_ab = sample_density(dim, int(rng.integers(1, dim + 1)), rng)
    _assert_steers_like_the_loop(rho_ab, sample_povm(dim_b, outcomes, rng))
    _assert_steers_like_the_loop(rho_ab, _basis_povm(dim_b))


@given(st.integers(1, 3), st.integers(2, 3), st.integers(0, 2**32 - 1))
def test_steer_drops_like_the_loop(dim_a, dim_b, seed):
    rho_ab = _partly_supported_state(dim_a, dim_b, np.random.default_rng(seed))
    ens = _assert_steers_like_the_loop(rho_ab, _basis_povm(dim_b))
    assert ens.labels == tuple(range(dim_b - 1))


def test_steer_raises_when_every_outcome_is_dropped(monkeypatch):
    rho_ab, povm = singlet(), xz_spin_povm(0.3)
    monkeypatch.setattr(states, "STEER_DROP_TOL", 1.5)
    with pytest.raises(ValueError, match="all steering outcomes fell below"):
        steer(rho_ab, povm)


@pytest.mark.parametrize("dim, dim_b", [(3, 2), (5, 2), (4, 3), (2, 4)])
def test_steer_rejects_non_dividing_dimension(dim, dim_b):
    with pytest.raises(ValueError, match="dimension mismatch"):
        steer(maximally_mixed(dim), _basis_povm(dim_b))


def test_truncate_ensemble():
    e = Ensemble(
        weights=np.array([0.3, 0.5, 0.2]),
        states=(basis_state(0, 2), basis_state(1, 2), pure_state(KET_PLUS)),
    )
    kept, delta = truncate_ensemble(e, 0.25)
    assert delta == pytest.approx(0.2)
    assert kept.labels == (1, 0)  # sorted by nonincreasing weight
    assert np.abs(kept.weights - [0.5 / 0.8, 0.3 / 0.8]).max() < 1e-12
    # threshold is strict: weight == min_weight is dropped
    kept2, delta2 = truncate_ensemble(e, 0.3)
    assert kept2.labels == (1,) and delta2 == pytest.approx(0.5)
    with pytest.raises(ValueError, match="no weight exceeds"):
        truncate_ensemble(e, 0.9)
    for bad in (-0.1, math.nan, -math.inf):
        with pytest.raises(ValueError, match="min_weight must be nonnegative"):
            truncate_ensemble(e, bad)


def _truncate_loop(ensemble, min_weight):
    """Member-by-member oracle: weights, states, labels and delta of
    `truncate_ensemble`."""
    order = np.argsort(-ensemble.weights, kind="stable")
    kept = [i for i in order if ensemble.weights[i] > min_weight]
    delta = float(sum(ensemble.weights[i] for i in order if ensemble.weights[i] <= min_weight))
    w = np.array([ensemble.weights[i] for i in kept]) / (1.0 - delta)
    states = [ensemble.states[i] for i in kept]
    return w / w.sum(), states, [ensemble.labels[i] for i in kept], delta


@given(
    st.lists(st.integers(1, 4), min_size=1, max_size=6),
    st.integers(0, 4),
    st.integers(0, 2**32 - 1),
)
def test_truncate_matches_member_loop(raw_weights, cut, seed):
    # integer weights repeat often, so ties in the sort and at the threshold
    # are common; the threshold is one of the weights or zero
    rng = np.random.default_rng(seed)
    weights = np.array(raw_weights, dtype=float) / sum(raw_weights)
    members = tuple(sample_density(2, 2, rng) for _ in raw_weights)
    labels = tuple(int(b) for b in rng.permutation(10)[: len(raw_weights)])
    ens = Ensemble(weights=weights, states=members, labels=labels)
    min_weight = 0.0 if cut == 0 else float(np.sort(weights)[min(cut, len(weights)) - 1])
    if not min_weight < weights.max():
        with pytest.raises(ValueError, match="no weight exceeds"):
            truncate_ensemble(ens, min_weight)
        return
    truncated, delta = truncate_ensemble(ens, min_weight)
    want_w, want_states, want_labels, want_delta = _truncate_loop(ens, min_weight)
    assert truncated.labels == tuple(want_labels)
    assert truncated.weights.tobytes() == want_w.tobytes()
    assert truncated.states.tobytes() == np.stack(want_states).tobytes()
    assert type(delta) is float and np.float64(delta).tobytes() == np.float64(want_delta).tobytes()
    assert not truncated.states.flags.writeable and not truncated.weights.flags.writeable


def test_povm_and_ensemble_stacks_are_read_only():
    povm = sample_povm(3, 4, 1)
    assert povm.elements.shape == (4, 3, 3)
    ens = Ensemble(weights=np.array([0.25, 0.75]), states=(basis_state(0, 3), maximally_mixed(3)))
    assert ens.states.shape == (2, 3, 3)
    steered = steer(sample_density(6, 6, 2), sample_povm(3, 2, 3))
    kept, _ = truncate_ensemble(steered, 0.0)
    for stack in (povm.elements, ens.states, ens.weights, steered.states, kept.states, kept.weights):
        assert not stack.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            stack[0] = 0.0


@given(st.integers(0, 10_000), st.integers(2, 5), st.integers(1, 4))
def test_sample_density_valid(seed, dim, rank):
    rank = min(rank, dim)
    rho = sample_density(dim, rank, seed)
    eigs = np.linalg.eigvalsh(rho.mat)
    assert eigs.min() > -1e-12
    assert float(eigs.sum()) == pytest.approx(1.0)
    assert int((eigs > 1e-10).sum()) <= rank


def test_samplers_deterministic():
    a = sample_density(3, 3, 42).mat
    b = sample_density(3, 3, 42).mat
    assert np.abs(a - b).max() == 0.0
    pa = sample_povm(2, 3, 42)
    pb = sample_povm(2, 3, 42)
    assert all(np.abs(x - y).max() == 0.0 for x, y in zip(pa.elements, pb.elements))


def test_samplers_reject_bad_rank_and_outcome_count():
    for rank in (0, 4):
        with pytest.raises(ValueError, match="rank must be"):
            sample_density(3, rank, seed=0)
    with pytest.raises(ValueError, match="outcome count must be at least 1"):
        sample_povm(2, 0, seed=0)


def test_sample_povm_rejects_a_singular_normalizer(monkeypatch):
    # all-zero Ginibre piles sum to the zero matrix
    monkeypatch.setattr(states, "_complex_normal", lambda shape, rng: np.zeros(shape, dtype=complex))
    with pytest.raises(ValueError, match="normalizer is singular"):
        sample_povm(2, 3, seed=0)


@given(st.integers(0, 10_000), st.integers(2, 4), st.integers(2, 4))
def test_sample_povm_valid(seed, dim, outcomes):
    p = sample_povm(dim, outcomes, seed)
    assert len(p) == outcomes and p.dim == dim
    total = sum(p.elements)
    assert np.abs(total - np.eye(dim)).max() < 1e-9


@given(st.integers(0, 2**64 + 3), st.integers(0, 4), st.integers(1, 4), st.integers(1, 4))
def test_complex_normal_matches_two_draws_per_matrix(seed, outcomes, rows, cols):
    """The one-call complex draw reads the stream as two calls per matrix
    would, real part first, and leaves the generator at the same point."""
    shape = (rows, cols) if outcomes == 0 else (outcomes, rows, cols)
    rng, oracle = np.random.default_rng(seed), np.random.default_rng(seed)
    got = states._complex_normal(shape, rng)
    want = np.stack(
        [
            oracle.standard_normal((rows, cols)) + 1j * oracle.standard_normal((rows, cols))
            for _ in range(max(outcomes, 1))
        ]
    ).reshape(shape)
    assert (got.shape, got.dtype) == (want.shape, want.dtype)
    assert got.tobytes() == want.tobytes()
    assert rng.random() == oracle.random()
