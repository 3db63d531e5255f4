"""States, measurements, ensembles: validation, metrics, steering, sampling."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from nonlocality.states import (
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
    with pytest.raises(ValueError):
        pure_state(np.zeros(2))


def test_maximally_mixed():
    rho = maximally_mixed(4)
    assert np.abs(rho.mat - np.eye(4) / 4).max() == 0.0


def test_singlet_reduced_states():
    rho = singlet()
    eigs = np.linalg.eigvalsh(rho.mat)
    assert np.abs(eigs - [0.0, 0.0, 0.0, 1.0]).max() < 1e-12  # pure
    from nonlocality.linalg import partial_trace

    for keep in ("A", "B"):
        red = partial_trace(rho.mat, 2, 2, keep=keep)
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
    assert np.abs(ens.states[0].mat - np.diag([0.0, 1.0])).max() < 1e-12
    assert np.abs(ens.states[1].mat - np.diag([1.0, 0.0])).max() < 1e-12


def test_steer_preserves_average():
    rho = sample_density(4, 4, 5)
    povm = sample_povm(2, 3, 6)
    ens = steer(rho, povm)
    from nonlocality.linalg import partial_trace

    reduced = partial_trace(rho.mat, 2, 2, keep="A")
    assert np.abs(ensemble_average(ens).mat - reduced).max() < 1e-10


def test_steer_drops_zero_outcomes():
    rho_ab = DensityMatrix(np.kron(np.diag([1.0, 0.0]), np.diag([1.0, 0.0])))
    ens = steer(rho_ab, xz_spin_povm(0.0))
    assert ens.labels == (0,)
    assert ens.weights[0] == pytest.approx(1.0)


def test_steer_dimension_mismatch():
    with pytest.raises(ValueError, match="dimension mismatch"):
        steer(maximally_mixed(3), xz_spin_povm(0.0))


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


@given(st.integers(0, 10_000), st.integers(2, 4), st.integers(2, 4))
def test_sample_povm_valid(seed, dim, outcomes):
    p = sample_povm(dim, outcomes, seed)
    assert len(p) == outcomes and p.dim == dim
    total = sum(p.elements)
    assert np.abs(total - np.eye(dim)).max() < 1e-9
