"""Hermitian matrix helpers: Hermitian checks, trace norm, PSD square root,
tensor products and partial traces."""

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from nonlocality.linalg import (
    as_complex_matrix,
    max_commutator_entry,
    partial_trace,
    psd_sqrt,
    require_hermitian,
    tensor,
    trace_norm,
)

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
# Largest entry of B @ B - A accepted for B = psd_sqrt(A) on random PSD input.
SQRT_RESIDUAL_TOL = 1e-8


def hermiticity_defect(a):
    """Max-entry distance from A to its adjoint, over a whole stack."""
    return float(np.abs(a - a.conj().swapaxes(-1, -2)).max())


def random_hermitian(dim, seed):
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (g + g.conj().T) / 2


def random_psd(dim, rank, seed):
    """Gram matrix G G^dag of a (dim, rank) complex Gaussian G."""
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
    return g @ g.conj().T


def test_as_complex_matrix_rejects_nonsquare():
    with pytest.raises(ValueError, match="square"):
        as_complex_matrix(np.zeros((2, 3)))
    with pytest.raises(ValueError, match="square"):
        as_complex_matrix(np.zeros(4))


def test_require_hermitian_symmetrizes_small_noise():
    a = PAULI_Z + 1e-12 * np.array([[0, 1j], [0, 0]])
    out = require_hermitian(a)
    assert hermiticity_defect(out) == 0.0
    assert np.abs(out - PAULI_Z).max() < 1e-11


def test_require_hermitian_rejects():
    with pytest.raises(ValueError, match="not Hermitian"):
        require_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_trace_norm_oracles():
    assert trace_norm(np.diag([3.0, -4.0])) == pytest.approx(7.0)
    assert trace_norm(PAULI_X) == pytest.approx(2.0)
    assert trace_norm(np.zeros((3, 3))) == 0.0


@given(st.integers(0, 10_000), st.integers(1, 5))
def test_trace_norm_is_sum_of_abs_eigenvalues(seed, dim):
    a = random_hermitian(dim, seed)
    assert trace_norm(a) == pytest.approx(np.abs(np.linalg.eigvalsh(a)).sum(), abs=1e-10)


@given(st.integers(0, 10_000), st.integers(1, 5), st.integers(1, 4))
def test_trace_norm_on_a_stack_matches_each_matrix(seed, dim, count):
    stack = np.stack([random_hermitian(dim, (seed, i)) for i in range(count)])
    norms = trace_norm(stack)
    assert norms.shape == (count,)
    assert norms.tolist() == [trace_norm(m) for m in stack]
    assert np.array_equal(require_hermitian(stack)[0], require_hermitian(stack[0]))


def test_require_hermitian_checks_every_matrix_of_a_stack():
    stack = np.stack([PAULI_X, PAULI_Z, PAULI_X])
    assert hermiticity_defect(stack) == 0.0
    stack[1, 0, 1] = 0.5
    assert hermiticity_defect(stack) == pytest.approx(0.5)
    with pytest.raises(ValueError, match="not Hermitian"):
        require_hermitian(stack)
    stack[1, 0, 1] = np.nan
    with pytest.raises(ValueError, match="not Hermitian"):
        trace_norm(stack)
    with pytest.raises(ValueError, match="square"):
        require_hermitian(np.zeros((2, 2, 3)))


def test_psd_sqrt_diagonal_oracle():
    root = psd_sqrt(np.diag([4.0, 9.0]))
    assert np.abs(root - np.diag([2.0, 3.0])).max() < 1e-12


def test_psd_sqrt_clamps_but_rejects_negative():
    ok = psd_sqrt(np.diag([1.0, -1e-12]))
    assert np.abs(ok @ ok - np.diag([1.0, 0.0])).max() < 1e-10
    with pytest.raises(ValueError, match="not PSD"):
        psd_sqrt(np.diag([1.0, -1e-6]))
    with pytest.raises(ValueError, match="not Hermitian"):
        psd_sqrt(np.array([[1.0, 1e-6], [0.0, 1.0]]))
    with pytest.raises(ValueError, match="square"):
        psd_sqrt(np.stack([np.eye(2)] * 2))


@given(
    st.integers(0, 10_000),
    st.integers(1, 6).flatmap(lambda d: st.tuples(st.just(d), st.integers(0, d))),
)
def test_psd_sqrt_squares_back(seed, dim_rank):
    # Ranks below dim put eigenvalues at rounding-noise level around zero.
    dim, rank = dim_rank
    a = random_psd(dim, rank, seed)
    root = psd_sqrt(a)
    assert np.abs(root @ root - a).max() <= SQRT_RESIDUAL_TOL
    assert hermiticity_defect(root) == 0.0


def test_tensor_oracle():
    out = tensor(PAULI_X, np.eye(2))
    expected = np.zeros((4, 4), dtype=complex)
    expected[0, 2] = expected[1, 3] = expected[2, 0] = expected[3, 1] = 1.0
    assert np.abs(out - expected).max() == 0.0


def test_partial_trace_product_states():
    a = random_hermitian(2, 3)
    b = random_hermitian(3, 4)
    ab = tensor(a, b)
    assert np.abs(partial_trace(ab, 2, 3) - a * np.trace(b)).max() < 1e-12


def test_partial_trace_entangled_oracle():
    v = np.zeros(4, dtype=complex)
    v[1], v[2] = 1.0 / np.sqrt(2.0), -1.0 / np.sqrt(2.0)
    rho = np.outer(v, v.conj())
    assert np.abs(partial_trace(rho, 2, 2) - np.eye(2) / 2).max() < 1e-12


def test_partial_trace_validation():
    with pytest.raises(ValueError, match="dimension mismatch"):
        partial_trace(np.eye(4), 2, 3)


def test_max_commutator_entry_oracles():
    assert max_commutator_entry(np.diag([1.0, 2.0]), np.diag([3.0, 4.0])) == 0.0
    assert max_commutator_entry(PAULI_X, PAULI_Z) == pytest.approx(2.0)


def _random_stack(rng, lead, dim):
    shape = tuple(lead) + (dim, dim)
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


@given(
    st.integers(1, 3),
    st.integers(1, 3),
    st.lists(st.integers(1, 3), max_size=2),
    st.integers(0, 2**32 - 1),
)
# one 1 x 1 product against a broadcast factor: numpy can pick a multiply
# loop that rounds the imaginary part differently from np.kron's
@example(1, 1, [1], 14)
def test_stacked_tensor_matches_kron(dim_a, dim_b, lead, seed):
    rng = np.random.default_rng(seed)
    a, b = _random_stack(rng, lead, dim_a), _random_stack(rng, lead, dim_b)
    single_b = b[(0,) * len(lead)]
    stacked, broadcast = tensor(a, b), tensor(a, single_b)
    assert stacked.shape == broadcast.shape == tuple(lead) + (dim_a * dim_b,) * 2
    for idx in np.ndindex(*lead):
        assert stacked[idx].tobytes() == np.kron(a[idx], b[idx]).tobytes()
        assert broadcast[idx].tobytes() == np.kron(a[idx], single_b).tobytes()


@given(
    st.integers(1, 3),
    st.integers(1, 3),
    st.lists(st.integers(1, 3), max_size=2),
    st.integers(0, 2**32 - 1),
)
def test_stacked_partial_trace_matches_2d_form(dim_a, dim_b, lead, seed):
    m = _random_stack(np.random.default_rng(seed), lead, dim_a * dim_b)
    out = partial_trace(m, dim_a, dim_b)
    for idx in np.ndindex(*lead):
        blocks = m[idx].reshape(dim_a, dim_b, dim_a, dim_b)
        assert out[idx].tobytes() == np.einsum("ijkj->ik", blocks).tobytes()
        assert out[idx].tobytes() == partial_trace(m[idx], dim_a, dim_b).tobytes()


def test_stacked_tensor_and_partial_trace_reject_bad_shapes():
    with pytest.raises(ValueError, match="square"):
        tensor(np.zeros((2, 2, 3)), np.eye(2))
    with pytest.raises(ValueError, match="square"):
        partial_trace(np.zeros(4), 2, 2)
    with pytest.raises(ValueError, match="dimension mismatch"):
        partial_trace(np.zeros((3, 4, 4)), 2, 3)
