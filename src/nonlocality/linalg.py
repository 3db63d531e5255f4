"""Hermitian matrix helpers shared by the state and bound machinery.

All matrices are dense complex numpy arrays. Inputs that are supposed to be
Hermitian are rejected when max|A - A^dag| exceeds HERMITIAN_TOL, with the
deviation reported in the error message; a NaN entry fails that check too.
`hermitian_part`, `require_hermitian`, `trace_norm`, `tensor` and
`partial_trace` also take stacks of shape (..., d, d), checked and reduced in
one pass.
"""

from __future__ import annotations

import numpy as np

HERMITIAN_TOL = 1e-10
PSD_TOL = 1e-10


def as_complex_matrix(a) -> np.ndarray:
    """Coerce to a square complex128 array."""
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    return m


def as_complex_stack(a) -> np.ndarray:
    """Coerce to a complex128 square matrix or (..., d, d) stack."""
    m = np.asarray(a, dtype=complex)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise ValueError(f"expected square matrices, got shape {m.shape}")
    return m


def hermitian_part(a: np.ndarray) -> np.ndarray:
    """(A + A^dag) / 2, matrix by matrix."""
    return (a + a.conj().swapaxes(-1, -2)) / 2


def require_hermitian(a) -> np.ndarray:
    """`hermitian_part` of a matrix or (..., d, d) stack, rejected when
    max|A - A^dag| over the stack exceeds HERMITIAN_TOL or is NaN."""
    m = as_complex_stack(a)
    # One adjoint serves both the check and the symmetrization.
    adjoint = m.conj().swapaxes(-1, -2)
    # inf - inf, as on an infinite diagonal entry, is a NaN the check rejects
    with np.errstate(invalid="ignore"):
        defect = float(np.abs(m - adjoint).max())
    if not defect <= HERMITIAN_TOL:
        raise ValueError(f"matrix is not Hermitian: max|A - A^dag| = {defect:.3e}")
    return (m + adjoint) / 2


def trace_norm(a):
    """Sum of absolute eigenvalues of a Hermitian matrix: a float, or an
    array of shape (...) for a (..., d, d) stack."""
    norms = np.abs(np.linalg.eigvalsh(require_hermitian(a))).sum(axis=-1)
    return float(norms) if norms.ndim == 0 else norms


def _clipped_sqrt(h: np.ndarray) -> tuple[np.ndarray, float]:
    """Principal square root of the Hermitian matrix h with its negative
    eigenvalues set to 0, and h's smallest eigenvalue."""
    w, v = np.linalg.eigh(h)
    return hermitian_part((v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T), float(w.min())


def psd_sqrt(a) -> np.ndarray:
    """Principal square root of a positive semidefinite matrix.

    Raises ValueError when the input is not Hermitian. Eigenvalues in
    [-PSD_TOL, 0) are clamped to zero; anything below -PSD_TOL is rejected.
    """
    root, lo = _clipped_sqrt(require_hermitian(as_complex_matrix(a)))
    if not lo >= -PSD_TOL:
        raise ValueError(f"matrix is not PSD: min eigenvalue = {lo:.3e}")
    return root


def tensor(a, b) -> np.ndarray:
    """Kronecker product, matrix by matrix over broadcast leading dimensions:
    entry (i p + k, j p + l) is a[..., i, j] * b[..., k, l], the product
    `np.kron` forms. The factor of lower rank gains leading axes of length 1
    by a reshape, and the multiply broadcasts them."""
    a, b = as_complex_stack(a), as_complex_stack(b)
    m, p = a.shape[-1], b.shape[-1]
    # Equal ranks keep numpy on the multiply loop `np.kron` uses, even for a
    # single 1 x 1 product; a rank mismatch can pick one that rounds differently.
    rank = max(a.ndim, b.ndim)
    a = a.reshape((1,) * (rank - a.ndim) + a.shape)
    b = b.reshape((1,) * (rank - b.ndim) + b.shape)
    prod = a[..., :, None, :, None] * b[..., None, :, None, :]
    return prod.reshape(prod.shape[:-4] + (m * p, m * p))


def partial_trace(m, dim_a: int, dim_b: int) -> np.ndarray:
    """Tr_B of a (dim_a*dim_b)-dimensional operator on A (x) B, or of a
    (..., d, d) stack of them."""
    mat = as_complex_stack(m)
    if mat.shape[-1] != dim_a * dim_b:
        raise ValueError(
            f"dimension mismatch: matrix is {mat.shape[-1]}-dim, factors give {dim_a * dim_b}"
        )
    t = mat.reshape(mat.shape[:-2] + (dim_a, dim_b, dim_a, dim_b))
    return np.einsum("...ijkj->...ik", t)


def max_commutator_entry(a: np.ndarray, b: np.ndarray) -> float:
    """Max-entry magnitude of [A, B], over a whole stack."""
    return float(np.abs(a @ b - b @ a).max())
