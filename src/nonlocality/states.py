"""Density matrices, POVMs, ensembles, and the distance measures on them.

Trace distance here is the unnormalized trace norm |rho - sigma|_1, so it
ranges over [0, 2] for unit-trace states.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .linalg import (
    PSD_TOL,
    as_complex_matrix,
    as_complex_stack,
    hermitian_part,
    partial_trace,
    psd_sqrt,
    require_hermitian,
    tensor,
    trace_norm,
)

TRACE_TOL = 1e-10
POVM_SUM_TOL = 1e-9
WEIGHT_SUM_TOL = 1e-10
STEER_DROP_TOL = 1e-12


def _check_counts(counts, what: str = "outcome counts") -> None:
    """Every count is an integer (not a bool or float) of at least 1 that a
    float can hold; `what` names the counts in errors."""
    for count in counts:
        if isinstance(count, bool) or not isinstance(count, (int, np.integer)):
            raise ValueError(f"{what} must be integers, got {count!r}")
        if count < 1:
            raise ValueError(f"{what} must be at least 1")
        if count > sys.float_info.max:
            raise ValueError(f"{what} must be at most {sys.float_info.max!r}")


def _check_weights(weights, shape: tuple) -> np.ndarray:
    """A read-only float copy of `weights`, checked to have the nonempty `shape`
    and to hold probability vectors on its last axis: entries at least
    -WEIGHT_SUM_TOL, sums within WEIGHT_SUM_TOL of 1. NaN fails."""
    w = np.array(weights, dtype=float)
    if w.shape != shape or not w.size:
        raise ValueError(f"weights and members disagree in length: shape {w.shape}, expected {shape}")
    if not float(w.min()) >= -WEIGHT_SUM_TOL:
        raise ValueError(f"probability weights must be nonnegative numbers, min is {float(w.min())!r}")
    sums = w.sum(axis=-1).reshape(-1)
    bad = sums[~(np.abs(sums - 1.0) <= WEIGHT_SUM_TOL)]
    if bad.size:
        raise ValueError(f"probability weights sum to {float(bad[0])!r}, expected 1")
    w.setflags(write=False)
    return w


def _trusted(cls, **fields):
    """An instance of the frozen dataclass `cls` holding `fields`, which have
    already passed its checks; array fields are made read-only."""
    obj = object.__new__(cls)
    for name, value in fields.items():
        if isinstance(value, np.ndarray):
            value.setflags(write=False)
        object.__setattr__(obj, name, value)
    return obj


def _check_state_matrix(mat, lo: float, hi: float, what: str) -> np.ndarray:
    """Hermitian part of a matrix or (..., d, d) stack, read-only, after
    checking that every matrix is PSD with trace in [lo, hi]. NaN fails."""
    m = require_hermitian(mat)
    mn = float(np.linalg.eigvalsh(m).min())
    if not mn >= -PSD_TOL:
        raise ValueError(f"{what} is not PSD: min eigenvalue = {mn:.3e}")
    traces = np.real(m.trace(axis1=-2, axis2=-1))
    outside = traces[~((lo - TRACE_TOL <= traces) & (traces <= hi + TRACE_TOL))]
    if outside.size:
        raise ValueError(f"{what} has trace {float(outside[0])!r}, expected within [{lo}, {hi}]")
    m.setflags(write=False)
    return m


@dataclass(frozen=True, eq=False)
class SubnormalizedState:
    """PSD matrix with trace in [0, 1]."""

    _MIN_TRACE = 0.0

    mat: np.ndarray

    def __post_init__(self):
        mat = as_complex_matrix(self.mat)
        object.__setattr__(self, "mat", _check_state_matrix(mat, self._MIN_TRACE, 1.0, "state"))

    @property
    def dim(self) -> int:
        return self.mat.shape[0]

    def trace(self) -> float:
        return float(np.real(np.trace(self.mat)))


class DensityMatrix(SubnormalizedState):
    """Unit-trace positive semidefinite matrix."""

    _MIN_TRACE = 1.0


@dataclass(frozen=True, eq=False)
class Povm:
    """PSD elements summing to the identity within POVM_SUM_TOL, kept as one
    read-only (k, d, d) stack."""

    elements: np.ndarray

    def __post_init__(self):
        shapes = {np.shape(e) for e in self.elements}
        if len(shapes) != 1 or len(min(shapes)) != 2:
            raise ValueError(f"POVM needs matrices of one shape, got shapes {sorted(shapes)}")
        # Elements are PSD with any trace; the identity sum bounds it.
        elems = as_complex_stack(self.elements)
        checked = _check_state_matrix(elems, -np.inf, np.inf, "POVM element")
        defect = float(np.abs(checked.sum(axis=0) - np.eye(len(checked[0]))).max())
        if not defect <= POVM_SUM_TOL:
            raise ValueError(f"POVM does not sum to identity: max deviation = {defect:.3e}")
        object.__setattr__(self, "elements", checked)

    @property
    def dim(self) -> int:
        return self.elements.shape[-1]

    def __len__(self) -> int:
        return len(self.elements)


@dataclass(frozen=True, eq=False)
class Ensemble:
    """Weighted states; weights form a probability vector.

    `states` is given as a sequence of states and kept as the read-only
    (l, d, d) stack of their matrices. `labels` optionally names each member
    by the measurement outcome that produced it, so members stay
    identifiable after sorting or truncation.

    The members given here were each checked as a state, PSD within PSD_TOL.
    The ensembles that `steer` returns are built without that check: their
    members were checked before they were normalized, so a member of weight
    w may sit up to about PSD_TOL / w below PSD, and passing its matrix to
    `DensityMatrix` again can fail.
    """

    weights: np.ndarray
    states: np.ndarray
    labels: tuple = field(default=())

    def __post_init__(self):
        if len(self.states) == 0:
            raise ValueError("ensemble needs at least one member")
        object.__setattr__(self, "weights", _check_weights(self.weights, (len(self.states),)))
        dim = self.states[0].dim
        if any(s.dim != dim for s in self.states):
            raise ValueError("ensemble states have mixed dimensions")
        labels = tuple(self.labels) if self.labels else tuple(range(len(self.states)))
        if len(labels) != len(self.states):
            raise ValueError("labels and states disagree in length")
        mats = np.stack([s.mat for s in self.states])
        mats.setflags(write=False)
        object.__setattr__(self, "states", mats)
        object.__setattr__(self, "labels", labels)

    def __len__(self) -> int:
        return len(self.states)

    @property
    def dim(self) -> int:
        return self.states.shape[-1]


def pure_state(vec) -> DensityMatrix:
    """|v><v| / <v|v> for a finite nonzero vector v. v is first scaled by the
    power of two, exact, that brings its largest real or imaginary part into
    [1/2, 1), so its norm neither underflows nor overflows."""
    v = np.array(vec, dtype=complex).reshape(-1)
    bad = np.flatnonzero(~np.isfinite(v))
    if bad.size:
        raise ValueError(f"non-finite vector entry at index {bad[0]}")
    parts = v.view(float)
    top = float(np.abs(parts).max(initial=0.0))
    if not top > 0.0:
        raise ValueError("zero vector")
    np.ldexp(parts, -math.frexp(top)[1], out=parts)
    v /= np.linalg.norm(v)
    return DensityMatrix(np.outer(v, v.conj()))


def basis_state(i: int, dim: int) -> DensityMatrix:
    v = np.zeros(dim, dtype=complex)
    v[i] = 1.0
    return pure_state(v)


def maximally_mixed(dim: int) -> DensityMatrix:
    return DensityMatrix(np.eye(dim, dtype=complex) / dim)


def singlet() -> DensityMatrix:
    """Two-qubit singlet (|01> - |10>)/sqrt(2)."""
    v = np.zeros(4, dtype=complex)
    v[1] = 1.0
    v[2] = -1.0
    return pure_state(v)


def xz_spin_povm(theta: float) -> Povm:
    """Projective qubit measurement along (sin theta, 0, cos theta).

    Outcome 0 is the + projector, outcome 1 the - projector; theta = 0 is the
    computational basis, theta = pi/2 the Hadamard basis.
    """
    n_sigma = np.array(
        [[np.cos(theta), np.sin(theta)], [np.sin(theta), -np.cos(theta)]], dtype=complex
    )
    eye = np.eye(2, dtype=complex)
    return Povm(((eye + n_sigma) / 2, (eye - n_sigma) / 2))


def trace_distance(rho: DensityMatrix | SubnormalizedState, sigma) -> float:
    """Trace norm of the difference, in [0, 2] for unit-trace inputs."""
    return trace_norm(rho.mat - sigma.mat)


def fidelity(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """Tr sqrt(sqrt(rho) sigma sqrt(rho)) = |sqrt(rho) sqrt(sigma)|_1, in [0, 1].

    Computed as the sum of singular values of sqrt(rho) sqrt(sigma); one matrix
    square root per argument keeps the noise near 1e-14 where the nested form
    loses seven digits at tight instances.
    """
    product = psd_sqrt(rho.mat) @ psd_sqrt(sigma.mat)
    val = float(np.linalg.svd(product, compute_uv=False).sum())
    return min(max(val, 0.0), 1.0)


def _mixture(weights: np.ndarray, mats: np.ndarray) -> np.ndarray:
    """sum_i weights[..., i] * mats[..., i, :, :], added member by member."""
    acc = np.zeros(mats.shape[:-3] + mats.shape[-2:], dtype=complex)
    for i in range(weights.shape[-1]):
        acc += weights[..., i, None, None] * mats[..., i, :, :]
    return acc


def _averages(*ensembles: Ensemble) -> np.ndarray:
    """Read-only stack of the ensembles' averages, checked as unit-trace
    states in one pass."""
    mixed = [_mixture(e.weights, e.states) for e in ensembles]
    return _check_state_matrix(np.stack(mixed), 1.0, 1.0, "state")


def ensemble_average(ensemble: Ensemble) -> DensityMatrix:
    return _trusted(DensityMatrix, mat=_averages(ensemble)[0])


def _average_distance(e1: Ensemble, e2: Ensemble) -> float:
    """`trace_distance` of the two ensemble averages, checked together."""
    first, second = _averages(e1, e2)
    return trace_norm(first - second)


def steer(rho_ab: DensityMatrix, povm_b: Povm) -> Ensemble:
    """Ensemble steered on side A by measuring povm_b on side B.

    Member b has weight Tr((I (x) N_b) rho) and state Tr_B((I (x) N_b) rho)
    normalized. Outcomes with weight below STEER_DROP_TOL are dropped; the
    surviving outcome indices are recorded in `labels`. Every outcome is
    computed in one stacked product and partial trace; the surviving operators
    are checked as one stack before a small weight can magnify their rounding.
    So a member of weight w is PSD only within about PSD_TOL / w: a weight of
    1.4e-8 gave a minimum eigenvalue of -1.07e-9.
    """
    dim_b = povm_b.dim
    dim_a, rem = divmod(rho_ab.dim, dim_b)
    if rem != 0 or dim_a < 1:
        raise ValueError(
            f"dimension mismatch: state is {rho_ab.dim}-dim, POVM side is {dim_b}-dim"
        )
    lifted = tensor(np.eye(dim_a, dtype=complex), povm_b.elements)
    reduced = partial_trace(lifted @ rho_ab.mat, dim_a, dim_b)
    weights = np.real(reduced.trace(axis1=-2, axis2=-1))
    kept = np.flatnonzero(~(weights < STEER_DROP_TOL))
    if not kept.size:
        raise ValueError("all steering outcomes fell below the drop tolerance")
    w = weights[kept]
    _check_state_matrix(reduced[kept], 0.0, 1.0, "state")
    states = hermitian_part(reduced[kept] / w[:, None, None])
    labels = tuple(int(b) for b in kept)
    return _trusted(Ensemble, weights=w / w.sum(), states=states, labels=labels)


def truncate_ensemble(ensemble: Ensemble, min_weight: float) -> tuple[Ensemble, float]:
    """Drop members with weight <= min_weight, renormalize, report lost mass.

    Members are returned sorted by nonincreasing weight. Raises ValueError
    when nothing survives (min_weight at or above the largest weight).
    """
    if not min_weight >= 0:
        raise ValueError("min_weight must be nonnegative")
    order = np.argsort(-ensemble.weights, kind="stable")
    heavy = ensemble.weights[order] > min_weight
    kept = order[heavy]
    if not kept.size:
        raise ValueError(
            f"no weight exceeds {min_weight!r} (max is {float(ensemble.weights.max())!r})"
        )
    # Python's sum adds the dropped weights one at a time in sorted order,
    # where np.sum would add them pairwise.
    delta = float(sum(ensemble.weights[order[~heavy]]))
    w = ensemble.weights[kept] / (1.0 - delta)
    labels = tuple(ensemble.labels[i] for i in kept)
    truncated = _trusted(Ensemble, weights=w / w.sum(), states=ensemble.states[kept], labels=labels)
    return truncated, delta


def sample_density(dim: int, rank: int, seed) -> DensityMatrix:
    """Ginibre-induced random state: G G^dag normalized, G of shape (dim, rank)."""
    _check_counts((dim, rank), "dimension and rank")
    if not rank <= dim:
        raise ValueError(f"rank must be in [1, {dim}], got {rank}")
    g = _complex_normal((dim, rank), np.random.default_rng(seed))
    return DensityMatrix(_gram_state(g))


def _complex_normal(shape, rng: np.random.Generator) -> np.ndarray:
    """Standard complex Gaussian array of matrices of shape (..., m, n),
    drawn in one call, matrix by matrix: real part, then imaginary part."""
    return _complex_pairs(rng.standard_normal(shape[:-2] + (2,) + shape[-2:]))


def _complex_pairs(parts: np.ndarray) -> np.ndarray:
    """Complex (..., m, n) array from parts of shape (..., 2, m, n) that hold
    each matrix's real part, then its imaginary part."""
    return parts[..., 0, :, :] + 1j * parts[..., 1, :, :]


def _gram_state(g: np.ndarray) -> np.ndarray:
    """Unchecked G G^dag / Tr(G G^dag), matrix by matrix over a stack."""
    m = g @ g.conj().swapaxes(-1, -2)
    return m / np.real(np.trace(m, axis1=-2, axis2=-1))[..., None, None]


def sample_povm(dim: int, outcomes: int, seed) -> Povm:
    """Random POVM: Ginibre PSD pile S^(-1/2) A_r S^(-1/2) with S the sum."""
    _check_counts((dim, outcomes), "dimension and outcome count")
    g = _complex_normal((outcomes, dim, dim), np.random.default_rng(seed))
    piles = g @ g.conj().swapaxes(-1, -2)
    # Python's sum adds the piles one at a time; np.sum may add them pairwise.
    w, v = np.linalg.eigh(sum(piles))
    if float(w.min()) <= 0:
        raise ValueError("degenerate sample, POVM normalizer is singular")
    inv_root = (v * (1.0 / np.sqrt(w))) @ v.conj().T
    return Povm(inv_root @ piles @ inv_root)
