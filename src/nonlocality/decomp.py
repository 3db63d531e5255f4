"""Classical-fraction decompositions of boxes, backed by a small simplex solver.

The fraction-of-determinism of a box P is the largest c such that
P = c D + (1 - c) X for a single deterministic box D and some box X; since X
inherits normalization and no-signalling from P and D, only entrywise
nonnegativity binds, giving the closed form max_D min_{x,y} P(d_A(x), d_B(y)).
The classical fraction replaces the single D with a mixture and is a linear
program.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .boxes import Box, DeterministicStrategy, _alice_side, _cells, _strategy_arrays, _winner_cells

LP_TOL = 1e-9
RECONSTRUCTION_TOL = 1e-8
PRICING_BLOCK = 256  # structural columns priced per step of the entering search


class UnboundedError(Exception):
    """The objective is unbounded above on the feasible region."""


@dataclass(frozen=True, eq=False)
class LinearProgram:
    """maximize c @ x subject to a @ x <= b, x >= 0, with finite data and
    b >= 0: the slack basis x = 0 is feasible."""

    c: np.ndarray
    a: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.c, dtype=float)
        a = np.asarray(self.a, dtype=float)
        b = np.asarray(self.b, dtype=float)
        if a.ndim != 2 or c.ndim != 1 or b.ndim != 1:
            raise ValueError("bad shapes for LP data")
        m, n = a.shape
        if len(c) != n or len(b) != m:
            raise ValueError("LP dimensions disagree")
        if not (b >= 0.0).all():
            raise ValueError(f"right-hand side must be nonnegative, got minimum {float(b.min())!r}")
        if not all(np.isfinite(v).all() for v in (c, a, b)):
            raise ValueError("LP data must be finite")
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)


@dataclass(frozen=True, eq=False)
class SimplexResult:
    value: float
    x: np.ndarray
    iterations: int


def simplex_solve(lp: LinearProgram) -> SimplexResult:
    """Revised primal simplex with Bland's rule on the columns of [a | I],
    started from the slack basis. It keeps the basis inverse, the basic
    values and the basis indices; no tableau is formed.

    Each pivot takes the duals y = c_B B^-1 and prices the structural columns
    in column order, PRICING_BLOCK at a time, as c - y @ a, stopping at the
    first block that holds an improving column; the slack columns, priced as
    -y, come last. The ratio test and its tie-break are those of the tableau
    method. Raises UnboundedError when an improving column has no blocking
    row and RuntimeError when the iteration budget 10 * (rows + columns),
    slack columns included, is exhausted or the last basis fails
    `_certify_basis`. The certificate scales each row's residual by
    max(1, |b_i|), so an LP with large data passes it when it is solved to
    relative precision; on the classical-fraction LP, whose b is at most 1,
    the threshold is LP_TOL itself.
    """
    a, b, c = lp.a, lp.b, lp.c
    m, n = a.shape
    inverse = np.eye(m)
    x_b = b.copy()
    basis = np.arange(n, n + m)
    cost_b = np.zeros(m)
    budget = 10 * (2 * m + n)
    iterations = 0
    while True:
        y = cost_b @ inverse
        entering = _first_improving(a, c, y)
        if entering is None:
            break
        col = inverse @ a[:, entering] if entering < n else inverse[:, entering - n].copy()
        rows = np.flatnonzero(col > LP_TOL)
        if not rows.size:
            raise UnboundedError("improving direction has no blocking constraint")
        ratios = x_b[rows] / col[rows]
        # Bland anti-cycling: ties on the ratio go to the lowest basis index
        tied = rows[ratios <= ratios.min() + 1e-12]
        row = int(tied[np.argmin(basis[tied])])
        # one rank-1 update: the pivot row is divided by the pivot, and every
        # other row loses its multiple of it, as one Gauss-Jordan step would
        pivot_row = inverse[row] / col[row]
        step = x_b[row] / col[row]
        inverse -= np.multiply.outer(col, pivot_row)
        inverse[row] = pivot_row
        x_b -= col * step
        x_b[row] = step
        basis[row] = entering
        cost_b[row] = c[entering] if entering < n else 0.0
        iterations += 1
        if iterations > budget:
            raise RuntimeError(f"simplex iteration budget {budget} exhausted")
    _certify_basis(a, b, c, basis, x_b)
    x = np.zeros(n + m)
    x[basis] = x_b
    x = np.where(np.abs(x) < LP_TOL, 0.0, x)
    return SimplexResult(value=float(c @ x[:n]), x=x[:n], iterations=iterations)


def _first_improving(a: np.ndarray, c: np.ndarray, y: np.ndarray) -> int | None:
    """Index in [a | I] of the first column whose reduced cost under the
    duals y exceeds LP_TOL, or None. A column-major `a` makes each block one
    contiguous slice."""
    n = len(c)
    for start in range(0, n, PRICING_BLOCK):
        block = slice(start, start + PRICING_BLOCK)
        improving = c[block] - y @ a[:, block] > LP_TOL
        if improving.any():
            return start + int(np.argmax(improving))
    improving = y < -LP_TOL  # slack reduced costs are -y
    return n + int(np.argmax(improving)) if improving.any() else None


def _certify_basis(a, b, c, basis, x_b) -> float:
    """Optimality certificate of a final basis of [a | I], from fresh duals:
    y solves y B = c_B for the basis columns B, every reduced cost c - y @ a
    and -y must be at most LP_TOL, each row of B @ x_b must reproduce b_i
    within LP_TOL * max(1, |b_i|), and every basic value must lie above
    -LP_TOL. Returns LP_TOL minus the worst violation; raises RuntimeError
    when a check fails."""
    m, n = a.shape
    structural = basis < n
    mat = np.zeros((m, m))
    mat[:, structural] = a[:, basis[structural]]
    mat[basis[~structural] - n, np.flatnonzero(~structural)] = 1.0
    y = np.linalg.solve(mat.T, np.append(c, np.zeros(m))[basis])
    reduced = float(np.concatenate([c - y @ a, -y]).max(initial=-np.inf))
    if not reduced <= LP_TOL:
        raise RuntimeError("simplex stopped on a basis whose recomputed reduced costs are not optimal")
    defect = float((np.abs(mat @ x_b - b) / np.maximum(1.0, np.abs(b))).max(initial=0.0))
    if not defect <= LP_TOL:
        raise RuntimeError("simplex basic values do not reproduce the right-hand side")
    lowest = float(x_b.min(initial=np.inf))
    if not lowest > -LP_TOL:
        raise RuntimeError("simplex stopped on a basis with a negative basic value")
    return LP_TOL - max(reduced, defect, -lowest)


def _require_ns(box: Box, what: str):
    report = box.ns_report
    if not report.passed:
        raise ValueError(
            f"{what} needs a no-signalling box: {report.location} deviates by {report.max_violation:.3e}"
        )


def fod_exact(box: Box):
    """Largest single-deterministic weight: max over strategies of the minimum
    matched cell. Ties keep the lexicographically first strategy.

    Once Alice's assignment alpha is fixed, Bob's outputs are chosen per input:
    the value is max_alpha min_y max_b min_x p[x, y, alpha_x, b]."""
    _require_ns(box, "fraction of determinism")
    alice, g = _alice_side(box.p, box.scenario, np.min)
    values = g.max(axis=2).min(axis=1)
    best = int(np.argmax(values))
    # first alpha with the largest value, then per y the first b reaching it
    strategy = DeterministicStrategy(alice[best], np.argmax(g[best] >= values[best], axis=1))
    # the winner's cells in enumeration order give the value, sign of zero included
    return min(_winner_cells(box.p, strategy.alice, strategy.bob)), strategy


@dataclass(frozen=True, eq=False)
class Decomposition:
    """P = sum_i c_i D_i + (1 - sum c_i) X with X a box (None when sum = 1);
    holds the strategies D_i with positive weight c_i, in enumeration order."""

    strategies: tuple
    coefficients: np.ndarray
    total: float
    residual: Box | None

    def to_dict(self) -> dict:
        return {
            "total": self.total,
            "terms": [
                {"alice": list(s.alice), "bob": list(s.bob), "weight": float(w)}
                for s, w in zip(self.strategies, self.coefficients)
            ],
            "residual": None if self.residual is None else self.residual.to_dict(),
        }


def cf_exact(box: Box):
    """Classical fraction by LP: maximize sum c_i with sum_i c_i D_i <= P
    entrywise, c >= 0, sum c_i <= 1. Returns (value, Decomposition)."""
    _require_ns(box, "classical fraction")
    sc = box.scenario
    alice, bob = _strategy_arrays(sc)
    n = len(alice) * len(bob)
    inside = sc.inside
    # one row per cell inside the outcome counts, in (x, y, a, b) order, then the
    # row sum c <= 1; column i * len(bob) + j, strategy (alice[i], bob[j]), has a one
    # in the row of each cell it sets, column-major for contiguous pricing blocks.
    cells = box.p[inside]
    row_of = np.cumsum(inside).reshape(inside.shape) - 1
    a = np.zeros((len(cells) + 1, n), order="F")
    columns = np.arange(n).reshape(len(alice), len(bob), 1, 1)
    a[row_of[_cells(alice[:, None], bob[None, :])], columns] = 1.0
    a[-1] = 1.0
    lp = LinearProgram(c=np.ones(n), a=a, b=np.append(np.where(cells > 0.0, cells, 0.0), 1.0))
    # nonnegative: basic values are certified above -LP_TOL and those below LP_TOL zeroed
    coeffs = simplex_solve(lp).x
    total = float(coeffs.sum())
    used = np.flatnonzero(coeffs > 0.0)
    i, j = divmod(used, len(bob))
    used_a, used_b = alice[i], bob[j]
    used_cells = _cells(used_a, used_b)
    leftover = _leftover(box.p, used_cells, coeffs[used])
    residual = None
    if total < 1.0 - LP_TOL:
        # each block over its own sum: dividing by 1 - total would magnify rounding
        kept = np.clip(leftover, 0.0, None)
        residual = Box(sc, kept / kept.sum(axis=(2, 3), keepdims=True))
    _certify_reconstruction(leftover, total, None if residual is None else residual.p)
    decomp = Decomposition(
        strategies=tuple(map(DeterministicStrategy, used_a, used_b)),
        coefficients=coeffs[used],
        total=total,
        residual=residual,
    )
    return total, decomp


def _leftover(p: np.ndarray, cells: tuple, weights: np.ndarray) -> np.ndarray:
    """P - sum_i w_i D_i for the strategies whose cells (`boxes._cells`) are
    given, subtracted term by term in strategy order (ufunc.at is
    unbuffered): the residual's last bits depend on this order."""
    leftover = np.array(p)
    np.subtract.at(leftover, cells, weights[:, None, None])
    return leftover


def _certify_reconstruction(leftover, total, residual) -> float:
    """Reconstruction certificate of P = sum_i w_i D_i + (1 - total) X, given
    the leftover P - sum_i w_i D_i (`_leftover`), with X the residual table
    or None for no residual term. Returns RECONSTRUCTION_TOL minus the
    largest absolute entry of the difference; raises RuntimeError when it is
    negative."""
    defect = leftover if residual is None else leftover - (1.0 - total) * residual
    worst = float(np.abs(defect).max())
    if not worst <= RECONSTRUCTION_TOL:
        raise RuntimeError("decomposition does not reconstruct the box")
    return RECONSTRUCTION_TOL - worst


def bell_bound_from_fod(beta_algebraic: float, beta_deterministic: float, c: float) -> float:
    """Bell-value ceiling beta_alg - c (beta_alg - beta_det) implied by a
    deterministic fraction c."""
    if not all(math.isfinite(v) for v in (beta_algebraic, beta_deterministic, c)):
        raise ValueError(
            "Bell maxima and fraction must be finite, got "
            f"{(beta_algebraic, beta_deterministic, c)!r}"
        )
    if not (0.0 <= c <= 1.0 + 1e-12):
        raise ValueError(f"fraction must lie in [0, 1], got {c!r}")
    if beta_deterministic > beta_algebraic + 1e-12:
        raise ValueError("deterministic maximum cannot exceed the algebraic maximum")
    return beta_algebraic - c * (beta_algebraic - beta_deterministic)
