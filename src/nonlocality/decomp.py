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

from .boxes import (
    BellFunctional,
    Box,
    _alice_side,
    _assignment,
    _cells,
    _derived_box,
    _listing,
    _strategy,
    _winner_cells,
    bell_det_max,
    bell_value,
)
from .states import _trusted

LP_TOL = 1e-9
RECONSTRUCTION_TOL = 1e-8
# Cost model of `_pivot`'s steps on a table of m rows, in units of the full
# step's time per cell (about 0.8 ns): the full step, one einsum, costs
# m^2 + _FULL_STEP; the sparse step costs 3 m + 1500 per nonzero column
# (_COLUMN_STEP). Timed alone with one BLAS thread (numpy 2.4.6, 2-core VM),
# the sparse step was the faster up to 4, 5, 6, 9, 11, 20 and 29 nonzero
# columns at m = 64, 80, 101, 125, 145, 200 and 257; the model picks it up
# to 3, 4, 6, 9, 11, 19 and 29. Tables of fewer than _SCANNED_ROWS rows are
# not scanned, and their full step is multiply.outer, which costs less than
# einsum's call at that size. Timed in `cf_exact`, scanning cost 4% on the
# 37-row table of the 3x3 chained singlet, saved nothing on the 50-row table
# of an uneven 3x3 box and saved 7% on the 65-row table of the 4x4 chained
# singlet; einsum in place of multiply.outer made the 17- and 37-row tables
# 5% slower.
_FULL_STEP, _COLUMN_STEP, _SCANNED_ROWS = 2000, (3, 1500), 64


@dataclass(frozen=True, eq=False)
class _StrategyLP:
    """The classical-fraction LP of `cf_exact`: maximize c @ x subject to
    a @ x <= b and x >= 0, with c all ones and b in [0, 1], so the slack
    basis x = 0 is feasible. Column i * len(bob) + j is the strategy
    (alice[i], bob[j]); its ones sit in the cell rows where `alice_rows[i]`,
    one-hot over Alice's (x, a), and `bob_rows[j]`, one-hot over Bob's
    (y, b), are both 1, and in the last row, the sum row. Cell row r is the
    r-th cell of the scenario's `inside` mask; it sits in column `slot_a[r]`
    of the factor U = `alice_rows` and column `slot_b[r]` of V = `bob_rows`,
    and the product of the factor entries there is column i * len(bob) + j.
    The LP holds each factor once: the entries at the cell rows are read
    through the slots when a column is asked for.

    The matrix a is never stored: the simplex asks for single columns
    (`_column`) and prices every column through the factors as U Y V^T
    (`_reduced_costs`)."""

    c: np.ndarray
    b: np.ndarray
    alice_rows: np.ndarray
    bob_rows: np.ndarray
    slot_a: np.ndarray
    slot_b: np.ndarray

    @property
    def a(self) -> np.ndarray:
        """The dense rows x strategies matrix, built afresh on each read.
        Only the tests' dense oracles and the benchmark's tracer read it."""
        cells = self.alice_rows[:, self.slot_a].T[:, :, None] * self.bob_rows[:, self.slot_b].T[:, None, :]
        return np.vstack([cells.reshape(len(self.b) - 1, -1), np.ones(len(self.c))])

    def _reduced_costs(self, y: np.ndarray, out: np.ndarray) -> None:
        """Write 1 - y_sum - U Y V^T into `out`, in column order, with Y the
        cell duals laid out on the (x, a) x (y, b) grid, 0 on padded cells."""
        grid = np.zeros((self.alice_rows.shape[1], self.bob_rows.shape[1]))
        grid[self.slot_a, self.slot_b] = y[:-1]
        priced = out.reshape(len(self.alice_rows), len(self.bob_rows))
        np.matmul(self.alice_rows @ grid, self.bob_rows.T, out=priced)
        np.subtract(1.0 - y[-1], priced, out=priced)

    def _column(self, e: int) -> np.ndarray:
        """Column e of a: row i of U read at `slot_a` times row j of V read
        at `slot_b`, each a 1-D gather from a row, numpy's fast path."""
        i, j = divmod(e, len(self.bob_rows))
        col = np.empty(len(self.b))
        np.multiply(self.alice_rows[i][self.slot_a], self.bob_rows[j][self.slot_b], out=col[:-1])
        col[-1] = 1.0
        return col


@dataclass(frozen=True, eq=False)
class SimplexResult:
    value: float
    x: np.ndarray
    iterations: int
    duals: np.ndarray


def simplex_solve(lp: _StrategyLP) -> SimplexResult:
    """Revised primal simplex on the columns of [a | I], started from the
    slack basis. It keeps the basis inverse and the basic values side by side
    as one array [B^-1 | x_B], and the basis indices; no tableau is formed,
    and a is never read whole: the LP hands out the entering column
    (`lp._column`).

    Each pivot takes the duals y = c_B B^-1, prices every column of [a | I]
    into one vector allocated per solve, the structural ones through
    `lp._reduced_costs(y, out)` and the slack ones as -y, and enters the
    column with the largest reduced cost (`_entering`).
    A pivot whose step x_B[row] / col[row] is at most LP_TOL is a zero step;
    after m (the row count) zero steps in a row Bland's rule (`_entering`
    with `bland`) chooses until a pivot moves x_B. Bland's rule cannot
    cycle, so the simplex terminates. The ratio test and its tie-break are
    those of the tableau method, and one rank-1 step (`_pivot`) updates B^-1
    and x_B together. On a table of at least _SCANNED_ROWS rows, a pivot row
    with few nonzero columns (`_sparse_step`, by the cost model on
    _COLUMN_STEP) updates only those columns, one at a time; any other row
    takes the full step. Both give the same bits, because the table never
    holds -0.0: it starts with +0.0 zeros (`cf_exact` clips b at +0.0), a
    division by the positive pivot keeps them +0.0 (a nonzero entry would
    have to be subnormal to underflow to -0.0), and a subtraction gives -0.0
    only from -0.0, so a column that loses an exact 0 keeps its bits.
    Returns the duals of the last basis with the solution; their optimality
    is the caller's to certify (`cf_exact` does so by weak duality). Raises
    RuntimeError when an improving column has no blocking row, when the
    iteration budget 10 * (rows + columns), slack columns included, is
    exhausted, or when a basic value of the last basis is not above -LP_TOL.
    """
    b, c = lp.b, lp.c
    m, n = len(b), len(c)
    table = np.hstack([np.eye(m), b[:, None]])
    inverse, x_b = table[:, :m], table[:, m]
    basis = np.arange(n, n + m)
    cost_b = np.zeros(m)
    budget = 10 * (2 * m + n)
    iterations = 0
    zero_steps = 0  # consecutive pivots whose step is at most LP_TOL
    reduced = np.empty(n + m)
    while True:
        y = cost_b @ inverse
        lp._reduced_costs(y, reduced[:n])
        np.negative(y, out=reduced[n:])
        entering = _entering(reduced, bland=zero_steps >= m)
        if entering is None:
            break
        col = inverse @ lp._column(entering) if entering < n else inverse[:, entering - n].copy()
        (rows,) = (col > LP_TOL).nonzero()
        if not rows.size:
            raise RuntimeError("improving direction has no blocking constraint")
        ratios = x_b[rows] / col[rows]
        step = ratios.min()
        # Bland anti-cycling: ties on the ratio go to the lowest basis index
        tied = rows[ratios <= step + 1e-12]
        row = int(tied[basis[tied].argmin()])
        _pivot(table, col, row)
        basis[row] = entering
        cost_b[row] = c[entering] if entering < n else 0.0
        zero_steps = zero_steps + 1 if step <= LP_TOL else 0
        iterations += 1
        if iterations > budget:
            raise RuntimeError(f"simplex iteration budget {budget} exhausted")
    if not x_b.min(initial=np.inf) > -LP_TOL:
        raise RuntimeError("simplex stopped on a basis with a negative basic value")
    del reduced  # freed before x: both are columns-long
    x = np.zeros(n + m)
    x[basis] = x_b
    x = np.where(np.abs(x) < LP_TOL, 0.0, x)
    return SimplexResult(value=float(c @ x[:n]), x=x[:n], iterations=iterations, duals=y)


def _pivot(table: np.ndarray, col: np.ndarray, row: int) -> None:
    """One Gauss-Jordan step on [B^-1 | x_B] in place: the pivot row is
    divided by the pivot col[row], and every other row loses col[i] times it,
    on the divided row's nonzero columns alone when `_sparse_step` says so."""
    pivot_row = table[row] / col[row]
    rows = len(table)
    if rows < _SCANNED_ROWS:
        table -= np.multiply.outer(col, pivot_row)
    else:
        (support,) = pivot_row.nonzero()
        if _sparse_step(support.size, rows):
            for j in support.tolist():
                table[:, j] -= col * pivot_row[j]
        else:
            table -= np.einsum("i,j->ij", col, pivot_row)
    table[row] = pivot_row


def _sparse_step(nonzeros: int, rows: int) -> bool:
    """Whether `_pivot` updates only the `nonzeros` nonzero columns of a
    pivot row of a table of `rows` rows, by the cost model on _COLUMN_STEP."""
    per_column, fixed = _COLUMN_STEP
    return nonzeros * (per_column * rows + fixed) < rows * rows + _FULL_STEP


def _entering(reduced: np.ndarray, bland: bool) -> int | None:
    """Index of the entering column of [a | I], slack columns last, or None
    when no reduced cost exceeds LP_TOL or one is NaN (numpy's max propagates
    it). Bland's rule enters the first column above LP_TOL; otherwise the
    first column within 1e-12 of the largest enters. The window keeps the
    last bits of the pricing from changing the pick between tied columns."""
    top = reduced.max()
    if not top > LP_TOL:
        return None
    return int((reduced > LP_TOL if bland else reduced >= top - 1e-12).argmax())


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
    g = _alice_side(box.p, box.scenario, np.minimum)
    values = g.max(axis=2).min(axis=1)
    best = int(np.argmax(values))
    # first alpha with the largest value, then per y the first b reaching it
    alice = _assignment(box.scenario.outcomes_a, best)
    strategy = _strategy(alice, np.argmax(g[best] >= values[best], axis=1))
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
    entrywise, c >= 0, sum c_i <= 1. Returns (value, Decomposition).

    The value is certified from both sides: the weights with the residual
    box reconstruct P (`_certify_reconstruction`), and the simplex's duals,
    read as a Bell functional, bound the classical fraction from above to
    within LP_TOL of the value (`_certify_duals`). Either failure raises
    RuntimeError."""
    _require_ns(box, "classical fraction")
    sc = box.scenario
    inputs_a, inputs_b, max_a, max_b = sc.shape
    # per assignment a one-hot row, and on Alice's side a row over Bob's slots
    # for pricing and the dual certificate's search; once, the simplex's table
    rows, width_a, width_b = int(sc.inside.sum()), inputs_a * max_a, inputs_b * max_b
    alice, bob = _listing(sc, full=True, widths=(width_a + width_b, width_b), once=(rows + 1) * (rows + 2))
    n = len(alice) * len(bob)
    # one row per cell inside the outcome counts, in (x, y, a, b) order, then the
    # row sum c <= 1; column i * len(bob) + j, strategy (alice[i], bob[j]), has a one
    # in the row of each cell it sets: the product of its two one-hot entries
    x, y, out_a, out_b = np.nonzero(sc.inside)
    cells = box.p[x, y, out_a, out_b]
    lp = _StrategyLP(
        c=np.ones(n),
        b=np.append(np.where(cells > 0.0, cells, 0.0), 1.0),
        alice_rows=_one_hot(alice, max_a),
        bob_rows=_one_hot(bob, max_b),
        slot_a=x * max_a + out_a,
        slot_b=y * max_b + out_b,
    )
    # nonnegative: basic values are checked above -LP_TOL and those below LP_TOL zeroed
    solved = simplex_solve(lp)
    coeffs = solved.x
    total = float(coeffs.sum())
    used = np.flatnonzero(coeffs > 0.0)
    i, j = divmod(used, len(bob))
    used_a, used_b = alice[i], bob[j]
    used_cells = _cells(used_a, used_b)
    leftover = _leftover(box.p, used_cells, coeffs[used])
    residual = None
    if total < 1.0 - LP_TOL:
        # each block over its own sum: dividing by 1 - total would magnify rounding
        residual = _derived_box(sc, leftover)
    _certify_reconstruction(leftover, total, None if residual is None else residual.p)
    _certify_duals(box, solved.duals, total)
    decomp = Decomposition(
        strategies=tuple(map(_strategy, used_a, used_b)),
        coefficients=coeffs[used],
        total=total,
        residual=residual,
    )
    return total, decomp


def _one_hot(assigned: np.ndarray, outcomes: int) -> np.ndarray:
    """Row k is 1 at x * outcomes + assigned[k, x] for each input x, else 0."""
    count, inputs = assigned.shape
    rows = np.zeros((count, inputs * outcomes))
    rows[np.arange(count)[:, None], np.arange(inputs) * outcomes + assigned] = 1.0
    return rows


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


def _certify_duals(box: Box, duals: np.ndarray, total: float) -> float:
    """Optimality certificate of a classical fraction `total` of `box`, from
    duals of the LP's rows, the cell rows in `inside` order and then the sum
    row. The duals of the cell rows, clipped at 0, make the Bell functional
    S = -y on the cells, and by weak duality every y >= 0 bounds the
    classical fraction: CF(P) <= max(0, 1 + bell_det_max(S)) - bell_value(S, P),
    with the sum row's best dual in the first term (the local-content bound
    of Elitzur, Popescu and Rohrlich). Returns LP_TOL minus the distance
    from the bound to `total`; raises RuntimeError when it is negative or NaN."""
    sc = box.scenario
    s = np.zeros(sc.shape)
    s[sc.inside] = -np.maximum(duals[:-1], 0.0)
    # unchecked: a NaN dual must fail the gap below, not the functional's check
    functional = _trusted(BellFunctional, scenario=sc, s=s)
    bound = max(0.0, 1.0 + bell_det_max(functional)) - bell_value(functional, box)
    gap = abs(bound - total)
    if not gap <= LP_TOL:
        raise RuntimeError(f"classical fraction {total!r} is {gap:.3e} from the dual bound {bound!r}")
    return LP_TOL - gap


def bell_bound_from_fod(beta_algebraic: float, beta_deterministic: float, c: float) -> float:
    """Bell-value ceiling (1 - c) beta_alg + c beta_det, that is
    beta_alg - c (beta_alg - beta_det), implied by a deterministic fraction
    c. For c in [0, 1] this is a convex combination of the two maxima, so it
    overflows only through c's 1e-12 of slack above 1 or through rounding
    within an ulp of the float maximum."""
    if not all(math.isfinite(v) for v in (beta_algebraic, beta_deterministic, c)):
        raise ValueError(
            "Bell maxima and fraction must be finite, got "
            f"{(beta_algebraic, beta_deterministic, c)!r}"
        )
    if not (0.0 <= c <= 1.0 + 1e-12):
        raise ValueError(f"fraction must lie in [0, 1], got {c!r}")
    if beta_deterministic > beta_algebraic + 1e-12:
        raise ValueError("deterministic maximum cannot exceed the algebraic maximum")
    ceiling = (1.0 - c) * beta_algebraic + c * beta_deterministic
    if not math.isfinite(ceiling):
        raise ValueError(
            f"Bell-value ceiling overflows: maxima {(beta_algebraic, beta_deterministic)!r} "
            f"at fraction {c!r} give a ceiling beyond the float range"
        )
    return ceiling
