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

from .boxes import Box, DeterministicStrategy, _cells, _strategy_arrays

LP_TOL = 1e-9
RECONSTRUCTION_TOL = 1e-8


class InfeasibleError(Exception):
    """The linear program has no feasible point."""


class UnboundedError(Exception):
    """The objective is unbounded above on the feasible region."""


@dataclass(frozen=True, eq=False)
class LinearProgram:
    """maximize c @ x subject to a[i] @ x (sense_i) b[i], x >= 0."""

    c: np.ndarray
    a: np.ndarray
    b: np.ndarray
    senses: tuple

    def __post_init__(self):
        c = np.asarray(self.c, dtype=float)
        a = np.asarray(self.a, dtype=float)
        b = np.asarray(self.b, dtype=float)
        if a.ndim != 2 or c.ndim != 1 or b.ndim != 1:
            raise ValueError("bad shapes for LP data")
        m, n = a.shape
        if len(c) != n or len(b) != m or len(self.senses) != m:
            raise ValueError("LP dimensions disagree")
        if any(s not in ("<=", ">=", "=") for s in self.senses):
            raise ValueError(f"senses must be <=, >= or =, got {self.senses}")
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "senses", tuple(self.senses))


@dataclass(frozen=True, eq=False)
class SimplexResult:
    value: float
    x: np.ndarray
    iterations: int


def _pivot(t, rhs, basis, row: int, col: int) -> None:
    """Make column `col` basic in row `row` by Gauss-Jordan elimination."""
    piv = t[row, col]
    t[row] /= piv
    rhs[row] /= piv
    for i in np.flatnonzero(t[:, col]).tolist():
        if i != row:
            f = t[i, col]
            t[i] -= f * t[row]
            rhs[i] -= f * rhs[row]
    basis[row] = col


def _pivot_loop(t, rhs, basis, obj, tol, budget, iterations):
    while True:
        improving = obj - obj[basis] @ t > tol
        if not improving.any():
            return iterations
        entering = int(np.argmax(improving))
        col = t[:, entering]
        rows = np.flatnonzero(col > tol)
        if not rows.size:
            raise UnboundedError("improving direction has no blocking constraint")
        ratios = rhs[rows] / col[rows]
        # Bland anti-cycling: ties on the ratio go to the lowest basis index
        tied = rows[ratios <= ratios.min() + 1e-12]
        _pivot(t, rhs, basis, int(tied[np.argmin(basis[tied])]), entering)
        iterations += 1
        if iterations > budget:
            raise RuntimeError(f"simplex iteration budget {budget} exhausted")


def simplex_solve(lp: LinearProgram, tol: float = LP_TOL) -> SimplexResult:
    """Two-phase primal simplex with Bland's rule.

    Raises InfeasibleError / UnboundedError accordingly and RuntimeError when
    the iteration budget 10 * (rows + columns) is exhausted. Optimality of the
    returned point is certified by nonnegative reduced costs within `tol`.
    """
    a = np.array(lp.a, dtype=float)
    rhs = np.array(lp.b, dtype=float)
    senses = list(lp.senses)
    m, n = a.shape
    for i in range(m):
        if rhs[i] < 0:
            a[i] *= -1.0
            rhs[i] *= -1.0
            senses[i] = {"<=": ">=", ">=": "<=", "=": "="}[senses[i]]

    cols = [a]
    next_col = n
    slack_of = {}
    for i, s in enumerate(senses):
        if s in ("<=", ">="):
            col = np.zeros((m, 1))
            col[i, 0] = 1.0 if s == "<=" else -1.0
            cols.append(col)
            if s == "<=":
                slack_of[i] = next_col
            next_col += 1
    first_artificial = next_col
    artificial_of = {}
    for i, s in enumerate(senses):
        if s != "<=":
            col = np.zeros((m, 1))
            col[i, 0] = 1.0
            cols.append(col)
            artificial_of[i] = next_col
            next_col += 1
    t = np.hstack(cols)
    total = next_col
    basis = np.array(
        [slack_of[i] if senses[i] == "<=" else artificial_of[i] for i in range(m)], dtype=int
    )
    budget = 10 * (m + total)
    iterations = 0

    if artificial_of:
        phase1 = np.zeros(total)
        phase1[first_artificial:] = -1.0
        iterations = _pivot_loop(t, rhs, basis, phase1, tol, budget, iterations)
        if float(phase1[basis] @ rhs) < -tol:
            raise InfeasibleError(f"artificial residual {-float(phase1[basis] @ rhs):.3e}")
        keep = np.ones(m, dtype=bool)
        for i in np.flatnonzero(basis >= first_artificial):
            nonzero = np.flatnonzero(np.abs(t[i, :first_artificial]) > tol)
            if nonzero.size:
                _pivot(t, rhs, basis, i, int(nonzero[0]))
            else:
                keep[i] = False
        t, rhs, basis = t[keep], rhs[keep], basis[keep]
        t = t[:, :first_artificial]
        total = first_artificial

    obj = np.zeros(total)
    obj[:n] = np.asarray(lp.c, dtype=float)
    iterations = _pivot_loop(t, rhs, basis, obj, tol, budget, iterations)
    reduced = obj - obj[basis] @ t
    if float(reduced.max(initial=0.0)) > tol:
        raise RuntimeError("optimality certificate failed: positive reduced cost")
    x = np.zeros(total)
    x[basis] = rhs
    x = np.where(np.abs(x) < tol, 0.0, x)
    return SimplexResult(value=float(obj[:n] @ x[:n]), x=x[:n], iterations=iterations)


def _require_ns(box: Box, what: str):
    report = box.ns_report
    if not report.passed:
        raise ValueError(
            f"{what} needs a no-signalling box: {report.location} deviates by {report.max_violation:.3e}"
        )


def fod_exact(box: Box, budget: int = 10**6):
    """Largest single-deterministic weight: max over strategies of the minimum
    matched cell. Ties keep the lexicographically first strategy.

    Once Alice's assignment alpha is fixed, Bob's outputs are chosen per
    input: the value is max_alpha min_y max_b g[alpha, y, b] with
    g[alpha, y, b] = min_x p[x, y, alpha_x, b]."""
    _require_ns(box, "fraction of determinism")
    sc = box.scenario
    alice, _ = _strategy_arrays(sc, budget)
    g = box.p[np.arange(sc.inputs_a), :, alice, :].min(axis=1)
    g[:, np.arange(g.shape[2]) >= np.array(sc.outcomes_b)[:, None]] = -np.inf
    values = g.max(axis=2).min(axis=1)
    best = int(np.argmax(values))
    # first alpha with the largest value, then per y the first b reaching it
    strategy = DeterministicStrategy(alice[best], np.argmax(g[best] >= values[best], axis=1))
    # the winner's cells in enumeration order give the value, sign of zero included
    value = min(
        float(box.p[x, y, a, b])
        for x, a in enumerate(strategy.alice)
        for y, b in enumerate(strategy.bob)
    )
    return value, strategy


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
                if float(w) > 0.0
            ],
            "residual": None if self.residual is None else self.residual.to_dict(),
        }


def cf_exact(box: Box, budget: int = 10**6):
    """Classical fraction by LP: maximize sum c_i with sum_i c_i D_i <= P
    entrywise, c >= 0, sum c_i <= 1. Returns (value, Decomposition)."""
    _require_ns(box, "classical fraction")
    sc = box.scenario
    alice, bob = _strategy_arrays(sc, budget)
    n = len(alice) * len(bob)
    # one row per cell (x, y, a, b) with a, b inside the outcome counts,
    # one column per strategy in enumeration order, then the row sum c <= 1
    rows = []
    for x, ka in enumerate(sc.outcomes_a):
        hit_a = alice[:, x] == np.arange(ka)[:, None]
        for y, kb in enumerate(sc.outcomes_b):
            hit_b = bob[:, y] == np.arange(kb)[:, None]
            rows.append((hit_a[:, None, :, None] & hit_b[None, :, None, :]).reshape(ka * kb, n))
    rows.append(np.ones((1, n)))
    cells = np.concatenate(
        [box.block(x, y).ravel() for x in range(sc.inputs_a) for y in range(sc.inputs_b)]
    )
    a = np.vstack(rows)
    lp = LinearProgram(
        c=np.ones(n),
        a=a,
        b=np.append(np.where(cells > 0.0, cells, 0.0), 1.0),
        senses=("<=",) * len(a),
    )
    result = simplex_solve(lp)
    coeffs = np.clip(result.x, 0.0, None)
    total = float(coeffs.sum())
    used = np.flatnonzero(coeffs > 0.0)
    used_a, used_b = alice[used // len(bob)], bob[used % len(bob)]
    # P - sum_i c_i D_i, subtracted term by term in strategy order (ufunc.at
    # is unbuffered): the residual's last bits depend on this order.
    leftover = np.array(box.p)
    np.subtract.at(leftover, _cells(used_a, used_b), coeffs[used][:, None, None])
    residual = None
    defect = leftover
    if total < 1.0 - LP_TOL:
        residual = Box(sc, np.clip(leftover, 0.0, None) / (1.0 - total))
        defect = leftover - (1.0 - total) * residual.p
    decomp = Decomposition(
        strategies=tuple(map(DeterministicStrategy, used_a, used_b)),
        coefficients=coeffs[used],
        total=total,
        residual=residual,
    )
    if float(np.abs(defect).max()) > RECONSTRUCTION_TOL:
        raise RuntimeError("decomposition does not reconstruct the box")
    return total, decomp


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
