"""Classical-fraction decompositions of boxes, backed by a small simplex solver.

The fraction-of-determinism of a box P is the largest c such that
P = c D + (1 - c) X for a single deterministic box D and some box X; since X
inherits normalization and no-signalling from P and D, only entrywise
nonnegativity binds, giving the closed form max_D min_{x,y} P(d_A(x), d_B(y)).
The classical fraction replaces the single D with a mixture and is a linear
program.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .boxes import Box, deterministic_box, enumerate_deterministic, validate_ns

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
    for i in range(t.shape[0]):
        if i != row and t[i, col] != 0.0:
            f = t[i, col]
            t[i] -= f * t[row]
            rhs[i] -= f * rhs[row]
    basis[row] = col


def _pivot_loop(t, rhs, basis, obj, tol, budget, iterations):
    m = t.shape[0]
    while True:
        reduced = obj - obj[basis] @ t
        entering = -1
        for j in range(t.shape[1]):
            if reduced[j] > tol:
                entering = j
                break
        if entering < 0:
            return iterations
        col = t[:, entering]
        ratios = [(rhs[i] / col[i], i) for i in range(m) if col[i] > tol]
        if not ratios:
            raise UnboundedError("improving direction has no blocking constraint")
        best = min(r for r, _ in ratios)
        # Bland anti-cycling: ties on the ratio go to the lowest basis index
        leave = min(
            (i for r, i in ratios if r <= best + 1e-12), key=lambda i: basis[i]
        )
        _pivot(t, rhs, basis, leave, entering)
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
    basis = [slack_of[i] if senses[i] == "<=" else artificial_of[i] for i in range(m)]
    budget = 10 * (m + total)
    iterations = 0

    if artificial_of:
        phase1 = np.zeros(total)
        phase1[first_artificial:] = -1.0
        iterations = _pivot_loop(t, rhs, basis, phase1, tol, budget, iterations)
        if float(phase1[basis] @ rhs) < -tol:
            raise InfeasibleError(f"artificial residual {-float(phase1[basis] @ rhs):.3e}")
        drop_rows = []
        for i in range(m):
            if basis[i] >= first_artificial:
                pivot_col = next(
                    (j for j in range(first_artificial) if abs(t[i, j]) > tol), None
                )
                if pivot_col is None:
                    drop_rows.append(i)
                else:
                    _pivot(t, rhs, basis, i, pivot_col)
        if drop_rows:
            keep = [i for i in range(m) if i not in drop_rows]
            t = t[keep]
            rhs = rhs[keep]
            basis = [basis[i] for i in keep]
        t = t[:, :first_artificial]
        total = first_artificial

    obj = np.zeros(total)
    obj[:n] = np.asarray(lp.c, dtype=float)
    iterations = _pivot_loop(t, rhs, basis, obj, tol, budget, iterations)
    reduced = obj - obj[basis] @ t
    if float(reduced.max(initial=0.0)) > tol:
        raise RuntimeError("optimality certificate failed: positive reduced cost")
    x = np.zeros(total)
    for i, j in enumerate(basis):
        x[j] = rhs[i]
    x = np.where(np.abs(x) < tol, 0.0, x)
    return SimplexResult(value=float(obj[:n] @ x[:n]), x=x[:n], iterations=iterations)


def _require_ns(box: Box, what: str):
    report = validate_ns(box)
    if not report.passed:
        raise ValueError(
            f"{what} needs a no-signalling box: {report.location} deviates by {report.max_violation:.3e}"
        )


def fod_exact(box: Box, budget: int = 10**6):
    """Largest single-deterministic weight: max over strategies of the minimum
    matched cell. Ties keep the lexicographically first strategy."""
    _require_ns(box, "fraction of determinism")
    best_value = -1.0
    best_strategy = None
    for strat in enumerate_deterministic(box.scenario, budget):
        worst = min(
            float(box.p[x, y, a, b])
            for x, a in enumerate(strat.alice)
            for y, b in enumerate(strat.bob)
        )
        if worst > best_value:
            best_value = worst
            best_strategy = strat
    return best_value, best_strategy


@dataclass(frozen=True, eq=False)
class Decomposition:
    """P = sum_i c_i D_i + (1 - sum c_i) X with X a box (None when sum = 1)."""

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
    strategies = enumerate_deterministic(sc, budget)
    n = len(strategies)
    rows = []
    rhs = []
    for x in range(sc.inputs_a):
        for y in range(sc.inputs_b):
            for a in range(sc.outcomes_a[x]):
                for b in range(sc.outcomes_b[y]):
                    rows.append(
                        [1.0 if (s.alice[x] == a and s.bob[y] == b) else 0.0 for s in strategies]
                    )
                    rhs.append(max(0.0, float(box.p[x, y, a, b])))
    rows.append([1.0] * n)
    rhs.append(1.0)
    lp = LinearProgram(
        c=np.ones(n),
        a=np.array(rows),
        b=np.array(rhs),
        senses=("<=",) * len(rows),
    )
    result = simplex_solve(lp)
    coeffs = np.clip(result.x, 0.0, None)
    total = float(coeffs.sum())
    # P - sum_i c_i D_i, subtracted term by term: the residual's last bits
    # depend on this order.
    leftover = np.array(box.p)
    for w, s in zip(coeffs, strategies):
        if w > 0.0:
            leftover -= w * deterministic_box(s, sc).p
    residual = None
    defect = leftover
    if total < 1.0 - LP_TOL:
        residual = Box(sc, np.clip(leftover, 0.0, None) / (1.0 - total))
        defect = leftover - (1.0 - total) * residual.p
    decomp = Decomposition(
        strategies=tuple(strategies), coefficients=coeffs, total=total, residual=residual
    )
    if float(np.abs(defect).max()) > RECONSTRUCTION_TOL:
        raise RuntimeError("decomposition does not reconstruct the box")
    return total, decomp


def bell_bound_from_fod(beta_algebraic: float, beta_deterministic: float, c: float) -> float:
    """Bell-value ceiling beta_alg - c (beta_alg - beta_det) implied by a
    deterministic fraction c."""
    if not (0.0 <= c <= 1.0 + 1e-12):
        raise ValueError(f"fraction must lie in [0, 1], got {c!r}")
    if beta_deterministic > beta_algebraic + 1e-12:
        raise ValueError("deterministic maximum cannot exceed the algebraic maximum")
    return beta_algebraic - c * (beta_algebraic - beta_deterministic)
