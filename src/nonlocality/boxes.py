"""Bipartite boxes: conditional distributions p(a, b | x, y) and Bell functionals.

Boxes are stored densely as arrays of shape (nA, nB, max_a, max_b) in
(x, y, a, b) order; cells outside an input's outcome count are structural
zeros. Outcome counts may differ per input.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .linalg import tensor
from .records import Record
from .states import DensityMatrix, _check_counts, _check_weights, _trusted, singlet, xz_spin_povm

ENTRY_TOL = 1e-12
NORMALIZATION_TOL = 1e-9
NS_TOL = 1e-9
ENUMERATION_BUDGET = 10**6


@dataclass(frozen=True)
class Scenario:
    """Outcome counts per input for each party."""

    outcomes_a: tuple
    outcomes_b: tuple

    def __post_init__(self):
        a, b = tuple(self.outcomes_a), tuple(self.outcomes_b)
        if not a or not b:
            raise ValueError("each party needs at least one input")
        _check_counts(a + b)
        object.__setattr__(self, "outcomes_a", tuple(int(k) for k in a))
        object.__setattr__(self, "outcomes_b", tuple(int(k) for k in b))

    @property
    def inputs_a(self) -> int:
        return len(self.outcomes_a)

    @property
    def inputs_b(self) -> int:
        return len(self.outcomes_b)

    @property
    def shape(self) -> tuple:
        return (self.inputs_a, self.inputs_b, max(self.outcomes_a), max(self.outcomes_b))

    @cached_property
    def inside(self) -> np.ndarray:
        """Read-only mask of shape `shape`, True on the cells (x, y, a, b) with
        a and b inside the outcome counts of inputs x and y."""
        a_in = np.arange(self.shape[2]) < np.array(self.outcomes_a)[:, None]  # (nA, max_a)
        b_in = np.arange(self.shape[3]) < np.array(self.outcomes_b)[:, None]  # (nB, max_b)
        mask = a_in[:, None, :, None] & b_in[None, :, None, :]
        mask.setflags(write=False)
        return mask

    def to_dict(self) -> dict:
        return {
            "nA": self.inputs_a,
            "nB": self.inputs_b,
            "outcomesA": list(self.outcomes_a),
            "outcomesB": list(self.outcomes_b),
        }

    @staticmethod
    def from_dict(d: dict) -> "Scenario":
        try:
            sc = Scenario(tuple(d["outcomesA"]), tuple(d["outcomesB"]))
        except (TypeError, KeyError) as exc:
            raise ValueError(f"scenario dict needs outcome-count lists: {exc}") from None
        # JSON integers only, as for the outcome counts: 2.0 and true are not counts
        counts = (d.get("nA", sc.inputs_a), d.get("nB", sc.inputs_b))
        if tuple(map(type, counts)) != (int, int) or counts != (sc.inputs_a, sc.inputs_b):
            raise ValueError(f"input counts {counts!r} are not the integer lengths of the outcome lists")
        return sc


class _Table:
    """Dense table on a scenario: the one body of `Box` and `BellFunctional`.
    A subclass names its table field `_FIELD` and itself `_KIND` in errors;
    `_NORMALIZED` makes every block a probability distribution. Cells must
    be finite, and zero past each input's outcome counts. A functional's
    largest magnitude times its cell count must be finite too, so that no
    sum of its cells, weighted by probabilities, overflows."""

    def __post_init__(self):
        sc = self.scenario
        t = np.asarray(getattr(self, self._FIELD), dtype=float)
        if t.shape != sc.shape:
            raise ValueError(f"table shape {t.shape} does not match scenario {sc.shape}")
        bad = np.argwhere(~np.isfinite(t))
        if bad.size:
            raise ValueError(f"non-finite table entry at (x, y, a, b) = {tuple(bad[0].tolist())}")
        inside = sc.inside
        pad = (np.where(inside, 0.0, t) != 0.0).any(axis=(2, 3))
        fault = pad
        if not self._NORMALIZED:
            # a functional's cells may take any finite value whose sums stay
            # finite; a Python-float product past the range is inf, unwarned
            top = float(np.abs(t).max())
            if not math.isfinite(top * t.size):
                raise ValueError(
                    f"{self._KIND} is too large: {t.size} cells of magnitude up to {top!r} overflow a sum"
                )
        else:
            # a block with zero padding has no padding cell out of range
            out_of_range = ((t < -ENTRY_TOL) | (t > 1.0 + ENTRY_TOL)).any(axis=(2, 3))
            totals = np.where(inside & ~out_of_range[:, :, None, None], t, 0.0).sum(axis=(2, 3))
            # half the tolerance: this summation order is not the block's own
            fault = pad | out_of_range | (np.abs(totals - 1.0) > NORMALIZATION_TOL / 2)
        for x, y in np.argwhere(fault).tolist():
            if pad[x, y]:
                raise ValueError(f"structural-zero cells are nonzero at input pair ({x}, {y})")
            if out_of_range[x, y]:
                raise ValueError(f"probabilities out of range at input pair ({x}, {y})")
            total = float(t[x, y, : sc.outcomes_a[x], : sc.outcomes_b[y]].sum())
            if abs(total - 1.0) > NORMALIZATION_TOL:
                raise ValueError(f"block ({x}, {y}) sums to {total!r}, expected 1")
        t.setflags(write=False)
        object.__setattr__(self, self._FIELD, t)

    def block(self, x: int, y: int) -> np.ndarray:
        table = getattr(self, self._FIELD)
        return table[x, y, : self.scenario.outcomes_a[x], : self.scenario.outcomes_b[y]]

    def to_dict(self) -> dict:
        return {
            "scenario": self.scenario.to_dict(),
            self._FIELD: [
                [self.block(x, y).tolist() for y in range(self.scenario.inputs_b)]
                for x in range(self.scenario.inputs_a)
            ],
        }

    @classmethod
    def from_dict(cls, d: dict):
        key, kind = cls._FIELD, cls._KIND
        try:
            sc, rows = Scenario.from_dict(d["scenario"]), d[key]
        except (TypeError, KeyError) as exc:
            raise ValueError(f"{kind} dict needs 'scenario' and '{key}' entries: {exc}") from None
        def not_a_table(x, y):
            ka, kb = sc.outcomes_a[x], sc.outcomes_b[y]
            return ValueError(f"{kind} block at input pair ({x}, {y}) is not a {ka} x {kb} table of numbers")

        # the blocks' shapes in x-major order up to the first missing or
        # misshapen block; a short row must not broadcast
        shaped, fault = [], None
        for (x, ka), (y, kb) in itertools.product(enumerate(sc.outcomes_a), enumerate(sc.outcomes_b)):
            try:
                block = rows[x][y]
            except (TypeError, KeyError, IndexError):
                fault = ValueError(f"{kind} dict has no block at input pair ({x}, {y})")
                break
            if not (
                type(block) is list
                and len(block) == ka
                and set(map(type, block)) == {list}
                and set(map(len, block)) == {kb}
            ):
                fault = not_a_table(x, y)
                break
            shaped.append(block)
        # then the cells of those blocks in one pass: JSON numbers only, as a
        # bool or a numeric string is not a cell
        cells = list(itertools.chain.from_iterable(itertools.chain.from_iterable(shaped)))
        try:
            values = np.array(cells, dtype=float) if set(map(type, cells)) <= {int, float} else None
        except OverflowError:
            values = None
        if values is None:
            # a cell failed: the first block holding one, before any shape fault
            for i, block in enumerate(shaped):
                x, y = divmod(i, sc.inputs_b)
                if not all(type(v) in (int, float) for row in block for v in row):
                    raise not_a_table(x, y)
                try:
                    np.array(block, dtype=float)
                except OverflowError:
                    raise ValueError(
                        f"{kind} block at input pair ({x}, {y}) has an integer too large for a float"
                    ) from None
        if fault is not None:
            raise fault
        # the padded table is allocated only once every block has passed: the
        # declared outcome counts alone may ask for more memory than exists
        t = np.zeros(sc.shape)
        t[sc.inside] = values
        return cls(sc, t)


@dataclass(frozen=True, eq=False)
class Box(_Table):
    """Normalized conditional distribution table.

    The constructor and `from_dict` check it: finite cells in [-ENTRY_TOL,
    1 + ENTRY_TOL], structural zeros, and blocks summing to 1 within
    NORMALIZATION_TOL. A box the library computes is built by
    `_derived_box`, which passes that check by construction.
    """

    _FIELD, _KIND, _NORMALIZED = "p", "box", True

    scenario: Scenario
    p: np.ndarray

    @cached_property
    def ns_report(self) -> NsReport:
        """`validate_ns` at NS_TOL, run once per box: the table is read-only."""
        return validate_ns(self)


def _derived_box(scenario: Scenario, table: np.ndarray) -> Box:
    """The box of a computed table with zero structural cells and positive block
    sums: clipped at 0, each block over its own sum, so `Box`'s check passes."""
    kept = np.clip(table, 0.0, None)
    return _trusted(Box, scenario=scenario, p=kept / kept.sum(axis=(2, 3), keepdims=True))


@dataclass(frozen=True)
class NsReport(Record):
    _RENAME = {"passed": "pass"}

    passed: bool
    max_violation: float
    location: str


@functools.cache
def _input_pairs(n: int) -> tuple:
    """Index arrays (j1, j2) of every pair of n inputs, in `itertools.combinations` order."""
    pairs = np.array(list(itertools.combinations(range(n), 2)), dtype=np.intp).reshape(-1, 2).T
    pairs.setflags(write=False)
    return pairs[0], pairs[1]


def validate_ns(box: Box) -> NsReport:
    """Check that each party's marginal ignores the other party's input.

    Both parties' marginals are summed at once, one slice per group of blocks
    that share an outcome-count pair (ka, kb): each sum then runs over the
    block's own cells in the order a per-block sum takes, so the marginals
    have the bits of `Box.block(x, y).sum(...)`; a slice padded to the
    largest count could switch numpy to pairwise summation. Every pair of
    the other party's inputs, in `itertools.combinations` order, gives the
    largest deviation of its two marginals. The report names the first
    largest deviation, Alice's x outer before Bob's y outer, or "none" when
    every deviation is 0."""
    sc = box.scenario
    n_a, n_b, max_a, max_b = sc.shape
    alice = np.zeros((n_a, n_b, max_a))  # alice[x, y, a]: sum_b p(a, b | x, y)
    bob = np.zeros((n_b, n_a, max_b))  # bob[y, x, b]: sum_a p(a, b | x, y)
    counts_a, counts_b = np.array(sc.outcomes_a), np.array(sc.outcomes_b)
    for ka in set(sc.outcomes_a):
        xs = np.flatnonzero(counts_a == ka)[:, None]
        for kb in set(sc.outcomes_b):
            ys = np.flatnonzero(counts_b == kb)[None, :]
            blocks = box.p[xs, ys, :ka, :kb]
            alice[xs, ys, :ka] = blocks.sum(axis=3)
            bob[ys.T, xs.T, :kb] = blocks.sum(axis=2).transpose(1, 0, 2)
    worst, where = 0.0, "none"
    for party, own, other, marg in (("alice", "x", "y", alice), ("bob", "y", "x", bob)):
        j1, j2 = _input_pairs(marg.shape[1])
        if not j1.size:
            continue
        devs = np.abs(marg[:, j1] - marg[:, j2]).max(axis=2)  # [own input, pair]
        first = int(devs.argmax())
        if devs.flat[first] > worst:
            i, k = divmod(first, len(j1))
            worst = float(devs.flat[first])
            where = f"{party} marginal at {own}={i} between {other}={j1[k]} and {other}={j2[k]}"
    return NsReport(passed=bool(worst <= NS_TOL), max_violation=worst, location=where)


@dataclass(frozen=True)
class DeterministicStrategy:
    """Fixed outputs per input for each party."""

    alice: tuple
    bob: tuple

    def __post_init__(self):
        for side in ("alice", "bob"):
            outputs = tuple(getattr(self, side))
            if any(isinstance(o, bool) or not isinstance(o, (int, np.integer)) for o in outputs):
                raise ValueError(f"{side} outputs must be integers, got {outputs!r}")
            object.__setattr__(self, side, tuple(int(o) for o in outputs))


def _strategy(alice: np.ndarray, bob: np.ndarray) -> DeterministicStrategy:
    """The strategy of rows of `assignments`, built unchecked: integers in range."""
    return _trusted(DeterministicStrategy, alice=tuple(alice.tolist()), bob=tuple(bob.tolist()))


def enumerate_deterministic(scenario: Scenario):
    """All deterministic strategies, lexicographic with Alice assignments outer.
    The budget counts their outputs: nA + nB per strategy."""
    strategies = math.prod(scenario.outcomes_a) * math.prod(scenario.outcomes_b)
    alice, bob = _listing(scenario, full=True, once=strategies * (scenario.inputs_a + scenario.inputs_b))
    return [_strategy(a, b) for a in alice for b in bob]


def assignments(outcomes) -> np.ndarray:
    """Every output assignment of one party, one row per assignment, in
    lexicographic order (last input fastest). Strategy s of
    `enumerate_deterministic` is (alice[i], bob[j]) with i, j = divmod(s, len(bob))."""
    return _assignment(tuple(outcomes), np.arange(math.prod(outcomes)))


def _assignment(counts: tuple, rows) -> np.ndarray:
    """Row `rows` of `assignments(counts)`, or the rows of an array of indices:
    each index's digits in the mixed radix `counts`, the last input's lowest.
    No array has an axis per input, so any number of inputs is listed."""
    digits = []
    for k in reversed(counts):
        rows, digit = divmod(rows, k)
        digits.append(digit)
    return np.array(digits[::-1]).T


def _listing(scenario: Scenario, full: bool, widths: tuple = (0, 0), once: int = 0) -> tuple:
    """Alice's and Bob's `assignments` for a `full` listing, else none, made
    afresh once what the caller builds fits ENUMERATION_BUDGET: a full
    listing's strategies, and the largest of three cell counts: each party's
    assignment count times its `widths`, the cells built per assignment (a
    full listing adds its table's), and `once`, the cells of the largest
    array the caller builds once per call (`cf_exact`'s simplex table,
    the outputs of `enumerate_deterministic`'s strategies)."""
    alpha, beta = math.prod(scenario.outcomes_a), math.prod(scenario.outcomes_b)
    sides = alpha * (widths[0] + full * scenario.inputs_a), beta * (widths[1] + full * scenario.inputs_b)
    cells = max(*sides, once)
    for count, unit in ((full * alpha * beta, "strategies"), (cells, "table cells")):
        if count > ENUMERATION_BUDGET:
            raise ValueError(f"enumeration needs {count} {unit}, budget is {ENUMERATION_BUDGET}")
    return (assignments(scenario.outcomes_a), assignments(scenario.outcomes_b)) if full else ()


def _cells(alice: np.ndarray, bob: np.ndarray) -> tuple:
    """Index arrays (x, y, a, b) of the cells that strategies (alice, bob) set to 1;
    leading axes broadcast (alice[:, None] with bob[None, :] is every strategy)."""
    x = np.arange(alice.shape[-1])[:, None]
    y = np.arange(bob.shape[-1])
    return x, y, alice[..., :, None], bob[..., None, :]


def _winner_cells(table: np.ndarray, alice, bob) -> list:
    """The cells of one strategy as floats, x outer and y inner."""
    return table[_cells(np.array([alice]), np.array([bob]))].ravel().tolist()


def _alice_side(table: np.ndarray, scenario: Scenario, reduce) -> np.ndarray:
    """g[i, y, b] = reduce_x table[x, y, alice[i, x], b] for Alice's
    `assignments` alice, -inf past Bob's outcome counts: with Alice fixed, a
    strategy search separates over y. The ufunc `reduce` folds the inputs in
    x order, each input's outputs against every row of the inputs before it,
    so that no table of Alice's is listed and the largest array built is g."""
    _listing(scenario, full=False, widths=(scenario.inputs_b * scenario.shape[3], 0))
    by_output = table.transpose(0, 2, 1, 3)  # [x, a, y, b]
    g = np.array(by_output[0, : scenario.outcomes_a[0]])
    for x, k in enumerate(scenario.outcomes_a[1:], 1):
        g = reduce(g[:, None], by_output[x, :k]).reshape(-1, *g.shape[1:])
    g[:, ~scenario.inside[0, :, 0, :]] = -np.inf
    return g


def deterministic_box(strategy: DeterministicStrategy, scenario: Scenario) -> Box:
    sides = (("alice", strategy.alice, scenario.outcomes_a), ("bob", strategy.bob, scenario.outcomes_b))
    if any(len(out) != len(counts) for _, out, counts in sides):
        raise ValueError("strategy length does not match the scenario")
    for side, out, counts in sides:
        for x, (o, k) in enumerate(zip(out, counts)):
            if not 0 <= o < k:
                raise ValueError(f"{side} output {o} out of range for input {x}")
    t = np.zeros(scenario.shape)
    t[_cells(np.array([strategy.alice]), np.array([strategy.bob]))] = 1.0
    return _derived_box(scenario, t)


def local_box(scenario: Scenario, weights) -> Box:
    """Convex mixture of deterministic boxes: `weights` is a probability
    vector over the strategies in enumeration order. Each block is divided
    by the sum of the positive weights, which is 1 within WEIGHT_SUM_TOL."""
    alice, bob = _listing(scenario, full=True)
    w = _check_weights(weights, (len(alice) * len(bob),))
    used = np.flatnonzero(w > 0.0)
    i, j = divmod(used, len(bob))
    t = np.zeros(scenario.shape)
    # unbuffered and in strategy order: each cell sums its weights as a
    # term-by-term loop would
    np.add.at(t, _cells(alice[i], bob[j]), w[used][:, None, None])
    return _derived_box(scenario, t)


def pr_box() -> Box:
    """Nonlocal extremal box on the CHSH scenario: p = 1/2 when a xor b = x and y, else 0."""
    sc = chsh_scenario()
    t = np.zeros(sc.shape)
    for x, y, a, b in itertools.product(range(2), repeat=4):
        if (a ^ b) == x * y:
            t[x, y, a, b] = 0.5
    return Box(sc, t)


def maximally_mixed_box(scenario: Scenario) -> Box:
    inside = scenario.inside
    return Box(scenario, np.where(inside, 1.0 / inside.sum(axis=(2, 3), keepdims=True), 0.0))


def quantum_box(rho: DensityMatrix, alice_povms, bob_povms) -> Box:
    """Born-rule box p(a,b|x,y) = Tr((M^x_a (x) N^y_b) rho), negative cells
    raised to 0 and each block divided by its own sum (`_derived_box`): the
    checked state and POVMs make each block sum to about 1."""
    alice = list(alice_povms)
    bob = list(bob_povms)
    # one input per measurement: the scenario rejects a party without one
    sc = Scenario(tuple(len(p) for p in alice), tuple(len(p) for p in bob))
    da = alice[0].dim
    db = bob[0].dim
    if any(p.dim != da for p in alice) or any(p.dim != db for p in bob):
        raise ValueError("measurements of one party must share a dimension")
    if da * db != rho.dim:
        raise ValueError(f"state is {rho.dim}-dim, measurements give {da * db}")
    _, _, ka, kb = sc.shape
    # (x, a) and (y, b) stacks of elements, zero past each outcome count, so
    # that one (nA, nB, ka, kb, d, d) stack holds every M^x_a (x) N^y_b and
    # the structural cells come out as exact zeros
    stack_a = np.zeros((sc.inputs_a, ka, da, da), dtype=complex)
    stack_b = np.zeros((sc.inputs_b, kb, db, db), dtype=complex)
    for stack, povms in ((stack_a, alice), (stack_b, bob)):
        for i, povm in enumerate(povms):
            stack[i, : len(povm)] = povm.elements
    lifted = tensor(stack_a[:, None, :, None], stack_b[None, :, None, :])
    probs = np.real((lifted @ rho.mat).trace(axis1=-2, axis2=-1))
    return _derived_box(sc, probs)


@dataclass(frozen=True, eq=False)
class BellFunctional(_Table):
    """Linear functional sum s(a,b|x,y) p(a,b|x,y) on boxes."""

    _FIELD, _KIND, _NORMALIZED = "s", "functional", False

    scenario: Scenario
    s: np.ndarray


def bell_value(functional: BellFunctional, box: Box) -> float:
    if functional.scenario != box.scenario:
        raise ValueError("functional and box live on different scenarios")
    return float(np.sum(functional.s * box.p))


def bell_algebraic_max(functional: BellFunctional) -> float:
    """No-signalling-free ceiling: sum over inputs of the best coefficient."""
    sc = functional.scenario
    total = 0.0
    for x in range(sc.inputs_a):
        for y in range(sc.inputs_b):
            total += float(functional.block(x, y).max())
    return total


def bell_det_max(functional: BellFunctional) -> float:
    """Best value over deterministic strategies (the local/classical maximum),
    max_alpha sum_y max_b sum_x s[x, y, alpha_x, b]: the first best alpha and Bob's
    first best b per y give a strategy whose cells are re-summed, x outer, y inner."""
    h = _alice_side(functional.s, functional.scenario, np.add)
    best = int(np.argmax(h.max(axis=2).sum(axis=1)))
    alice = _assignment(functional.scenario.outcomes_a, best)
    total = 0.0  # a float loop: builtin sum compensates float sums from Python 3.12 on
    for cell in _winner_cells(functional.s, alice, np.argmax(h[best], axis=1)):
        total += cell
    return total


def chsh_scenario() -> Scenario:
    return Scenario((2, 2), (2, 2))


def chsh_functional() -> BellFunctional:
    """Correlator form E00 + E01 + E10 - E11 written on probabilities."""
    sc = chsh_scenario()
    t = np.zeros(sc.shape)
    for x, y, a, b in itertools.product(range(2), repeat=4):
        sign = 1.0 if (x, y) != (1, 1) else -1.0
        t[x, y, a, b] = sign * (1.0 if a == b else -1.0)
    return BellFunctional(sc, t)


def tsirelson_realization():
    """Singlet plus measurement angles reaching CHSH value 2 sqrt(2).

    Returns (rho, alice_povms, bob_povms): Alice measures along angles
    (0, pi/2) in the x-z plane, Bob along (5 pi/4, 3 pi/4).
    """
    rho = singlet()
    alice = (xz_spin_povm(0.0), xz_spin_povm(np.pi / 2))
    bob = (xz_spin_povm(5 * np.pi / 4), xz_spin_povm(3 * np.pi / 4))
    return rho, alice, bob
