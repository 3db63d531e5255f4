"""Bipartite boxes: conditional distributions p(a, b | x, y) and Bell functionals.

Boxes are stored densely as arrays of shape (nA, nB, max_a, max_b) in
(x, y, a, b) order; cells outside an input's outcome count are structural
zeros. Outcome counts may differ per input.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .linalg import tensor
from .records import Record
from .states import DensityMatrix, _check_counts, _check_weights, singlet, xz_spin_povm

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

    def strategy_count(self) -> int:
        return math.prod(self.outcomes_a + self.outcomes_b)

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
        if sc.inputs_a != d.get("nA", sc.inputs_a) or sc.inputs_b != d.get("nB", sc.inputs_b):
            raise ValueError("input counts disagree with outcome lists")
        return sc


class _Table:
    """Dense table on a scenario: the one body of `Box` and `BellFunctional`.
    A subclass names its table field `_FIELD` and itself `_KIND` in errors;
    `_NORMALIZED` makes every block a probability distribution. Cells must
    be finite, and zero past each input's outcome counts."""

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
        fault = pad  # a functional's cells may take any finite value
        if self._NORMALIZED:
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
        blocks = []
        for x, ka in enumerate(sc.outcomes_a):
            for y, kb in enumerate(sc.outcomes_b):
                try:
                    block = rows[x][y]
                except (TypeError, KeyError, IndexError):
                    raise ValueError(f"{kind} dict has no block at input pair ({x}, {y})") from None
                # JSON numbers only: a bool or a numeric string is not a cell,
                # and a short row must not broadcast
                if not (
                    type(block) is list
                    and len(block) == ka
                    and all(type(row) is list and len(row) == kb for row in block)
                    and all(type(v) in (int, float) for row in block for v in row)
                ):
                    raise ValueError(
                        f"{kind} block at input pair ({x}, {y}) is not a {ka} x {kb} table of numbers"
                    )
                try:
                    blocks.append(np.array(block, dtype=float).ravel())
                except OverflowError:
                    raise ValueError(
                        f"{kind} block at input pair ({x}, {y}) has an integer too large for a float"
                    ) from None
        # the padded table is allocated only once every block has passed: the
        # declared outcome counts alone may ask for more memory than exists
        t = np.zeros(sc.shape)
        t[sc.inside] = np.concatenate(blocks)
        return cls(sc, t)


@dataclass(frozen=True, eq=False)
class Box(_Table):
    """Normalized conditional distribution table."""

    _FIELD, _KIND, _NORMALIZED = "p", "box", True

    scenario: Scenario
    p: np.ndarray

    @cached_property
    def ns_report(self) -> NsReport:
        """`validate_ns` at NS_TOL, run once per box: the table is read-only."""
        return validate_ns(self)


@dataclass(frozen=True)
class NsReport(Record):
    _RENAME = {"passed": "pass"}

    passed: bool
    max_violation: float
    location: str


def validate_ns(box: Box) -> NsReport:
    """Check that each party's marginal ignores the other party's input: one
    scan over the table for Alice and over its party-swapped transpose for Bob."""
    sc = box.scenario
    worst = 0.0
    where = "none"
    sides = (
        ("alice", "x", "y", box.p, sc.outcomes_a, sc.outcomes_b),
        ("bob", "y", "x", box.p.transpose(1, 0, 3, 2), sc.outcomes_b, sc.outcomes_a),
    )
    for party, own, other, table, own_counts, other_counts in sides:
        for i, ki in enumerate(own_counts):
            marg = [table[i, j, :ki, :kj].sum(axis=1) for j, kj in enumerate(other_counts)]
            for j1, j2 in itertools.combinations(range(len(other_counts)), 2):
                dev = float(np.abs(marg[j1] - marg[j2]).max())
                if dev > worst:
                    worst, where = dev, f"{party} marginal at {own}={i} between {other}={j1} and {other}={j2}"
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


def _check_budget(scenario: Scenario) -> None:
    count = scenario.strategy_count()
    if count > ENUMERATION_BUDGET:
        raise ValueError(f"enumeration needs {count} strategies, budget is {ENUMERATION_BUDGET}")


def enumerate_deterministic(scenario: Scenario):
    """All deterministic strategies, lexicographic with Alice assignments outer."""
    _check_budget(scenario)
    alice_all = itertools.product(*(range(k) for k in scenario.outcomes_a))
    out = []
    for alice in alice_all:
        for bob in itertools.product(*(range(k) for k in scenario.outcomes_b)):
            out.append(DeterministicStrategy(alice=alice, bob=bob))
    return out


def assignments(outcomes) -> np.ndarray:
    """Every output assignment of one party, one row per assignment, in
    lexicographic order (last input fastest). Strategy s of
    `enumerate_deterministic` is (alice[i], bob[j]) with i, j = divmod(s, len(bob))."""
    return np.indices(tuple(outcomes)).reshape(len(outcomes), -1).T


def _strategy_arrays(scenario: Scenario):
    """`assignments` of Alice and of Bob, the one listing of strategies,
    within the same budget on their product as `enumerate_deterministic`."""
    _check_budget(scenario)
    return assignments(scenario.outcomes_a), assignments(scenario.outcomes_b)


def _cells(alice: np.ndarray, bob: np.ndarray) -> tuple:
    """Index arrays (x, y, a, b) of the cells that strategies (alice, bob) set to 1;
    leading axes broadcast (alice[:, None] with bob[None, :] is every strategy)."""
    x = np.arange(alice.shape[-1])[:, None]
    y = np.arange(bob.shape[-1])
    return x, y, alice[..., :, None], bob[..., None, :]


def _winner_cells(table: np.ndarray, alice, bob) -> list:
    """The cells of one strategy as floats, x outer and y inner."""
    return table[_cells(np.array([alice]), np.array([bob]))].ravel().tolist()


def _alice_side(table: np.ndarray, scenario: Scenario, reduce):
    """Alice's assignments and g[i, y, b] = reduce_x table[x, y, alice[i, x], b], -inf
    past Bob's outcome counts: with Alice fixed, a strategy search separates over y."""
    alice, _ = _strategy_arrays(scenario)
    g = reduce(table[np.arange(scenario.inputs_a), :, alice, :], axis=1)
    g[:, ~scenario.inside[0, :, 0, :]] = -np.inf
    return alice, g


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
    return Box(scenario, t)


def local_box(scenario: Scenario, weights) -> Box:
    """Convex mixture of deterministic boxes: `weights` is a probability
    vector over the strategies in enumeration order."""
    alice, bob = _strategy_arrays(scenario)
    w = _check_weights(weights, (len(alice) * len(bob),))
    used = np.flatnonzero(w > 0.0)
    i, j = divmod(used, len(bob))
    t = np.zeros(scenario.shape)
    # unbuffered and in strategy order: each cell sums its weights as a
    # term-by-term loop would
    np.add.at(t, _cells(alice[i], bob[j]), w[used][:, None, None])
    return Box(scenario, t)


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
    """Born-rule box p(a,b|x,y) = Tr((M^x_a (x) N^y_b) rho)."""
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
    return Box(sc, np.where(probs > 0.0, probs, 0.0))


@dataclass(frozen=True, eq=False)
class BellFunctional(_Table):
    """Linear functional sum s(a,b|x,y) p(a,b|x,y) on boxes."""

    _FIELD, _KIND, _NORMALIZED = "s", "functional", False

    scenario: Scenario
    s: np.ndarray

    @cached_property
    def algebraic_max(self) -> float:
        return bell_algebraic_max(self)

    @cached_property
    def deterministic_max(self) -> float:
        return bell_det_max(self)


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
    alice, h = _alice_side(functional.s, functional.scenario, np.sum)
    best = int(np.argmax(h.max(axis=2).sum(axis=1)))
    total = 0.0  # a float loop: builtin sum compensates float sums from Python 3.12 on
    for cell in _winner_cells(functional.s, alice[best], np.argmax(h[best], axis=1)):
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
