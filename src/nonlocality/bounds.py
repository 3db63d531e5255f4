"""Universal lower bounds on the fraction of determinism of quantum boxes.

Every two-input box realized by measuring a shared quantum state carries a
guaranteed deterministic fraction. The argument chains four steps: steering by
either of Bob's measurements yields two ensembles with a common average; after
truncating light members, some cross pair of steered states is close; a close
pair shares a confusing outcome under every Alice measurement; that outcome,
weighted by the surviving Bob probabilities, floors one deterministic box's
coefficient. Optimizing the truncation threshold gives the universal constant.
"""

from __future__ import annotations

import decimal
import functools
import math
from dataclasses import dataclass, field
from decimal import Decimal

import numpy as np

from .boxes import _check_counts, quantum_box
from .linalg import trace_norm
from .records import Record
from .states import (
    DensityMatrix,
    Ensemble,
    Povm,
    _average_distance,
    steer,
    trace_distance,
    truncate_ensemble,
)

PIPELINE_TOL = 1e-8
MU_SEARCH_HI = 50.0
MU_AGREE_TOL = 1e-8
# binary_bob_bounds: first grid step, and the step its zooming stops at
GRID_STEP = 1e-3
REFINE_STEP = 1e-6


def mu_objective(mu):
    """Per-member floor factor ((mu - 2) / (mu - 1))^2 / mu of the truncation
    threshold 1 / (l mu); positive only for mu > 2. Takes a float or a
    Decimal and returns the same type."""
    if mu <= 1:
        raise ValueError(f"objective needs mu > 1, got {mu!r}")
    return ((mu - 2) / (mu - 1)) ** 2 / mu


def golden_section_max(fn, lo, hi, tol=1e-12):
    """Argmax of a unimodal function on [lo, hi] by golden-section search,
    in the arithmetic of `lo`: float, or Decimal at the context precision."""
    if not lo < hi:
        raise ValueError("empty search interval")
    five = type(lo)(5)
    inv_phi = ((five.sqrt() if isinstance(five, Decimal) else math.sqrt(five)) - 1) / 2
    a, b = lo, hi
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc, fd = fn(c), fn(d)
    while b - a > tol:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = fn(d)
    return (a + b) / 2


@dataclass(frozen=True)
class MuOptimum(Record):
    mu: float
    value: float


@functools.cache
def _searched_mu() -> float:
    """Argmax of the truncation objective over (2, 50] in 40-digit decimal
    arithmetic; float64 is too flat near the maximum to localize the argmax
    beyond ~1e-7."""
    with decimal.localcontext() as ctx:
        ctx.prec = 40
        lo, hi = Decimal("2.000000001"), Decimal(MU_SEARCH_HI)
        return float(golden_section_max(mu_objective, lo, hi, Decimal("1e-12")))


def optimize_mu() -> MuOptimum:
    """Maximizer of mu_objective: mu = (5 + sqrt(17)) / 2, cross-checked
    against a golden-section search; raises RuntimeError on disagreement."""
    mu = (5.0 + math.sqrt(17.0)) / 2.0
    searched = _searched_mu()
    if abs(searched - mu) > MU_AGREE_TOL:
        raise RuntimeError(
            f"closed-form maximizer {mu!r} disagrees with search {searched!r}"
        )
    return MuOptimum(mu=mu, value=mu_objective(mu))


def epsilon_from_average_distance(x: float, l1: int, l2: int) -> float:
    """Closeness floor for some cross pair of two ensembles whose averages are
    at trace distance x: epsilon = ((2 - x) / 2)^2 / (l1 l2), and the closest
    pair then satisfies distance <= 2 - epsilon."""
    if not 0.0 <= x < 2.0:
        raise ValueError(f"average distance must lie in [0, 2), got {x!r}")
    if l1 < 1 or l2 < 1:
        raise ValueError("ensemble sizes must be at least 1")
    return ((2.0 - x) / 2.0) ** 2 / (l1 * l2)


@dataclass(frozen=True)
class UniversalBound(Record):
    """Fraction-of-determinism floor f(mu0) / (2k l l1 l2), with the looser
    all-l form f(mu0) / (2k l^3) kept alongside."""

    k: int
    l1: int
    l2: int
    theorem_form: float
    proof_form: float


def universal_fod_bound(k: int, l1: int, l2: int) -> UniversalBound:
    """Universal deterministic-fraction floor for boxes from k-outcome Alice
    measurements and Bob measurements steering into l1- and l2-member
    ensembles. proof_form replaces l1 l2 by l^2 and is never larger."""
    _check_counts((k, l1, l2))
    fmax = optimize_mu().value
    l = max(l1, l2)
    theorem = fmax / (2.0 * k * l * l1 * l2)
    proof = fmax / (2.0 * k * l**3)
    return UniversalBound(k=k, l1=l1, l2=l2, theorem_form=theorem, proof_form=proof)


@dataclass(frozen=True)
class ConfusingOutcome(Record):
    """Outcome of a k-outcome measurement carrying probability >= epsilon on
    both states of a close pair, epsilon = (2 - distance) / (2k)."""

    index: int
    epsilon: float
    prob_rho: float
    prob_sigma: float


def confusing_outcome(rho: DensityMatrix, sigma: DensityMatrix, povm: Povm) -> ConfusingOutcome:
    """Smallest-index outcome with min(Tr(X_r rho), Tr(X_r sigma)) >= epsilon.

    Exists for every POVM because the outcome distributions have total
    variation at most the trace distance, leaving overlap 2 - distance spread
    over k outcomes.
    """
    if povm.dim != rho.dim or povm.dim != sigma.dim:
        raise ValueError("measurement and states must share a dimension")
    return _confusing_outcome(rho.mat, sigma.mat, povm, trace_distance(rho, sigma))


def _confusing_outcome(rho, sigma, povm: Povm, distance: float) -> ConfusingOutcome:
    """`confusing_outcome` for state matrices at a known trace distance: the
    Born rule for both states and every outcome in one stacked product."""
    eps = (2.0 - distance) / (2.0 * len(povm))
    probs = np.real((povm.elements @ np.stack([rho, sigma])[:, None]).trace(axis1=-2, axis2=-1))
    hits = np.flatnonzero(np.minimum(*probs) >= eps - 1e-10)
    if not hits.size:
        raise RuntimeError("no outcome reached the guaranteed overlap floor")
    r = int(hits[0])
    p, q = probs[:, r].tolist()
    return ConfusingOutcome(index=r, epsilon=eps, prob_rho=p, prob_sigma=q)


@dataclass(frozen=True)
class ClosePair(Record):
    """Closest cross pair of two ensembles, with the guaranteed closeness
    floor epsilon derived from the distance of the ensemble averages."""

    i: int
    j: int
    distance: float
    epsilon: float
    average_distance: float


def close_pair(e1: Ensemble, e2: Ensemble) -> ClosePair:
    """Minimum-distance pair (first in i-major scan order on ties). All
    l1 l2 cross distances are one stacked trace norm."""
    if e1.dim != e2.dim:
        raise ValueError("ensembles must share a dimension")
    x = _average_distance(e1, e2)
    if x >= 2.0:
        raise ValueError("ensemble averages are perfectly distinguishable")
    eps = epsilon_from_average_distance(x, len(e1), len(e2))
    distances = trace_norm(e1.states[:, None] - e2.states[None, :])
    i, j = np.unravel_index(int(np.argmin(distances)), distances.shape)
    best_d = float(distances[i, j])
    if best_d > 2.0 - eps + PIPELINE_TOL:
        raise RuntimeError("closest pair misses its guaranteed closeness floor")
    return ClosePair(
        i=int(i), j=int(j), distance=best_d, epsilon=eps, average_distance=x
    )


@dataclass(frozen=True)
class InequalityRecord(Record):
    """One certified step lhs <= rhs with its numerical slack."""

    _DERIVED = ("slack", "holds")

    name: str
    lhs: float
    rhs: float

    @property
    def slack(self) -> float:
        return self.rhs - self.lhs

    @property
    def holds(self) -> bool:
        return self.slack >= -PIPELINE_TOL


@dataclass(frozen=True, eq=False)
class PipelineTrace(Record):
    """Every intermediate quantity of the determinism-floor argument for one
    quantum realization, with each inequality recorded alongside its slack."""

    _DERIVED = ("passed",)

    mu: float
    k: int
    l1: int
    l2: int
    l: int
    threshold: float
    delta1: float
    delta2: float
    truncated_sizes: tuple
    average_distance: float
    truncated_average_distance: float
    x_bound: float
    epsilon: float
    epsilon_measured: float
    pair_labels: tuple
    pair_distance: float
    confusing: tuple
    box_entries: tuple
    c: float
    theorem_form: float
    proof_form: float
    vacuous: bool
    inequalities: tuple = field(default=())

    @property
    def passed(self) -> bool:
        return all(r.holds for r in self.inequalities)


def fod_floor_pipeline(
    rho_ab: DensityMatrix,
    bob_povm_1: Povm,
    bob_povm_2: Povm,
    alice_povms,
    mu: float | None = None,
) -> PipelineTrace:
    """Run the full determinism-floor argument on one quantum realization.

    Steers by both Bob measurements, truncates at 1 / (l mu), locates a close
    cross pair, finds Alice's confusing outcome for every input, and certifies
    that two cells of the realized box (one per Bob input, sharing Bob's
    outputs with the close pair) sit above c = epsilon / (2 k l mu), which in
    turn dominates the universal theorem floor. `vacuous` is always False:
    truncation never empties an ensemble. `quantum_box` rejects an empty
    Alice list and Bob measurements of unequal dimension.
    """
    alice = list(alice_povms)
    if mu is None:
        mu = optimize_mu().mu
    elif not math.isfinite(mu):
        raise ValueError(f"truncation scale must be finite, got {mu!r}")
    elif mu <= 2.0:
        raise ValueError(f"truncation scale must exceed 2, got {mu!r}")

    box = quantum_box(rho_ab, alice, [bob_povm_1, bob_povm_2])
    k = max(len(p) for p in alice)
    ens1 = steer(rho_ab, bob_povm_1)
    ens2 = steer(rho_ab, bob_povm_2)
    l1, l2 = len(ens1), len(ens2)
    l = max(l1, l2)
    threshold = 1.0 / (l * mu)
    bound = universal_fod_bound(k, l1, l2)
    average_distance = _average_distance(ens1, ens2)

    # each ensemble's heaviest member weighs at least 1/l > 1/(l mu) = threshold
    t1, delta1 = truncate_ensemble(ens1, threshold)
    t2, delta2 = truncate_ensemble(ens2, threshold)
    x_bound = 2.0 / (mu - 1.0)
    epsilon = epsilon_from_average_distance(x_bound, len(t1), len(t2))
    pair = close_pair(t1, t2)
    truncated_average_distance = pair.average_distance
    rho_pair = t1.states[pair.i]
    sigma_pair = t2.states[pair.j]
    b1 = t1.labels[pair.i]
    b2 = t2.labels[pair.j]
    c = epsilon / (2.0 * k * l * mu)

    records = [
        InequalityRecord("dropped mass of first ensemble <= 1/mu", delta1, 1.0 / mu),
        InequalityRecord("dropped mass of second ensemble <= 1/mu", delta2, 1.0 / mu),
        InequalityRecord(
            "truncated average distance <= renormalization bound",
            truncated_average_distance,
            (2.0 * max(delta1, delta2) + average_distance) / (1.0 - max(delta1, delta2)),
        ),
        InequalityRecord(
            "truncated average distance <= worst case 2/(mu-1)",
            truncated_average_distance,
            x_bound,
        ),
        InequalityRecord("worst-case epsilon <= measured epsilon", epsilon, pair.epsilon),
        InequalityRecord("pair distance <= 2 - epsilon", pair.distance, 2.0 - epsilon),
        InequalityRecord(
            "threshold < surviving weight (first ensemble)",
            threshold,
            float(min(t1.weights) * (1.0 - delta1)),
        ),
        InequalityRecord(
            "threshold < surviving weight (second ensemble)",
            threshold,
            float(min(t2.weights) * (1.0 - delta2)),
        ),
        InequalityRecord("theorem floor <= realized c", bound.theorem_form, c),
    ]

    confusing = []
    box_entries = []
    for x, povm in enumerate(alice):
        # quantum_box has checked that Alice's side is the steered side
        co = _confusing_outcome(rho_pair, sigma_pair, povm, pair.distance)
        confusing.append(co)
        records.append(
            InequalityRecord(
                f"input {x}: epsilon/(2k) <= confusing floor",
                epsilon / (2.0 * k),
                co.epsilon,
            )
        )
        for y, b in ((0, b1), (1, b2)):
            value = float(box.p[x, y, co.index, b])
            box_entries.append((x, y, co.index, b, value))
            records.append(
                InequalityRecord(f"box entry (x={x}, y={y}) >= c", c, value)
            )

    return PipelineTrace(
        mu=mu, k=k, l1=l1, l2=l2, l=l, threshold=threshold,
        delta1=delta1, delta2=delta2, truncated_sizes=(len(t1), len(t2)),
        average_distance=average_distance,
        truncated_average_distance=truncated_average_distance,
        x_bound=x_bound, epsilon=epsilon, epsilon_measured=pair.epsilon,
        pair_labels=(b1, b2), pair_distance=pair.distance,
        confusing=tuple(confusing), box_entries=tuple(box_entries),
        c=c, theorem_form=bound.theorem_form, proof_form=bound.proof_form,
        vacuous=False, inequalities=tuple(records),
    )


def _grid(lo: float, hi: float, step: float) -> np.ndarray:
    n = max(1, int(round((hi - lo) / step))) + 1
    return np.linspace(lo, hi, n)


def _minimize(fn, arity: int):
    """Minimize fn(q0) over q0 in [0, 1/2] (arity 1), or fn(p0, q0) over
    0 <= p0 <= q0 <= 1/2 (arity 2), by grid search at GRID_STEP, then zooming
    to +-2 steps around the best point at a tenth of the step until the step
    is at most REFINE_STEP. Returns the value and the tuple of arguments."""
    lo, hi = (0.0,) * arity, (0.5,) * arity
    step = GRID_STEP
    while True:
        grid = np.meshgrid(*(_grid(a, b, step) for a, b in zip(lo, hi)), indexing="ij")
        vals = fn(*grid)
        if arity == 2:
            vals = np.where(grid[0] <= grid[1] + 1e-15, vals, np.inf)
        i = np.unravel_index(int(np.argmin(vals)), vals.shape)
        best = tuple(float(g[i]) for g in grid)
        if not step > REFINE_STEP:
            return float(vals[i]), best
        lo = tuple(max(0.0, v - 2.0 * step) for v in best)
        hi = tuple(min(0.5, v + 2.0 * step) for v in best)
        step /= 10.0


def _second_terms(p0, q0):
    """Cross-pair floors 2 q1 (1 - q0/p1) and 2 q0 (1 - q1/p1); both
    nonnegative on p0 <= q0 <= 1/2 where p1 = 1 - p0 >= 1/2."""
    p1 = 1.0 - p0
    q1 = 1.0 - q0
    return 2.0 * q1 * (1.0 - q0 / p1), 2.0 * q0 * (1.0 - q1 / p1)


@dataclass(frozen=True, eq=False)
class BinaryBobBounds(Record):
    """Determinism and classical-fraction constants when Bob's two
    measurements are binary, minimized over his outcome distributions.

    The close pair carries gap >= 1/2 in one of four weight-ordering cases;
    the reported constants take the worst case. In the two cross-pair cases
    the second ensemble's floor uses the weight-decoupled relaxation
    q0/p1 <= 2 q0 (valid since p1 >= 1/2), which unlinks the two
    distributions; cf_constant_coupled keeps the coupling in those cases and
    is the sharper diagnostic value.
    """

    k: int
    fod_constant: float
    cf_constant: float
    cf_constant_coupled: float
    fod_bound: float
    cf_bound: float
    fod_witness: tuple
    cf_witness: tuple
    case_minima: dict


def binary_bob_bounds(k: int = 2) -> BinaryBobBounds:
    """Worst-case determinism constants for binary-outcome Bob measurements.

    Weights are parameterized by p0 <= q0 <= 1/2 (heavier outcomes carry
    1 - p0, 1 - q0). Each of the four close-pair cases yields a floor; the
    deterministic fraction takes one floor per case, the classical fraction
    may stack the two floors that feed distinct deterministic boxes. Grid
    search at GRID_STEP with local zooming down to REFINE_STEP. The realized
    box floors are the constants divided by 2k.
    """
    if k < 1:
        raise ValueError("Alice outcome count must be at least 1")

    def fod_same_pair(p0, q0):
        t2, _ = _second_terms(p0, q0)
        return np.maximum(p0 / 4.0, t2)

    def cf_case00(p0, q0):
        t2, t3 = _second_terms(p0, q0)
        return np.maximum(p0 / 4.0 + t2, t3)

    def cf_case01(p0, q0):
        t2, t3 = _second_terms(p0, q0)
        return np.maximum(t2, p0 / 4.0 + t3)

    def cross10_decoupled(q0):
        q1 = 1.0 - q0
        return np.maximum(2.0 * q1 * (1.0 - 2.0 * q0), q0 / 4.0)

    def cross11_decoupled(q0):
        q1 = 1.0 - q0
        return np.maximum(q1 / 4.0, 2.0 * q0 * np.maximum(0.0, 1.0 - 2.0 * q1))

    def cross10_coupled(p0, q0):
        t2, _ = _second_terms(p0, q0)
        return np.maximum(t2, q0 / 4.0)

    def cross11_coupled(p0, q0):
        _, t3 = _second_terms(p0, q0)
        return np.maximum((1.0 - q0) / 4.0, t3)

    v00, w00 = _minimize(fod_same_pair, 2)
    v10, (q10,) = _minimize(cross10_decoupled, 1)
    v11, (q11,) = _minimize(cross11_decoupled, 1)
    c00, wc00 = _minimize(cf_case00, 2)
    c01, wc01 = _minimize(cf_case01, 2)
    c10, _ = _minimize(cross10_coupled, 2)
    c11, _ = _minimize(cross11_coupled, 2)

    case_minima = {
        "fod_case00": v00,
        "fod_case01": v00,
        "fod_case10": v10,
        "fod_case11": v11,
        "cf_case00": c00,
        "cf_case01": c01,
        "cf_case10": v10,
        "cf_case11": v11,
        "cf_case10_coupled": c10,
        "cf_case11_coupled": c11,
    }
    fod_cases = [(v00, w00), (v10, (q10, q10)), (v11, (q11, q11))]
    fod_constant, fod_arg = min(fod_cases, key=lambda t: t[0])
    cf_cases = [(c00, wc00), (c01, wc01), (v10, (q10, q10)), (v11, (q11, q11))]
    cf_constant, cf_arg = min(cf_cases, key=lambda t: t[0])
    return BinaryBobBounds(
        k=k,
        fod_constant=fod_constant,
        cf_constant=cf_constant,
        cf_constant_coupled=min(c00, c01, c10, c11),
        fod_bound=fod_constant / (2.0 * k),
        cf_bound=cf_constant / (2.0 * k),
        fod_witness=fod_arg,
        cf_witness=cf_arg,
        case_minima=case_minima,
    )
