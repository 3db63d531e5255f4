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

import math
from dataclasses import dataclass, field

import numpy as np

from .boxes import quantum_box
from .linalg import trace_norm
from .records import SLACK_TOL, InequalityRecord, Record
from .states import (
    DensityMatrix,
    Ensemble,
    Povm,
    _check_counts,
    _mixture,
    steer,
    trace_distance,
    truncate_ensemble,
)

WITNESS_TOL = 1e-15


def mu_objective(mu):
    """Per-member floor factor ((mu - 2) / (mu - 1))^2 / mu of the truncation
    threshold 1 / (l mu); positive only for mu > 2."""
    if not 1 < mu < math.inf:
        raise ValueError(f"objective needs a finite mu > 1, got {mu!r}")
    return ((mu - 2) / (mu - 1)) ** 2 / mu


@dataclass(frozen=True)
class MuOptimum(Record):
    mu: float
    value: float


def optimize_mu() -> MuOptimum:
    """Maximizer of mu_objective over mu > 2: mu0 = (5 + sqrt(17)) / 2.

    d/dmu ln f = 2/(mu - 2) - 2/(mu - 1) - 1/mu
    = -(mu^2 - 5 mu + 2) / (mu (mu - 1) (mu - 2)), positive on (2, mu0) and
    negative past it, so mu0 is the larger root of mu^2 - 5 mu + 2 = 0, whose
    smaller root is _P_SAME."""
    mu = (5.0 + math.sqrt(17.0)) / 2.0
    return MuOptimum(mu=mu, value=mu_objective(mu))


def epsilon_from_average_distance(x: float, l1: int, l2: int) -> float:
    """Closeness floor for some cross pair of two ensembles whose averages are
    at trace distance x: epsilon = ((2 - x) / 2)^2 / (l1 l2), and the closest
    pair then satisfies distance <= 2 - epsilon; l1 l2 past the float range gives 0."""
    if not 0.0 <= x < 2.0:
        raise ValueError(f"average distance must lie in [0, 2), got {x!r}")
    _check_counts((l1, l2), "ensemble sizes")
    return ((2.0 - x) / 2.0) ** 2 / (float(l1) * l2)


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
    # a float product overflows to inf, a zero floor; the int l**3 could
    # outgrow the float range and raise OverflowError
    proof = fmax / (2.0 * k * l * l * l)
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
    return _confusing_outcomes(rho.mat, sigma.mat, [povm], trace_distance(rho, sigma))[0]


def _confusing_outcomes(rho, sigma, povms, distance: float) -> list:
    """`confusing_outcome` for the state matrices rho and sigma at a known
    trace distance, under each POVM of `povms`, whose outcome counts may
    differ: the Born rule for both states and every element of every POVM
    is one stacked product, and each POVM searches only its own outcomes,
    against its own floor (2 - distance) / (2 k)."""
    elements = np.concatenate([povm.elements for povm in povms])
    probs = np.real((elements @ np.stack([rho, sigma])[:, None]).trace(axis1=-2, axis2=-1))
    overlap = np.minimum(*probs)
    found, start = [], 0
    for povm in povms:
        stop = start + len(povm)
        eps = (2.0 - distance) / (2.0 * len(povm))
        hits = np.flatnonzero(overlap[start:stop] >= eps - 1e-10)
        if not hits.size:
            raise RuntimeError("no outcome reached the guaranteed overlap floor")
        r = int(hits[0])
        p, q = probs[:, start + r].tolist()
        found.append(ConfusingOutcome(index=r, epsilon=eps, prob_rho=p, prob_sigma=q))
        start = stop
    return found


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
    """Minimum-distance pair (first in i-major scan order on ties). The
    distance of the averages and all l1 l2 cross distances are one stacked
    trace norm."""
    if e1.dim != e2.dim:
        raise ValueError("ensembles must share a dimension")
    return _close_pair(e1, e2)[0]


def _close_pair(e1: Ensemble, e2: Ensemble, *averaged) -> tuple[ClosePair, list]:
    """`close_pair` of two ensembles of one dimension, and the trace distance
    of the averages of each further pair of ensembles in `averaged`, as a
    list. One trace norm takes the stack of the further pairs' average
    differences, then e1's and e2's, then every e1[i] - e2[j], i-major."""
    l1, l2, d = len(e1), len(e2), e1.dim
    n = len(averaged) + 1
    diffs = np.empty((n + l1 * l2, d, d), dtype=complex)
    for slot, (a, b) in enumerate((*averaged, (e1, e2))):
        np.subtract(_mixture(a.weights, a.states), _mixture(b.weights, b.states), out=diffs[slot])
    np.subtract(e1.states[:, None], e2.states[None, :], out=diffs[n:].reshape(l1, l2, d, d))
    norms = trace_norm(diffs)
    x = float(norms[n - 1])
    if x >= 2.0:
        raise ValueError("ensemble averages are perfectly distinguishable")
    eps = epsilon_from_average_distance(x, l1, l2)
    distances = norms[n:].reshape(l1, l2)
    i, j = np.unravel_index(int(np.argmin(distances)), distances.shape)
    best_d = float(distances[i, j])
    if best_d > 2.0 - eps + SLACK_TOL:
        raise RuntimeError("closest pair misses its guaranteed closeness floor")
    pair = ClosePair(i=int(i), j=int(j), distance=best_d, epsilon=eps, average_distance=x)
    return pair, norms[: n - 1].tolist()


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

    Past the two `steer` calls the numeric work is two stacked passes: one
    trace norm over the full and the truncated average differences and
    every cross difference (`_close_pair`), and one Born-rule product for
    both states of the close pair under every Alice input
    (`_confusing_outcomes`).
    """
    alice = list(alice_povms)
    if mu is None:
        mu = optimize_mu().mu
    elif not 2.0 < mu < math.inf:
        raise ValueError(f"truncation scale must be finite and exceed 2, got {mu!r}")

    box = quantum_box(rho_ab, alice, [bob_povm_1, bob_povm_2])
    k = max(len(p) for p in alice)
    ens1 = steer(rho_ab, bob_povm_1)
    ens2 = steer(rho_ab, bob_povm_2)
    l1, l2 = len(ens1), len(ens2)
    l = max(l1, l2)
    threshold = 1.0 / (l * mu)
    bound = universal_fod_bound(k, l1, l2)

    # each ensemble's heaviest member weighs at least 1/l > 1/(l mu) = threshold
    t1, delta1 = truncate_ensemble(ens1, threshold)
    t2, delta2 = truncate_ensemble(ens2, threshold)
    x_bound = 2.0 / (mu - 1.0)
    epsilon = epsilon_from_average_distance(x_bound, len(t1), len(t2))
    # quantum_box has checked that both Bob measurements steer Alice's side
    pair, (average_distance,) = _close_pair(t1, t2, (ens1, ens2))
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

    # quantum_box has checked that Alice's side is the steered side
    confusing = _confusing_outcomes(rho_pair, sigma_pair, alice, pair.distance)
    box_entries = []
    for x, co in enumerate(confusing):
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


def _second_terms(p0, q0):
    """Cross-pair floors 2 q1 (1 - q0/p1) and 2 q0 (1 - q1/p1); both
    nonnegative on p0 <= q0 <= 1/2 where p1 = 1 - p0 >= 1/2."""
    p1 = 1.0 - p0
    q1 = 1.0 - q0
    return 2.0 * q1 * (1.0 - q0 / p1), 2.0 * q0 * (1.0 - q1 / p1)


def _fod_same_pair(p0, q0):
    t2, _ = _second_terms(p0, q0)
    return np.maximum(p0 / 4.0, t2)


def _cf_case00(p0, q0):
    t2, t3 = _second_terms(p0, q0)
    return np.maximum(p0 / 4.0 + t2, t3)


def _cf_case01(p0, q0):
    t2, t3 = _second_terms(p0, q0)
    return np.maximum(t2, p0 / 4.0 + t3)


def _cross10_decoupled(q0):
    q1 = 1.0 - q0
    return np.maximum(2.0 * q1 * (1.0 - 2.0 * q0), q0 / 4.0)


def _cross11_decoupled(q0):
    q1 = 1.0 - q0
    return np.maximum(q1 / 4.0, 2.0 * q0 * np.maximum(0.0, 1.0 - 2.0 * q1))


def _cross10_coupled(p0, q0):
    t2, _ = _second_terms(p0, q0)
    return np.maximum(t2, q0 / 4.0)


def _cross11_coupled(p0, q0):
    _, t3 = _second_terms(p0, q0)
    return np.maximum((1.0 - q0) / 4.0, t3)


# p0 = (5 - sqrt 17)/2 solves p^2 - 5p + 2 = 0, where p0/4 meets the cross
# term at q0 = 1/2; q0 = (25 - sqrt 113)/32 solves 16q^2 - 25q + 8 = 0, where
# the decoupled cross term meets q0/4
_P_SAME = (5.0 - math.sqrt(17.0)) / 2.0
_Q_CROSS = (25.0 - math.sqrt(113.0)) / 32.0

# case -> (objective over (p0, q0) or q0 alone, its minimum over
# 0 <= p0 <= q0 <= 1/2, the arguments attaining it)
_BINARY_BOB_CASES = {
    "fod_case00": (_fod_same_pair, _P_SAME / 4.0, (_P_SAME, 0.5)),
    "fod_case01": (_fod_same_pair, _P_SAME / 4.0, (_P_SAME, 0.5)),
    "fod_case10": (_cross10_decoupled, _Q_CROSS / 4.0, (_Q_CROSS,)),
    "fod_case11": (_cross11_decoupled, 0.125, (0.5,)),
    "cf_case00": (_cf_case00, 0.125, (0.5, 0.5)),
    "cf_case01": (_cf_case01, 2.0 / 17.0, (8.0 / 17.0, 8.0 / 17.0)),
    "cf_case10": (_cross10_decoupled, _Q_CROSS / 4.0, (_Q_CROSS,)),
    "cf_case11": (_cross11_decoupled, 0.125, (0.5,)),
    "cf_case10_coupled": (_cross10_coupled, 2.0 / 17.0, (8.0 / 17.0, 8.0 / 17.0)),
    "cf_case11_coupled": (_cross11_coupled, 0.125, (0.5, 0.5)),
}


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
    may stack the two floors that feed distinct deterministic boxes. Every
    case minimum is in closed form: (5 - sqrt 17)/8, (25 - sqrt 113)/128,
    2/17 or 1/8. Each case's objective is evaluated at its witness and must
    meet its closed form within WITNESS_TOL, else RuntimeError. The realized
    box floors are the constants divided by 2k.
    """
    _check_counts((k,))
    for case, (objective, minimum, args) in _BINARY_BOB_CASES.items():
        value = float(objective(*args))
        if not abs(value - minimum) <= WITNESS_TOL:
            raise RuntimeError(
                f"{case}: objective {value!r} at {args!r} misses its closed form {minimum!r}"
            )

    def worst(names):
        """Smallest minimum among `names`, the first on ties, and its (p0, q0)."""
        _, minimum, args = _BINARY_BOB_CASES[min(names, key=lambda n: _BINARY_BOB_CASES[n][1])]
        return minimum, args if len(args) == 2 else args * 2

    fod_constant, fod_arg = worst(("fod_case00", "fod_case10", "fod_case11"))
    cf_constant, cf_arg = worst(("cf_case00", "cf_case01", "cf_case10", "cf_case11"))
    coupled, _ = worst(("cf_case00", "cf_case01", "cf_case10_coupled", "cf_case11_coupled"))
    return BinaryBobBounds(
        k=k,
        fod_constant=fod_constant,
        cf_constant=cf_constant,
        cf_constant_coupled=coupled,
        fod_bound=fod_constant / (2.0 * k),
        cf_bound=cf_constant / (2.0 * k),
        fod_witness=fod_arg,
        cf_witness=cf_arg,
        case_minima={name: case[1] for name, case in _BINARY_BOB_CASES.items()},
    )
