"""Reverse triangle inequality for trace distance on state ensembles.

If every member of an ensemble sits at trace distance at least 2 - eps from a
reference state sigma, the ensemble average obeys

    |sum_i p_i rho_i - sigma|  >=  2 - 2 sqrt(l * eps)        (general)
    |sum_i p_i rho_i - sigma|  >=  2 - l * eps                (commuting)

with l the number of members. The commuting form is sharp for classical
(diagonal) families, and the sqrt dependence is unavoidable in general: a
two-state qubit family below brings the mixture gap down to ~sqrt(2 eps).

`sample_rti_instance` and `verify_rti` check one instance at a time and are
the reference for `rti_campaign`, which draws the same instances and runs
the same checks on stacks of RTI_CHUNK trials.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import hermitian_part, max_commutator_entry, psd_sqrt, trace_norm
from .records import SLACK_TOL, InequalityRecord, Record
from .states import (
    DensityMatrix,
    Ensemble,
    SubnormalizedState,
    _check_counts,
    _check_state_matrix,
    _check_weights,
    _complex_pairs,
    _gram_state,
    _mixture,
    _trusted,
    ensemble_average,
    fidelity,
    trace_distance,
)

CERTIFICATE_TOL = 1e-9
COMMUTE_TOL = 1e-9
# Trials per stacked pass of `rti_campaign`; bounds its memory at any count.
RTI_CHUNK = 128


def rti_general_bound(l: int, eps: float) -> float:
    """Lower bound 2 - 2 sqrt(l * eps) on the mixture-to-reference distance."""
    _check_bound_args(l, eps)
    return 2.0 - 2.0 * np.sqrt(l * eps)


def rti_commuting_bound(l: int, eps: float) -> float:
    """Lower bound 2 - l * eps valid when all states commute pairwise."""
    _check_bound_args(l, eps)
    return 2.0 - l * eps


def _check_bound_args(l: int, eps) -> None:
    """l is a count and every eps (a float or an array) in [0, 2]; NaN fails."""
    _check_counts((l,), "ensemble sizes")
    if not np.all((0.0 <= eps) & (eps <= 2.0)):
        raise ValueError(f"eps must lie in [0, 2], got {eps!r}")


def _first_where(values, bad: np.ndarray) -> float:
    """The first entry of `values` (a float or an array) flagged in `bad`."""
    return float(np.broadcast_to(values, bad.shape)[bad][0])


def _check_certificate(epsilon, tight) -> None:
    """Every epsilon, one or a stack, lies in [0, 2] and at most
    CERTIFICATE_TOL below its tight value, as `RtiInstance` checks; NaN fails."""
    eps = np.asarray(epsilon, dtype=float)
    bad = ~((0.0 <= eps) & (eps <= 2.0 + 1e-12))
    if bad.any():
        raise ValueError(f"epsilon must lie in [0, 2], got {_first_where(eps, bad)!r}")
    bad = ~(eps >= tight - CERTIFICATE_TOL)
    if bad.any():
        raise ValueError(
            f"invalid certificate: epsilon {_first_where(eps, bad)!r} "
            f"below tight value {_first_where(tight, bad)!r}"
        )


@dataclass(frozen=True, eq=False)
class RtiInstance:
    """Reference state, ensemble, and a certificate eps.

    The certificate asserts |rho_i - sigma| >= 2 - epsilon for every member;
    construction rejects certificates violated by more than CERTIFICATE_TOL.
    """

    sigma: DensityMatrix
    ensemble: Ensemble
    epsilon: float

    def __post_init__(self):
        if self.ensemble.dim != self.sigma.dim:
            raise ValueError("dimension mismatch between ensemble and reference")
        _check_certificate(self.epsilon, self.tight_epsilon_of(self.ensemble, self.sigma))

    @staticmethod
    def tight_epsilon_of(ensemble: Ensemble, sigma: DensityMatrix) -> float:
        """2 minus the smallest member distance to sigma, one stacked trace norm."""
        return 2.0 - float(trace_norm(ensemble.states - sigma.mat).min())

    @property
    def l(self) -> int:
        return len(self.ensemble)


@dataclass(frozen=True)
class RtiReport(Record):
    """The mixture distance lhs against its lower bound, passing when the
    slack lhs - bound is at least -SLACK_TOL."""

    _DERIVED = ("passed", "slack")
    _RENAME = {"passed": "pass"}

    lhs: float
    bound: float
    epsilon: float
    epsilon_stored: float
    l: int
    commuting: bool

    @property
    def slack(self) -> float:
        return self.lhs - self.bound

    @property
    def passed(self) -> bool:
        return bool(self.slack >= -SLACK_TOL)


def verify_rti(instance: RtiInstance, commuting: bool = False) -> RtiReport:
    """Check the mixture distance against the applicable lower bound.

    Uses the tight certificate (2 minus the smallest member distance) when the
    stored one disagrees by more than CERTIFICATE_TOL; both are reported. With
    `commuting` set, all pairwise commutators must vanish within COMMUTE_TOL.
    """
    if commuting:
        _check_commuting([*instance.ensemble.states, instance.sigma.mat])
    tight = RtiInstance.tight_epsilon_of(instance.ensemble, instance.sigma)
    eps = instance.epsilon if abs(tight - instance.epsilon) <= CERTIFICATE_TOL else tight
    eps = min(max(eps, 0.0), 2.0)
    lhs = trace_norm(ensemble_average(instance.ensemble).mat - instance.sigma.mat)
    bound = rti_commuting_bound(instance.l, eps) if commuting else rti_general_bound(instance.l, eps)
    return RtiReport(
        lhs=lhs,
        bound=bound,
        epsilon=eps,
        epsilon_stored=instance.epsilon,
        l=instance.l,
        commuting=commuting,
    )


def _check_commuting(mats) -> None:
    """Every pair of `mats`, matrices or equal-shape stacks of them, commutes
    within COMMUTE_TOL."""
    for i in range(len(mats)):
        for j in range(i + 1, len(mats)):
            dev = max_commutator_entry(mats[i], mats[j])
            if not dev <= COMMUTE_TOL:
                raise ValueError(f"states do not commute: max commutator entry {dev:.3e}")


def subnormalized_gap(a: SubnormalizedState, b: SubnormalizedState) -> float:
    """Tr a + Tr b - |a - b|, the subnormalized analogue of 2 - distance."""
    return a.trace() + b.trace() - trace_norm(a.mat - b.mat)


def extremal_family(r: float):
    """Qubit family showing the sqrt in the general bound cannot be improved.

    Returns (rho_1, rho_2, sigma) with sigma = diag(0, r) and rho_{1,2} the
    rank-one states [[1-r, +/-s], [+/-s, r]], s = sqrt(r(1-r)). Each member
    has gap 1 + r - sqrt(1 + 2r - 3r^2) =: eps to sigma while the uniform
    mixture has gap exactly 2r, and (2r)^2 >= 2 eps on all of [0, 1].
    """
    _check_r(r)
    return tuple(SubnormalizedState(m) for m in _extremal_matrices(r))


def _check_r(r) -> None:
    if not np.all((0.0 <= r) & (r <= 1.0)):
        raise ValueError(f"r must lie in [0, 1], got {r!r}")


def _extremal_matrices(r):
    """Unchecked (rho_1, rho_2, sigma) of `extremal_family`, each of shape
    (..., 2, 2) for r of shape (...)."""
    r = np.asarray(r, dtype=float)
    s = np.sqrt(r * (1.0 - r))
    zero = np.zeros_like(r)

    def hermitian(a, b, d):
        return np.stack([np.stack([a, b], -1), np.stack([b, d], -1)], -2).astype(complex)

    return hermitian(1.0 - r, s, r), hermitian(1.0 - r, -s, r), hermitian(zero, zero, r)


def extremal_gaps(r) -> tuple:
    """Closed forms (member gap, mixture gap) for the extremal family: floats
    for a float r, arrays for an array."""
    _check_r(r)
    member = 1.0 + r - np.sqrt(1.0 + 2.0 * r - 3.0 * r * r)
    return (float(member) if np.ndim(member) == 0 else member), 2.0 * r


def extremal_grid(rs) -> tuple[float, float]:
    """The extremal family at every r in `rs`, checked as one stack.

    Returns (min over r of mixture_gap^2 - 2 member_gap, the tightness of the
    sqrt; max over r of |measured gap - closed form| for both members and
    the mixture). The gaps are `subnormalized_gap` of each state and sigma.
    """
    r = np.asarray(rs, dtype=float)
    _check_r(r)
    rho1, rho2, sigma = _extremal_matrices(r)
    states = _check_state_matrix(np.stack([rho1, rho2, 0.5 * rho1 + 0.5 * rho2, sigma]), 0.0)
    traces = np.real(np.trace(states, axis1=-2, axis2=-1))
    gaps = traces[:3] + traces[3] - trace_norm(states[:3] - states[3])
    member_formula, mixture_formula = extremal_gaps(r)
    residual = float(np.abs(gaps - [member_formula, member_formula, mixture_formula]).max())
    member, _, mixture = gaps.tolist()
    # On Python floats: x**2 there and x * x in numpy can round apart, and
    # the verify-rti report pins the last digit.
    tightness = min(x**2 - 2.0 * m for x, m in zip(mixture, member))
    return tightness, residual


def embed_subnormalized(rho: SubnormalizedState, sigma: SubnormalizedState):
    """Lift two subnormalized d-dim states to unit-trace (d+2)-dim states.

    The trace deficits go to disjoint diagonal slots, which preserves the gap:
    2 - |rho~ - sigma~| = Tr rho + Tr sigma - |rho - sigma|. The lifts are
    not checked again: each is PSD within max(PSD_TOL, TRACE_TOL), since a
    trace up to 1 + TRACE_TOL leaves a deficit down to -TRACE_TOL, and has
    unit trace up to rounding.
    """
    if rho.dim != sigma.dim:
        raise ValueError("states must share a dimension")
    d = rho.dim
    big_rho = np.zeros((d + 2, d + 2), dtype=complex)
    big_sigma = np.zeros((d + 2, d + 2), dtype=complex)
    big_rho[:d, :d] = rho.mat
    big_rho[d, d] = 1.0 - rho.trace()
    big_sigma[:d, :d] = sigma.mat
    big_sigma[d + 1, d + 1] = 1.0 - sigma.trace()
    return _trusted(DensityMatrix, mat=big_rho), _trusted(DensityMatrix, mat=big_sigma)


@dataclass(frozen=True, eq=False)
class ClassicalSharpExample:
    """Distributions where the commuting bound 2 - l*eps holds with equality.

    On l+1 points: h = (eps/2, ..., eps/2, 1 - l*eps/2), component i the point
    mass at i, mixture weights uniform. Then |g_i - h|_1 = 2 - eps for every i
    and |mean - h|_1 = 2 - l*eps exactly.
    """

    h: np.ndarray
    components: np.ndarray
    weights: np.ndarray

    def mixture(self) -> np.ndarray:
        return self.weights @ self.components


def classical_sharp_example(l: int, eps: float) -> ClassicalSharpExample:
    _check_counts((l,), "ensemble sizes")
    if not (0.0 <= eps <= 2.0 / l):
        raise ValueError(f"eps must lie in [0, 2/l] = [0, {2.0 / l}], got {eps!r}")
    h = np.full(l + 1, eps / 2.0)
    h[l] = 1.0 - l * eps / 2.0
    components = np.eye(l, l + 1)
    weights = np.full(l, 1.0 / l)
    return ClassicalSharpExample(h=h, components=components, weights=weights)


def rotfeld_check(psd_mats) -> InequalityRecord:
    """Subadditivity of Tr sqrt on PSD matrices: Tr sqrt(sum) <= sum Tr sqrt."""
    mats = list(psd_mats)
    if not mats:
        raise ValueError("need at least one matrix")
    lhs = float(np.real(np.trace(psd_sqrt(sum(mats)))))
    rhs = float(sum(np.real(np.trace(psd_sqrt(m))) for m in mats))
    return InequalityRecord("Tr sqrt(sum) <= sum of Tr sqrt", lhs, rhs)


def fvdg_check(rho: DensityMatrix, sigma: DensityMatrix) -> tuple[InequalityRecord, InequalityRecord]:
    """Fidelity-distance sandwich: 1 - F <= |rho-sigma|/2 <= sqrt(1 - F^2)."""
    f = fidelity(rho, sigma)
    half = trace_distance(rho, sigma) / 2.0
    upper = float(np.sqrt(max(0.0, 1.0 - f * f)))
    return (
        InequalityRecord("1 - F <= |rho - sigma| / 2", 1.0 - f, half),
        InequalityRecord("|rho - sigma| / 2 <= sqrt(1 - F^2)", half, upper),
    )


def _block_size(width: int, commuting: bool) -> int:
    """Floats one block draw of a state on `width` coordinates takes: its
    diagonal weights, or the real then imaginary parts of a Ginibre factor."""
    return width if commuting else 2 * width * width


def _draw_rti(dim: int, l: int, rng, commuting: bool):
    """Every random draw of one instance, as (split, raw): the block split
    and one flat float buffer, read off the generator in stream order.

    raw holds sigma's block draw, then per member its block draw (base), one
    uniform variate (leak) and a full-space draw (noise), then one uniform
    per weight. A commuting draw is all uniforms; a general one is normals
    between the uniform slots. `_unpack_rti` turns stacks of buffers into
    draws and `_instance_states` turns those into states; both
    `sample_rti_instance` and `rti_campaign` draw through here, so they see
    the same instances. `_check_sizes` has checked dim and l.
    """
    split = int(rng.integers(1, dim))
    head = _block_size(split, commuting)
    base = _block_size(dim - split, commuting)
    member = base + 1 + _block_size(dim, commuting)
    end = head + l * member
    if commuting:
        return split, rng.random(end + l)
    raw = np.empty(end + l)
    # Each run of normals ends at the next uniform: a leak or the weights.
    rng.standard_normal(out=raw[: head + base])
    for leak in range(head + base, end, member):
        raw[leak] = rng.random()
        rng.standard_normal(out=raw[leak + 1 : min(leak + member, end)])
    rng.random(out=raw[end:])
    return split, raw


def _unpack_rti(dim: int, l: int, split: int, raw: np.ndarray, commuting: bool):
    """(sigma, base, leak, noise, weights) of a (trials, n) stack of
    `_draw_rti` buffers that share `split`, each with a leading trial axis:
    block draws are diagonal weights offset by 1e-3 or complex Ginibre
    factors, leaks are 0.05 u and weights u + 0.1 normalized. The member
    fields base, leak and noise are stacked over the l members."""

    def blocks(flat: np.ndarray, width: int) -> np.ndarray:
        if commuting:
            return flat + 1e-3
        return _complex_pairs(flat.reshape(flat.shape[:-1] + (2, width, width)))

    head = _block_size(split, commuting)
    base = _block_size(dim - split, commuting)
    members = raw[:, head:-l].reshape(len(raw), l, -1)
    weights = raw[:, -l:] + 0.1
    weights /= weights.sum(axis=-1, keepdims=True)
    return (
        blocks(raw[:, :head], split),
        blocks(members[..., :base], dim - split),
        0.05 * members[..., base],
        blocks(members[..., base + 1 :], dim),
        weights,
    )


def _instance_states(dim: int, split: int, sigma, base, leak, noise, commuting: bool):
    """(sigma, rhos, made) built from `_unpack_rti` draws, which may carry
    leading stack axes: sigma and the ensemble sit on complementary blocks,
    plus a little full-support leakage per member, and rhos holds the
    members on the axis before the matrix axes. `made` lists every matrix
    made into a state, unchecked, for the caller to check; the states go on
    as their Hermitian parts."""
    made = []

    def state(mat: np.ndarray) -> np.ndarray:
        made.append(mat)
        return hermitian_part(mat)

    def block_state(lo: int, draw: np.ndarray, diagonal: bool) -> np.ndarray:
        """The state of a block draw on coordinates [lo, lo + width)."""
        width = draw.shape[-1]
        mat = np.zeros(draw.shape[: -1 if diagonal else -2] + (dim, dim), dtype=complex)
        if diagonal:
            slots = range(lo, lo + width)
            mat[..., slots, slots] = draw / draw.sum(axis=-1, keepdims=True)
        else:
            mat[..., lo : lo + width, lo : lo + width] = state(_gram_state(draw))
        return state(mat)

    sigma = block_state(0, sigma, commuting)
    base = block_state(split, base, commuting)
    noise = block_state(0, noise, True) if commuting else state(_gram_state(noise))
    leak = leak[..., None, None]
    return sigma, state((1.0 - leak) * base + leak * noise), made


def _check_sizes(dims, ls) -> None:
    """Every dim is a count of at least 2, every l a count."""
    _check_counts(dims, "dimensions")
    if not all(dim >= 2 for dim in dims):
        raise ValueError("need dim >= 2 to separate the reference from the ensemble")
    _check_counts(ls, "ensemble sizes")


def sample_rti_instance(dim: int, l: int, seed, commuting: bool = False) -> RtiInstance:
    """Random instance with small tight eps: sigma and the ensemble live on
    complementary blocks, plus a little full-support leakage per member."""
    _check_sizes((dim,), (l,))
    split, raw = _draw_rti(dim, l, np.random.default_rng(seed), commuting)
    *draws, weights = _unpack_rti(dim, l, split, raw[None], commuting)
    sigma, rhos, made = _instance_states(dim, split, *draws, commuting)
    for mats in made:
        for mat in mats.reshape((-1,) + mats.shape[-2:]):
            DensityMatrix(mat)
    sigma = _trusted(DensityMatrix, mat=sigma[0])
    weights = _check_weights(weights[0], (l,))
    ensemble = _trusted(Ensemble, weights=weights, states=rhos[0], labels=tuple(range(l)))
    eps = RtiInstance.tight_epsilon_of(ensemble, sigma)
    return RtiInstance(sigma=sigma, ensemble=ensemble, epsilon=eps)


# NumPy's SeedSequence hash constants and PCG64's multiplier, as
# `_trial_states` replays them; `_certify_trial_state` holds the replay to
# NumPy itself.
_HASH_INIT_A, _HASH_MULT_A = 0x43B0D7E5, 0x931E8875
_HASH_INIT_B, _HASH_MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK32 = (1 << 32) - 1
_MASK128 = (1 << 128) - 1


def _uint32_words(n: int) -> list:
    """The little-endian 32-bit words SeedSequence reads off a nonnegative
    int, [0] for 0."""
    words = [n & _MASK32]
    while n > _MASK32:
        n >>= 32
        words.append(n & _MASK32)
    return words


def _hashmix(init: int, mult: int):
    """SeedSequence's hash step on uint32 arrays: XOR in a running constant,
    advance it by `mult`, multiply by it and fold the high half down. The
    constant runs on from call to call and depends only on their count."""
    const = init

    def step(value: np.ndarray) -> np.ndarray:
        nonlocal const
        value = value ^ const
        const = const * mult & _MASK32
        value = value * const
        return value ^ value >> 16

    return step


def _mixed_pool(entropy: np.ndarray) -> list:
    """SeedSequence's entropy pool mixed from the (words, trials) uint32
    array `entropy`: four arrays, the i-th holding pool word i of every
    trial."""

    def mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        value = x * _MIX_MULT_L - y * _MIX_MULT_R
        return value ^ value >> 16

    hashmix = _hashmix(_HASH_INIT_A, _HASH_MULT_A)
    zero = np.zeros_like(entropy[0])
    pool = [hashmix(entropy[i] if i < len(entropy) else zero) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    return pool


def _trial_states(seed: int, dim: int, l: int, trials) -> list:
    """The PCG64 state of `np.random.default_rng((seed, dim, l, t))` for
    every t in `trials`, as `bit_generator.state` dicts, derived for all of
    them in one vectorized pass per entropy length.

    SeedSequence mixes the words of seed, dim, l and t into a pool of four
    uint32 words, one column per trial here, and hashes the pool out to
    four uint64 words. PCG64 seeds from them: the first two are the initial
    state, the last two the stream, and its set-seed step runs on Python
    ints mod 2^128.
    """
    head = _uint32_words(seed) + [dim, l]
    groups = {}
    for i, t in enumerate(trials):
        words = _uint32_words(t)
        where, entropy = groups.setdefault(len(words), ([], []))
        where.append(i)
        entropy.append(head + words)
    states = [None] * len(trials)
    for where, entropy in groups.values():
        pool = _mixed_pool(np.array(entropy, dtype=np.uint32).T)
        hashmix = _hashmix(_HASH_INIT_B, _HASH_MULT_B)
        out = np.array([hashmix(pool[i % 4]) for i in range(8)], dtype=np.uint64)
        seeds = (out[0::2] | out[1::2] << 32).tolist()
        for i, hi, lo, stream_hi, stream_lo in zip(where, *seeds):
            inc = ((stream_hi << 64 | stream_lo) << 1 | 1) & _MASK128
            state = ((hi << 64 | lo) + inc) * _PCG64_MULT + inc & _MASK128
            states[i] = {
                "bit_generator": "PCG64",
                "state": {"state": state, "inc": inc},
                "has_uint32": 0,
                "uinteger": 0,
            }
    return states


def _certify_trial_state(seed: int, dim: int, l: int, state: dict) -> None:
    """Raise RuntimeError unless `state`, replayed for trial 0, is the state
    NumPy seeds `default_rng((seed, dim, l, 0))` with. NumPy rejects a
    negative seed here with a ValueError."""
    want = np.random.default_rng((seed, dim, l, 0)).bit_generator.state
    if state != want:
        raise RuntimeError(
            f"seeding replay disagrees with NumPy's default_rng({(seed, dim, l, 0)})"
        )


@dataclass(frozen=True)
class CampaignRow(Record):
    dim: int
    l: int
    trials: int
    commuting: bool
    violations: int
    min_slack: float


def rti_campaign(dims, ls, trials: int, seed: int, commuting: bool = False) -> list[CampaignRow]:
    """Verify `trials` random instances per (dim, l); per-trial seeds derive
    from (seed, dim, l, trial) so runs are order-independent.

    Each instance is the one `sample_rti_instance` draws for its seed and gets
    every check it and `verify_rti` make, run on stacks of RTI_CHUNK trials.
    `trials` and `seed` are integers of at least 0; neither may be a bool. A
    negative seed is rejected with NumPy's own message, before any cell.
    """
    for name, value in (("trials", trials), ("seed", seed)):
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
            raise ValueError(f"{name} must be an integer, got {value!r}")
    if trials < 0:
        raise ValueError(f"trials must be nonnegative, got {trials!r}")
    if seed < 0:
        raise ValueError("expected non-negative integer")
    trials, seed = int(trials), int(seed)  # the seeding replay masks Python ints
    dims, ls = tuple(dims), tuple(ls)
    _check_sizes(dims, ls)
    rows = []
    for dim in dims:
        for l in ls:
            violations = 0
            min_slack = np.inf
            for start in range(0, trials, RTI_CHUNK):
                chunk = range(start, min(start + RTI_CHUNK, trials))
                slack = _campaign_slacks(dim, l, seed, chunk, commuting)
                violations += int(np.count_nonzero(~(slack >= -SLACK_TOL)))
                min_slack = min(min_slack, float(slack.min()))
            rows.append(
                CampaignRow(
                    dim=dim,
                    l=l,
                    trials=trials,
                    commuting=commuting,
                    violations=violations,
                    min_slack=float(min_slack),
                )
            )
    return rows


def _campaign_slacks(dim: int, l: int, seed: int, trials: range, commuting: bool) -> np.ndarray:
    """`verify_rti(sample_rti_instance(dim, l, (seed, dim, l, t), commuting),
    commuting).slack` for every t in `trials`, in some order, computed on
    stacks. The chunk that starts the cell, at trial 0, certifies the
    seeding replay against NumPy."""
    states = _trial_states(seed, dim, l, trials)
    if trials[0] == 0:
        _certify_trial_state(seed, dim, l, states[0])
    # One generator replays every trial's stream from its seeded state.
    bits = np.random.PCG64(0)
    rng = np.random.Generator(bits)
    by_split = {}
    for state in states:
        bits.state = state
        split, raw = _draw_rti(dim, l, rng, commuting)
        by_split.setdefault(split, []).append(raw)

    sigma, rhos, weights, made = [], [], [], []
    for split, group in by_split.items():
        *draws, ws = _unpack_rti(dim, l, split, np.stack(group), commuting)
        states = _instance_states(dim, split, *draws, commuting)
        sigma.append(states[0])
        rhos.append(states[1])
        made += states[2]
        weights.append(ws)
    sigma, rhos, weights = np.concatenate(sigma), np.concatenate(rhos), np.concatenate(weights)
    by_shape = {}
    for mat in made:
        by_shape.setdefault(mat.shape[-2:], []).append(mat.reshape((-1,) + mat.shape[-2:]))
    for mats in by_shape.values():
        _check_state_matrix(np.concatenate(mats), 1.0)

    # The sampler stores the tight certificate, so the stored and tight
    # epsilon agree and verify_rti keeps it.
    tight = 2.0 - trace_norm(rhos - sigma[:, None]).min(axis=1)
    _check_weights(weights, (len(weights), l))
    _check_certificate(tight, tight)
    if commuting:
        _check_commuting([rhos[:, i] for i in range(l)] + [sigma])
    eps = np.clip(tight, 0.0, 2.0)
    lhs = trace_norm(_mixture(weights, rhos) - sigma)
    bound = rti_commuting_bound(l, eps) if commuting else rti_general_bound(l, eps)
    return lhs - bound
