"""The determinism-floor pipeline against its one-step-at-a-time oracle.

`fod_floor_pipeline` takes every trace norm it needs in one stacked call
and the Born rule for every Alice input in one product, from which it also
reads the box entries it certifies. `_pipeline_oracle` is the same argument
step by step: two average distances, `close_pair`, one `_confusing_outcomes`
call per input, on that input's POVM alone, and the box entries read from
`quantum_box`. Both must give the same trace, bit for bit, except for the
box-entry values, which take another order of operations. This module
imports only numpy, pytest and `nonlocality`; the hypothesis search over
realizations is in `tests/test_bounds.py`.
"""

import json
import math
from unittest import mock

import numpy as np
import pytest

from nonlocality import bounds, states
from nonlocality.bounds import (
    PipelineTrace,
    _confusing_outcomes,
    close_pair,
    epsilon_from_average_distance,
    fod_floor_pipeline,
    optimize_mu,
    universal_fod_bound,
)
from nonlocality.boxes import quantum_box
from nonlocality.linalg import trace_norm
from nonlocality.records import InequalityRecord
from nonlocality.states import (
    Povm,
    _mixture,
    sample_density,
    sample_povm,
    steer,
    truncate_ensemble,
)


def _average_distance(e1, e2) -> float:
    return trace_norm(_mixture(e1.weights, e1.states) - _mixture(e2.weights, e2.states))


def _pipeline_oracle(rho_ab, bob_povm_1, bob_povm_2, alice_povms, mu=None) -> PipelineTrace:
    """`fod_floor_pipeline` with one trace norm per distance and one Born
    product per Alice input."""
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
    average_distance = _average_distance(ens1, ens2)

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
        (co,) = _confusing_outcomes(rho_pair, sigma_pair, [povm], pair.distance)
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


def realization(seed, dim_a, dim_b, rank, alice_outcomes, bob_outcomes, zero_outcome):
    """A seeded state of the given rank on dim_a x dim_b, one sampled Alice
    POVM per entry of `alice_outcomes` and two Bob POVMs with the outcome
    counts `bob_outcomes`; with `zero_outcome`, Bob's second POVM gets an
    extra zero element, whose steered member `steer` drops."""
    rng = np.random.default_rng(seed)
    rho = sample_density(dim_a * dim_b, rank, rng)
    alice = [sample_povm(dim_a, k, rng) for k in alice_outcomes]
    bob = [sample_povm(dim_b, l, rng) for l in bob_outcomes]
    if zero_outcome:
        bob[1] = Povm((*bob[1].elements, np.zeros((dim_b, dim_b))))
    return rho, alice, bob


# box entries within this many ulps of `quantum_box`'s, plus the weight that
# `steer` dropped from the entry's Bob measurement
ENTRY_ULPS = 8


def _masked(trace) -> tuple[dict, list]:
    """The trace's dict with every box-entry value, and the rhs and slack of
    every "box entry" record, set to None; and the box-entry values."""
    d = trace.to_dict()
    values = [entry[4] for entry in d["box_entries"]]
    for entry in d["box_entries"]:
        entry[4] = None
    for record in d["inequalities"]:
        if record["name"].startswith("box entry"):
            assert record["slack"] == record["rhs"] - record["lhs"]
            record["rhs"] = record["slack"] = None
    return d, values


def _dropped_weights(rho, bob) -> list:
    """For each Bob measurement, the weight Tr(N_b rho_B) summed over the
    outcomes b that `steer` drops."""
    dim_b = bob[0].dim
    blocks = rho.mat.reshape(rho.dim // dim_b, dim_b, rho.dim // dim_b, dim_b)
    rho_b = np.einsum("ijik->jk", blocks)
    dropped = []
    for povm in bob:
        weights = np.abs(np.real(np.einsum("bjk,kj->b", povm.elements, rho_b)))
        kept = list(steer(rho, povm).labels)
        dropped.append(float(np.delete(weights, kept).sum()))
    return dropped


def assert_matches_oracle(rho, alice, bob, mu) -> float:
    """Both pipelines give the same trace, compared by its JSON bytes,
    except for the box-entry values, which agree within ENTRY_ULPS ulps
    plus the weight `steer` dropped. Returns the largest gap in ulps."""
    got = fod_floor_pipeline(rho, bob[0], bob[1], alice, mu=mu)
    want = _pipeline_oracle(rho, bob[0], bob[1], alice, mu=mu)
    (got_dict, got_values), (want_dict, want_values) = _masked(got), _masked(want)
    assert json.dumps(got_dict) == json.dumps(want_dict)
    records = [r for r in got.inequalities if r.name.startswith("box entry")]
    assert [r.rhs for r in records] == got_values
    dropped = _dropped_weights(rho, bob)
    gaps = []
    for (_, y, *_), value, oracle in zip(got.box_entries, got_values, want_values):
        assert abs(value - oracle) <= ENTRY_ULPS * np.spacing(oracle) + dropped[y]
        gaps.append(abs(value - oracle) / np.spacing(oracle))
    return max(gaps)


def _seeded_case(seed: int) -> tuple:
    """Realization shape and mu drawn from `seed`: Alice inputs with 1-4
    outcomes each, Bob's two counts unequal, any rank, and every third
    case with a zero-weight Bob outcome."""
    rng = np.random.default_rng((33, seed))
    dim_a, dim_b = (int(d) for d in rng.integers(2, 4, size=2))
    rank = int(rng.integers(1, dim_a * dim_b + 1))
    alice_outcomes = tuple(int(k) for k in rng.integers(1, 5, size=rng.integers(1, 5)))
    l1 = int(rng.integers(1, 5))
    l2 = int(rng.choice([l for l in range(1, 5) if l != l1]))
    mu = None if seed % 2 else float(rng.uniform(2.0, 20.0))
    args = ((33, seed), dim_a, dim_b, rank, alice_outcomes, (l1, l2), seed % 3 == 0)
    return args, mu


@pytest.mark.parametrize("seed", range(40))
def test_pipeline_matches_its_oracle_on_seeded_realizations(seed):
    args, mu = _seeded_case(seed)
    rho, alice, bob = realization(*args)
    assert_matches_oracle(rho, alice, bob, mu)


def test_box_entries_move_at_most_three_ulps_on_seeded_realizations():
    # 3 ulps is the largest gap over the 40 seeded cases, measured when the
    # entries were first read from the steered ensembles
    gaps = []
    for seed in range(40):
        args, mu = _seeded_case(seed)
        gaps.append(assert_matches_oracle(*realization(*args), mu))
    assert 0.0 < max(gaps) <= 3.0


def test_seeded_cases_cover_the_shapes():
    cases = [_seeded_case(seed) for seed in range(40)]
    outcomes = [args[4] for args, _ in cases]
    assert any(len(set(k)) > 1 for k in outcomes)
    assert {len(k) for k in outcomes} == {1, 2, 3, 4}
    assert any(args[3] < args[1] * args[2] for args, _ in cases)
    assert {mu is None for _, mu in cases} == {True, False}


def test_one_pipeline_takes_one_eigendecomposition_and_two_steers():
    # on objects already built: the stacked trace norm is the only
    # eigenwork, and each Bob measurement steers once
    rho, alice, bob = realization((33, 1000), 3, 2, 6, (2, 3, 4), (2, 3), True)
    eigvalsh, steered = np.linalg.eigvalsh, []

    def counted_eigvalsh(a, *args, **kwargs):
        steered.append("eigvalsh")
        return eigvalsh(a, *args, **kwargs)

    def counted_steer(*args):
        steered.append("steer")
        return steer(*args)

    with mock.patch.object(np.linalg, "eigvalsh", counted_eigvalsh), mock.patch.object(
        states, "steer", counted_steer
    ), mock.patch.object(bounds, "steer", counted_steer):
        trace = fod_floor_pipeline(rho, bob[0], bob[1], alice)
    assert trace.passed
    assert sorted(steered) == ["eigvalsh", "steer", "steer"]
