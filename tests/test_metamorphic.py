"""Metamorphic checks: relabelling outputs, permuting inputs, swapping the
parties, local unitaries and a global unitary on an RTI instance must not
move what the library reports.

The transformations are written here on plain arrays, with `np.kron` and
explicit index loops, so they share no code with the paths they check.
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from nonlocality.bounds import fod_floor_pipeline
from nonlocality.boxes import (
    BellFunctional,
    Box,
    Scenario,
    bell_algebraic_max,
    bell_det_max,
    bell_value,
    quantum_box,
)
from nonlocality.decomp import LP_TOL, cf_exact, fod_exact
from nonlocality.records import SLACK_TOL
from nonlocality.rti import RtiInstance, sample_rti_instance, verify_rti
from nonlocality.states import DensityMatrix, Ensemble, Povm, sample_density, sample_povm

outcome_lists = st.lists(st.integers(1, 3), min_size=1, max_size=2).map(tuple)


def _random_case(outcomes_a, outcomes_b, seed):
    """A qubit-pair quantum box and a random functional on its scenario."""
    rng = np.random.default_rng(seed)
    rho = sample_density(4, int(rng.integers(1, 5)), rng.integers(2**32))
    alice = [sample_povm(2, k, rng.integers(2**32)) for k in outcomes_a]
    bob = [sample_povm(2, k, rng.integers(2**32)) for k in outcomes_b]
    box = quantum_box(rho, alice, bob)
    s = np.zeros(box.scenario.shape)
    for x, ka in enumerate(outcomes_a):
        for y, kb in enumerate(outcomes_b):
            s[x, y, :ka, :kb] = rng.normal(size=(ka, kb))
    return box, BellFunctional(box.scenario, s)


def _mapped(sc, src, table, cell):
    """Array on scenario `sc` whose cell `cell(x, y, a, b)` holds entry
    (x, y, a, b) of `table` on scenario `src`, for every cell inside the
    outcome counts."""
    out = np.zeros(sc.shape)
    for x, ka in enumerate(src.outcomes_a):
        for y, kb in enumerate(src.outcomes_b):
            for a in range(ka):
                for b in range(kb):
                    out[cell(x, y, a, b)] = table[x, y, a, b]
    return out


def _relabel_alice_outputs(x0, perm):
    def cell(x, y, a, b):
        return (x, y, perm[a] if x == x0 else a, b)

    return cell


def _relabel_bob_outputs(y0, perm):
    def cell(x, y, a, b):
        return (x, y, a, perm[b] if y == y0 else b)

    return cell


def _transforms(sc, rng):
    """(name, scenario, cell map) for each transformation of `sc`."""
    x0, y0 = int(rng.integers(sc.inputs_a)), int(rng.integers(sc.inputs_b))
    perm_a = rng.permutation(sc.outcomes_a[x0]).tolist()
    perm_b = rng.permutation(sc.outcomes_b[y0]).tolist()
    order_a = rng.permutation(sc.inputs_a).tolist()
    order_b = rng.permutation(sc.inputs_b).tolist()
    permuted_a = [0] * sc.inputs_a
    for x, k in enumerate(sc.outcomes_a):
        permuted_a[order_a[x]] = k
    permuted_b = [0] * sc.inputs_b
    for y, k in enumerate(sc.outcomes_b):
        permuted_b[order_b[y]] = k
    return [
        ("alice outputs", sc, _relabel_alice_outputs(x0, perm_a)),
        ("bob outputs", sc, _relabel_bob_outputs(y0, perm_b)),
        ("alice inputs", Scenario(permuted_a, sc.outcomes_b), lambda x, y, a, b: (order_a[x], y, a, b)),
        ("bob inputs", Scenario(sc.outcomes_a, permuted_b), lambda x, y, a, b: (x, order_b[y], a, b)),
        ("swap parties", Scenario(sc.outcomes_b, sc.outcomes_a), lambda x, y, a, b: (y, x, b, a)),
    ]


@given(outcome_lists, outcome_lists, st.integers(0, 2**32 - 1))
def test_relabelling_and_party_swap_keep_fod_cf_and_bell_values(outcomes_a, outcomes_b, seed):
    box, functional = _random_case(outcomes_a, outcomes_b, seed)
    fod, _ = fod_exact(box)
    cf, _ = cf_exact(box)
    value = bell_value(functional, box)
    for name, sc, cell in _transforms(box.scenario, np.random.default_rng(seed)):
        moved = Box(sc, _mapped(sc, box.scenario, box.p, cell))
        moved_functional = BellFunctional(sc, _mapped(sc, box.scenario, functional.s, cell))
        assert fod_exact(moved)[0] == fod, name
        assert cf_exact(moved)[0] == pytest.approx(cf, abs=LP_TOL), name
        # the same products, summed in another order
        assert bell_value(moved_functional, moved) == pytest.approx(value, abs=1e-12), name
        assert bell_det_max(moved_functional) == pytest.approx(bell_det_max(functional), abs=1e-12)
        assert bell_algebraic_max(moved_functional) == pytest.approx(bell_algebraic_max(functional), abs=1e-12)


def _random_unitary(dim, rng):
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _conjugated(u, povm):
    return Povm(tuple(u @ m @ u.conj().T for m in povm.elements))


@given(
    st.integers(2, 3),
    st.integers(2, 3),
    st.lists(st.integers(1, 3), min_size=1, max_size=3),
    st.lists(st.integers(1, 3), min_size=2, max_size=2),
    st.integers(0, 2**32 - 1),
)
def test_local_unitaries_keep_quantum_box_and_pipeline_floor(dim_a, dim_b, outcomes_a, outcomes_b, seed):
    rng = np.random.default_rng(seed)
    rho = sample_density(dim_a * dim_b, int(rng.integers(1, dim_a * dim_b + 1)), rng.integers(2**32))
    alice = [sample_povm(dim_a, k, rng.integers(2**32)) for k in outcomes_a]
    bob = [sample_povm(dim_b, k, rng.integers(2**32)) for k in outcomes_b]
    u, v = _random_unitary(dim_a, rng), _random_unitary(dim_b, rng)
    uv = np.kron(u, v)
    rho_rotated = DensityMatrix(uv @ rho.mat @ uv.conj().T)
    alice_rotated = [_conjugated(u, p) for p in alice]
    bob_rotated = [_conjugated(v, p) for p in bob]
    box = quantum_box(rho, alice, bob)
    rotated = quantum_box(rho_rotated, alice_rotated, bob_rotated)
    assert rotated.scenario == box.scenario
    assert float(np.abs(rotated.p - box.p).max()) <= 1e-12
    trace = fod_floor_pipeline(rho, bob[0], bob[1], alice)
    trace_rotated = fod_floor_pipeline(rho_rotated, bob_rotated[0], bob_rotated[1], alice_rotated)
    assert trace.passed and trace_rotated.passed
    assert abs(trace_rotated.c - trace.c) <= SLACK_TOL


@given(st.integers(2, 5), st.integers(1, 4), st.integers(0, 2**32 - 1))
def test_unitary_conjugation_keeps_rti_slack(dim, l, seed):
    u = _random_unitary(dim, np.random.default_rng(seed))
    for commuting in (False, True):
        instance = sample_rti_instance(dim, l, seed, commuting)
        members = [DensityMatrix(u @ m @ u.conj().T) for m in instance.ensemble.states]
        rotated = RtiInstance(
            sigma=DensityMatrix(u @ instance.sigma.mat @ u.conj().T),
            ensemble=Ensemble(instance.ensemble.weights, members),
            epsilon=instance.epsilon,
        )
        before = verify_rti(instance, commuting).slack
        assert abs(verify_rti(rotated, commuting).slack - before) <= 1e-10
