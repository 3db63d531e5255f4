"""Frozen `to_dict` output of every record class.

`tests/golden/records.json` holds, under each name below, the sorted-key JSON
of the record the builder returns; the serializer must keep reproducing it.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from nonlocality.bounds import (
    binary_bob_bounds,
    close_pair,
    confusing_outcome,
    fod_floor_pipeline,
    optimize_mu,
    universal_fod_bound,
)
from nonlocality.boxes import Box, chsh_scenario, pr_box, tsirelson_realization, validate_ns
from nonlocality.rti import (
    fvdg_check,
    rotfeld_check,
    rti_campaign,
    sample_rti_instance,
    verify_rti,
)
from nonlocality.states import DensityMatrix, Povm, pure_state, sample_density, sample_povm, steer

GOLDEN = Path(__file__).parent / "golden" / "records.json"


def _pipeline():
    rho, alice, bob = tsirelson_realization()
    return fod_floor_pipeline(rho, bob[0], bob[1], alice)


def _close_pair():
    rho, _, bob = tsirelson_realization()
    return close_pair(steer(rho, bob[0]), steer(rho, bob[1]))


def _confusing_outcome():
    rho, alice, bob = tsirelson_realization()
    e1, e2 = steer(rho, bob[0]), steer(rho, bob[1])
    pair = close_pair(e1, e2)
    rho, sigma = DensityMatrix(e1.states[pair.i]), DensityMatrix(e2.states[pair.j])
    return confusing_outcome(rho, sigma, alice[1])


def _signalling_ns_report():
    sc = chsh_scenario()
    t = np.zeros(sc.shape)
    t[0, 0, 0, 0] = t[0, 1, 1, 0] = t[1, 0, 0, 0] = t[1, 1, 0, 0] = 1.0
    return validate_ns(Box(sc, t))


RECORDS = {
    "MuOptimum": optimize_mu,
    "UniversalBound_222": lambda: universal_fod_bound(2, 2, 2),
    "UniversalBound_324": lambda: universal_fod_bound(3, 2, 4),
    "PipelineTrace_tsirelson": _pipeline,
    "BinaryBobBounds": binary_bob_bounds,
    "RtiReport_general": lambda: verify_rti(sample_rti_instance(3, 3, seed=11)),
    "RtiReport_commuting": lambda: verify_rti(
        sample_rti_instance(3, 2, seed=5, commuting=True), commuting=True
    ),
    "CampaignRow": lambda: rti_campaign([2, 3], [2], 20, 7, commuting=True),
    "NsReport_pr": lambda: validate_ns(pr_box()),
    "NsReport_signalling": _signalling_ns_report,
    "InequalityReport_rotfeld": lambda: rotfeld_check(
        [sample_density(3, 2, seed=1).mat, sample_density(3, 3, seed=2).mat]
    ),
    "InequalityReport_fvdg": lambda: fvdg_check(
        sample_density(2, 2, seed=3), pure_state([1.0, 1.0j])
    ),
    "ClosePair": _close_pair,
    "ConfusingOutcome": _confusing_outcome,
}


def record_dict(value):
    """`to_dict` of a record, or a list of them for a builder that returns several."""
    if isinstance(value, (list, tuple)):
        return [v.to_dict() for v in value]
    return value.to_dict()


def canonical(value) -> str:
    return json.dumps(value, sort_keys=True, indent=1)


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_to_dict_matches_golden(name):
    frozen = json.loads(GOLDEN.read_text())[name]
    got = record_dict(RECORDS[name]())
    assert got == frozen
    # The text form also tells True from 1 and 1.0 from 1.
    assert canonical(got) == canonical(frozen)


def test_golden_covers_every_record():
    assert sorted(json.loads(GOLDEN.read_text())) == sorted(RECORDS)


PIPELINE_GOLDEN = Path(__file__).parent / "golden" / "pipelines.json"


def _realization(seed, dim_a, dim_b, alice_outcomes, bob_outcomes, rank=None):
    """Seeded state on dim_a x dim_b with one sampled POVM per outcome count."""
    rng = np.random.default_rng((20261018, seed))
    dim = dim_a * dim_b
    rho = sample_density(dim, dim if rank is None else rank, rng)
    alice = [sample_povm(dim_a, k, rng) for k in alice_outcomes]
    bob = [sample_povm(dim_b, k, rng) for k in bob_outcomes]
    return rho, alice, bob


def _dropped_outcome():
    """Bob's side of the state lives on |0>, |1> of a qutrit, so the third
    outcome of his computational-basis measurement has weight 0 and is dropped."""
    rng = np.random.default_rng((20261018, 99))
    vec = np.zeros((2, 3), dtype=complex)
    vec[:, :2] = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    rho = pure_state(vec.reshape(-1))
    basis = Povm(tuple(np.diag(np.eye(3)[i]).astype(complex) for i in range(3)))
    alice = [sample_povm(2, 2, rng) for _ in range(2)]
    return rho, alice, [basis, sample_povm(3, 2, rng)]


# name -> (rho, alice POVMs, bob POVMs, mu or None for the optimum)
PIPELINES = {
    "d22_k2_l22": lambda: (*_realization(1, 2, 2, (2, 2), (2, 2)), None),
    "d22_k3_l22": lambda: (*_realization(2, 2, 2, (3, 3), (2, 2)), None),
    "d22_k2_l33_pure": lambda: (*_realization(3, 2, 2, (2, 2), (3, 3), rank=1), None),
    "d23_k2_l23": lambda: (*_realization(4, 2, 3, (2, 2), (2, 3)), None),
    "d23_k3_l32": lambda: (*_realization(5, 2, 3, (3, 3), (3, 2)), None),
    "d32_k2_l22": lambda: (*_realization(6, 3, 2, (2, 2), (2, 2)), None),
    "d32_k3_l23_rank2": lambda: (*_realization(7, 3, 2, (3, 3), (2, 3), rank=2), None),
    "d33_k3_l33": lambda: (*_realization(8, 3, 3, (3, 3), (3, 3)), None),
    "d33_k23_l32": lambda: (*_realization(9, 3, 3, (2, 3), (3, 2)), None),
    "d23_three_alice_inputs": lambda: (*_realization(10, 2, 3, (2, 3, 2), (3, 3)), None),
    "d22_k2_l23_mu3": lambda: (*_realization(11, 2, 2, (2, 2), (2, 3)), 3.0),
    "d33_k2_l33_mu10": lambda: (*_realization(12, 3, 3, (2, 2), (3, 3)), 10.0),
    "d23_dropped_outcome": lambda: (*_dropped_outcome(), None),
}


def _pipeline_dict(name):
    rho, alice, bob, mu = PIPELINES[name]()
    return fod_floor_pipeline(rho, bob[0], bob[1], alice, mu=mu).to_dict()


@pytest.mark.parametrize("name", sorted(PIPELINES))
def test_pipeline_trace_matches_golden(name):
    frozen = json.loads(PIPELINE_GOLDEN.read_text())[name]
    got = json.loads(json.dumps(_pipeline_dict(name)))
    assert canonical(got) == canonical(frozen)


def test_pipeline_golden_covers_every_realization():
    assert sorted(json.loads(PIPELINE_GOLDEN.read_text())) == sorted(PIPELINES)


def test_dropped_outcome_realization_drops_one_member():
    rho, _, bob, _ = PIPELINES["d23_dropped_outcome"]()
    ensemble = steer(rho, bob[0])
    assert ensemble.labels == (0, 1)
    assert json.loads(PIPELINE_GOLDEN.read_text())["d23_dropped_outcome"]["l1"] == 2
