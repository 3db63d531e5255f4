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
from nonlocality.states import pure_state, sample_density, steer

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
    return confusing_outcome(e1.states[pair.i], e2.states[pair.j], alice[1])


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
    "BinaryBobBounds_coarse": lambda: binary_bob_bounds(grid_step=1e-2, refine_step=1e-4),
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
