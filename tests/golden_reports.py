"""Every frozen CLI report, compared byte for byte, and the exit code of the
box next to a CHSH facet.

`GOLDEN_REPORTS` is the one list of the reports under `tests/golden/`. The
module imports only pytest and `nonlocality`, so it also runs where numpy is
the only other package installed:

    pytest --noconftest tests/golden_reports.py

Its name lacks the `test_` prefix, so the suite does not collect it on its
own; `tests/test_cli.py` imports its tests and the suite runs them once,
from there.
"""

from pathlib import Path

import pytest

from nonlocality.cli import main

GOLDEN = Path(__file__).parent / "golden"
NEAR_FACET_BOX = Path(__file__).parent / "inputs" / "near_facet_box.json"

# Report file -> argv, run from tests/golden so that the box paths in the
# report's config are the same relative paths on every machine.
GOLDEN_REPORTS = {
    "reproduce.json": ["reproduce"],
    "reproduce.csv": ["reproduce", "--format", "csv"],
    "bounds_222_beta.json": ["bounds", "2", "2", "2", "--beta-alg", "4", "--beta-det", "2"],
    "bounds_222_beta.csv": [
        "bounds", "2", "2", "2", "--beta-alg", "4", "--beta-det", "2", "--format", "csv"
    ],
    "bounds_324.json": ["bounds", "3", "2", "4"],
    "bounds_324.csv": ["bounds", "3", "2", "4", "--format", "csv"],
    "box_pr_all_ops.json": [
        "box", "inputs/pr_box.json", "--ops", "ns,fod,cf,bell",
        "--functional", "inputs/chsh_functional.json",
    ],
    "box_pr_all_ops.csv": [
        "box", "inputs/pr_box.json", "--ops", "ns,fod,cf,bell",
        "--functional", "inputs/chsh_functional.json", "--format", "csv",
    ],
    "box_noisy_pr.json": ["box", "inputs/noisy_pr_box.json", "--ops", "ns,fod,cf"],
    "box_noisy_pr.csv": ["box", "inputs/noisy_pr_box.json", "--ops", "ns,fod,cf", "--format", "csv"],
    "box_chained4_v090.json": ["box", "inputs/chained4_v090_box.json", "--ops", "ns,fod,cf"],
    "box_chained4_v090.csv": [
        "box", "inputs/chained4_v090_box.json", "--ops", "ns,fod,cf", "--format", "csv"
    ],
    # the deepest golden LPs: 453 pivots on the 5x5 box, 138 on the wide 6x6 tableau
    "box_chained5_v086.json": ["box", "inputs/chained5_v086_box.json", "--ops", "ns,fod,cf"],
    "box_chained5_v086.csv": [
        "box", "inputs/chained5_v086_box.json", "--ops", "ns,fod,cf", "--format", "csv"
    ],
    "box_chained6_v095.json": ["box", "inputs/chained6_v095_box.json", "--ops", "ns,fod,cf"],
    "box_chained6_v095.csv": [
        "box", "inputs/chained6_v095_box.json", "--ops", "ns,fod,cf", "--format", "csv"
    ],
    "box_uneven3_all_ops.json": [
        "box", "inputs/uneven3_box.json", "--ops", "ns,fod,cf,bell",
        "--functional", "inputs/uneven3_functional.json",
    ],
    "box_uneven3_all_ops.csv": [
        "box", "inputs/uneven3_box.json", "--ops", "ns,fod,cf,bell",
        "--functional", "inputs/uneven3_functional.json", "--format", "csv",
    ],
    "verify_rti_trials50_seed7.json": ["verify-rti", "--trials", "50", "--seed", "7"],
    "verify_rti_trials50_seed7.csv": ["verify-rti", "--trials", "50", "--seed", "7", "--format", "csv"],
    "verify_rti_trials50_seed7_l234.json": ["verify-rti", "--trials", "50", "--seed", "7", "--l", "2,3,4"],
    # l = 1, dim 5 and a seed past 2^32
    "verify_rti_dims25_l14_trials300_seed4294967296.json": [
        "verify-rti", "--dims", "2,5", "--l", "1,4", "--trials", "300", "--seed", "4294967296"
    ],
}


@pytest.mark.parametrize("golden", sorted(GOLDEN_REPORTS))
def test_report_matches_golden(monkeypatch, tmp_path, golden):
    monkeypatch.chdir(GOLDEN)
    monkeypatch.delenv("NONLOCAL_SEED", raising=False)
    out = tmp_path / golden
    assert main([*GOLDEN_REPORTS[golden], "--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / golden).read_bytes()


def test_near_facet_box_exits_0(tmp_path):
    # the box is 1e-8 from a CHSH facet, so its residual's digits are
    # ill-conditioned and only the exit code is checked
    assert main(["box", str(NEAR_FACET_BOX), "--ops", "ns,fod,cf", "--out", str(tmp_path / "r.json")]) == 0
