"""The per-trial seeding of `rti_campaign` against NumPy's own, at fixed
seeds, and the run-time check that holds the campaign to NumPy.

The campaign does not build `default_rng((seed, dim, l, trial))` for every
trial: `rti._trial_states` replays NumPy's seeding for a whole chunk at once.
The module imports only pytest, numpy and `nonlocality`, so it also runs
where numpy is the only other package installed:

    pytest --noconftest tests/test_seeding.py
"""

import numpy as np
import pytest

from nonlocality import rti
from nonlocality.cli import main

# one, two and three 32-bit words of seed entropy
SEEDS = (0, 1, 2**32 - 1, 2**32, 2**64 + 3)
TRIALS = (0, 1, 127, 2**32 - 1, 2**32, 2**64 + 3)


@pytest.mark.parametrize("seed", SEEDS)
def test_trial_states_match_default_rng_at_fixed_seeds(seed):
    for dim in (2, 3, 16):
        for l in (1, 2, 8):
            states = rti._trial_states(seed, dim, l, TRIALS)
            for t, state in zip(TRIALS, states, strict=True):
                assert state == np.random.default_rng((seed, dim, l, t)).bit_generator.state


def test_a_replay_that_disagrees_with_numpy_is_an_internal_error(monkeypatch, capsys):
    monkeypatch.setattr(rti, "_MIX_MULT_L", rti._MIX_MULT_L ^ 1)
    with pytest.raises(RuntimeError, match="disagrees with NumPy"):
        rti.rti_campaign([2], [1], 1, 0)
    assert main(["verify-rti", "--trials", "1", "--dims", "2", "--l", "1"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "internal error: RuntimeError: seeding replay disagrees with NumPy's "
        "default_rng((0, 2, 1, 0))\n"
    )


@pytest.mark.parametrize("from_env", [False, True])
def test_negative_seed_exits_2_with_numpys_message(monkeypatch, capsys, from_env):
    argv = ["verify-rti", "--trials", "1"]
    if from_env:
        monkeypatch.setenv("NONLOCAL_SEED", "-1")
    else:
        monkeypatch.delenv("NONLOCAL_SEED", raising=False)
        argv += ["--seed", "-1"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: expected non-negative integer\n"
