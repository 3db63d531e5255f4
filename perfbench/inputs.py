"""Seeded workload inputs, made with numpy alone.

Nothing here imports the library: a change to the program cannot change what
the benchmark feeds it. Each generator takes the run seed and returns the same
inputs for the same seed.
"""

from __future__ import annotations

import itertools
import json
import os
from dataclasses import dataclass

import numpy as np

# Separate streams per workload, so adding one workload never shifts another.
_STREAM = {"rti_campaign": 1, "box_ladder": 2, "floor_pipeline": 3}

RTI_DIMS = (2, 3, 4)
RTI_LS = (2, 3, 4)
# A twentieth of the CLI default per cell: a batched kernel would still see
# batches of 100-250 matrices per campaign, and a run holds about 300 calls,
# so p90 rests on about 30 calls beyond it.
RTI_TRIALS = 50

LADDER_RUNGS = (2, 3, 4, 5, 6)
# Every visibility is above the chained-Bell local threshold, 0.863 at
# n = 6, so every box is nonlocal and cf < 1. Within this range each rung's
# LP takes the same number of pivots (138 at 6x6), so a run's work does not
# depend on its seed. Below about 0.92 the 6x6 LP takes 800-1200 pivots and
# the count moves with the visibility; that regime is in the mix once, at a
# fixed visibility, through LOW_VISIBILITY_RUNG.
VISIBILITY_RANGE = (0.93, 0.99)
# 5x5 at 0.86: 453 pivots instead of 72, about as slow as the 6x6 rung.
LOW_VISIBILITY_RUNG = (5, 0.86)

FLOOR_DIMS = (2, 3)
FLOOR_OUTCOMES = (2, 3)
# Pipeline cost depends on how many steered members survive truncation, which
# varies between draws; several draws per shape keep a run's mix, and so its
# p90, close to the same from seed to seed.
FLOOR_DRAWS_PER_SHAPE = 4


def _rng(workload: str, seed: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), _STREAM[workload]])


def rti_calls(seed: int) -> list[list[str]]:
    """One `verify-rti` argv per (dim, l) cell, each with its own seed."""
    cells = list(itertools.product(RTI_DIMS, RTI_LS))
    seeds = _rng("rti_campaign", seed).integers(0, 2**31 - 1, size=len(cells))
    return [
        ["verify-rti", "--dims", str(d), "--l", str(l), "--trials", str(RTI_TRIALS), "--seed", str(s)]
        for (d, l), s in zip(cells, seeds)
    ]


@dataclass(frozen=True, eq=False)
class BoxInput:
    """Dense table p[x, y, a, b] with structural zeros past each outcome count."""

    name: str
    p: np.ndarray
    outcomes_a: tuple
    outcomes_b: tuple

    @property
    def strategy_count(self) -> int:
        return int(np.prod(self.outcomes_a)) * int(np.prod(self.outcomes_b))

    def to_dict(self) -> dict:
        return {
            "scenario": {
                "nA": len(self.outcomes_a),
                "nB": len(self.outcomes_b),
                "outcomesA": list(self.outcomes_a),
                "outcomesB": list(self.outcomes_b),
            },
            "p": [
                [self.p[x, y, :ka, :kb].tolist() for y, kb in enumerate(self.outcomes_b)]
                for x, ka in enumerate(self.outcomes_a)
            ],
        }


def chained_singlet(n: int, visibility: float) -> np.ndarray:
    """Singlet measured at the chained-Bell angles, mixed with white noise.

    Alice measures along x pi / n, Bob along (y + 1/2) pi / n in the x-z
    plane; the singlet correlator is -cos of the angle between them.
    """
    theta = np.arange(n) * np.pi / n
    phi = (np.arange(n) + 0.5) * np.pi / n
    corr = -np.cos(theta[:, None] - phi[None, :])
    parity = np.array([[1.0, -1.0], [-1.0, 1.0]])
    return visibility * (1.0 + parity * corr[:, :, None, None]) / 4.0 + (1.0 - visibility) / 4.0


def _split_outcomes(p: np.ndarray, alice_input: int, bob_input: int, t: float, s: float):
    """Split outcome 1 of one input per party into two, with weights (t, 1-t)
    for Alice and (s, 1-s) for Bob. Local relabelling keeps no-signalling."""
    n_a, n_b = p.shape[:2]
    out = np.zeros((n_a, n_b, 3, 3))
    out[:, :, :2, :2] = p
    out[alice_input, :, 2, :] = (1.0 - t) * out[alice_input, :, 1, :]
    out[alice_input, :, 1, :] *= t
    out[:, bob_input, :, 2] = (1.0 - s) * out[:, bob_input, :, 1]
    out[:, bob_input, :, 1] *= s
    return out


def box_ladder(seed: int) -> list[BoxInput]:
    """Chained-singlet boxes with n x n binary inputs for n = 2..6, one 5x5
    box at low visibility, and one 3x3 rung with unequal outcome counts.

    Seven boxes, so that with whole cycles p50 falls inside the 4x4 rung's
    latencies and p90 inside the slowest pair's, not on an edge between two.
    """
    rng = _rng("box_ladder", seed)
    lo, hi = VISIBILITY_RANGE
    boxes = [
        BoxInput(f"chained{n}", chained_singlet(n, rng.uniform(lo, hi)), (2,) * n, (2,) * n)
        for n in LADDER_RUNGS
    ]
    n, visibility = LOW_VISIBILITY_RUNG
    boxes.append(BoxInput(f"chained{n}_low", chained_singlet(n, visibility), (2,) * n, (2,) * n))
    t, s = rng.uniform(0.2, 0.8, size=2)
    uneven = _split_outcomes(chained_singlet(3, rng.uniform(lo, hi)), 1, 2, t, s)
    boxes.append(BoxInput("uneven3", uneven, (2, 3, 2), (2, 2, 3)))
    return boxes


def write_boxes(boxes: list[BoxInput], directory: str) -> list[str]:
    os.makedirs(directory, exist_ok=True)
    paths = []
    for box in boxes:
        path = os.path.join(directory, f"{box.name}.json")
        with open(path, "w") as fh:
            json.dump(box.to_dict(), fh)
        paths.append(path)
    return paths


@dataclass(frozen=True, eq=False)
class Realization:
    """Raw arrays for one quantum realization: a state on A (x) B, Alice's two
    POVMs as (2, k, dA, dA) and Bob's two as (2, l, dB, dB)."""

    rho: np.ndarray
    alice: np.ndarray
    bob: np.ndarray


def _ginibre(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


def _state(rng: np.random.Generator, dim: int) -> np.ndarray:
    g = _ginibre(rng, dim, dim)
    m = g @ g.conj().T
    return m / np.real(np.trace(m))


def _povm(rng: np.random.Generator, dim: int, outcomes: int) -> np.ndarray:
    """S^(-1/2) A_r S^(-1/2) over a pile of Ginibre PSD matrices A_r with sum S."""
    piles = np.array([g @ g.conj().T for g in (_ginibre(rng, dim, dim) for _ in range(outcomes))])
    w, v = np.linalg.eigh(piles.sum(axis=0))
    inv_root = (v / np.sqrt(w)) @ v.conj().T
    return inv_root @ piles @ inv_root


def realizations(seed: int) -> list[Realization]:
    """FLOOR_DRAWS_PER_SHAPE realizations per (dim_a, dim_b, k, l) in
    {2, 3}^4, with k outcomes for both Alice inputs and l for both Bob inputs."""
    rng = _rng("floor_pipeline", seed)
    shapes = itertools.product(FLOOR_DIMS, FLOOR_DIMS, FLOOR_OUTCOMES, FLOOR_OUTCOMES)
    out = []
    for dim_a, dim_b, k, l in [s for s in shapes for _ in range(FLOOR_DRAWS_PER_SHAPE)]:
        rho = _state(rng, dim_a * dim_b)
        alice = np.array([_povm(rng, dim_a, k) for _ in range(2)])
        bob = np.array([_povm(rng, dim_b, l) for _ in range(2)])
        out.append(Realization(rho=rho, alice=alice, bob=bob))
    return out
