"""LP values checked against closed forms, with numpy as the only dependency.

The classical fraction of the singlet measured at the chained-Bell angles,
Alice along x pi/n and Bob along (y + 1/2) pi/n for x, y in 0..n-1, is
n (1 - cos(pi / 2n)). Unlike an enumeration or HiGHS oracle, this reference
costs nothing as n grows: at n = 9 the LP has 262,144 strategy columns, where
the suite runs no HiGHS comparison.

Restriction is the other oracle past HiGHS: every local decomposition of a
box restricts to one of the box on a subset of the inputs, so the classical
fraction can only grow when inputs are dropped.
"""

import math

import numpy as np
import pytest

from nonlocality.boxes import Box, Scenario, quantum_box
from nonlocality.decomp import LP_TOL
from nonlocality.decomp import cf_exact
from nonlocality.states import singlet, xz_spin_povm


def chained_singlet_box(n: int):
    alice = [xz_spin_povm(x * math.pi / n) for x in range(n)]
    bob = [xz_spin_povm((y + 0.5) * math.pi / n) for y in range(n)]
    return quantum_box(singlet(), alice, bob)


@pytest.mark.parametrize("n", range(2, 10))
def test_chained_singlet_classical_fraction(n):
    value, _ = cf_exact(chained_singlet_box(n))
    assert abs(value - n * (1 - math.cos(math.pi / (2 * n)))) <= 1e-12


def restricted(box: Box, xs, ys) -> Box:
    """The box on Alice's inputs xs and Bob's inputs ys."""
    sc = box.scenario
    outcomes_a = tuple(sc.outcomes_a[x] for x in xs)
    outcomes_b = tuple(sc.outcomes_b[y] for y in ys)
    return Box(Scenario(outcomes_a, outcomes_b), box.p[np.ix_(xs, ys)])


def test_dropping_inputs_cannot_lower_the_classical_fraction():
    # Alice's angles x pi/9 at x = 0, 3, 6 and Bob's (y + 1/2) pi/9 at
    # y = 1, 4, 7 are the chained-3 angles: 0.4019 inside 0.1367
    full = chained_singlet_box(9)
    whole, _ = cf_exact(full)
    sub, _ = cf_exact(restricted(full, [0, 3, 6], [1, 4, 7]))
    assert sub >= whole - LP_TOL
    assert abs(sub - 3 * (1 - math.cos(math.pi / 6))) <= 1e-12
    full = chained_singlet_box(6)
    whole, _ = cf_exact(full)
    rng = np.random.default_rng(6)
    for _ in range(10):
        xs = np.sort(rng.choice(6, size=rng.integers(1, 6), replace=False))
        ys = np.sort(rng.choice(6, size=rng.integers(1, 6), replace=False))
        sub, _ = cf_exact(restricted(full, xs, ys))
        assert sub >= whole - LP_TOL
