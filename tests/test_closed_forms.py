"""LP values checked against closed forms, with numpy as the only dependency.

The classical fraction of the singlet measured at the chained-Bell angles,
Alice along x pi/n and Bob along (y + 1/2) pi/n for x, y in 0..n-1, is
n (1 - cos(pi / 2n)). Unlike an enumeration or HiGHS oracle, this reference
costs nothing as n grows: at n = 9 the LP has 262,144 strategy columns, where
the suite runs no HiGHS comparison.
"""

import math

import pytest

from nonlocality.boxes import quantum_box
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
