"""Reference values and per-call correctness checks.

The oracles are the benchmark's own: a numpy max-min over its own strategy
enumeration for the fraction of determinism, HiGHS through scipy for the
classical fraction, and a numpy Born rule for quantum boxes. They run once
per input, outside the timed loop. A check returns False, never raises, for
any result it cannot confirm.
"""

from __future__ import annotations

import itertools
import json

import numpy as np

FOD_TOL = 1e-12
CF_TOL = 1e-7


def strategies(outcomes) -> np.ndarray:
    """Every output assignment, one row per strategy, lexicographic."""
    return np.array(list(itertools.product(*(range(k) for k in outcomes))), dtype=int)


def fod_oracle(p: np.ndarray, outcomes_a, outcomes_b) -> float:
    """max over deterministic strategies of the smallest matched cell."""
    alice, bob = strategies(outcomes_a), strategies(outcomes_b)
    worst = np.full((len(alice), len(bob)), np.inf)
    for x in range(len(outcomes_a)):
        for y in range(len(outcomes_b)):
            worst = np.minimum(worst, p[x, y][alice[:, x][:, None], bob[:, y][None, :]])
    return float(worst.max())


def cf_oracle(p: np.ndarray, outcomes_a, outcomes_b) -> float:
    """max sum c_D subject to sum_D c_D D <= p cellwise, sum c_D <= 1, c >= 0."""
    from scipy.optimize import linprog

    alice, bob = strategies(outcomes_a), strategies(outcomes_b)
    rows, rhs = [], []
    for x, ka in enumerate(outcomes_a):
        for y, kb in enumerate(outcomes_b):
            for a in range(ka):
                for b in range(kb):
                    hit = (alice[:, x] == a)[:, None] & (bob[:, y] == b)[None, :]
                    rows.append(hit.ravel())
                    rhs.append(p[x, y, a, b])
    n = len(alice) * len(bob)
    a_ub = np.vstack([np.array(rows, dtype=float), np.ones(n)])
    b_ub = np.append(np.maximum(rhs, 0.0), 1.0)
    res = linprog(-np.ones(n), A_ub=a_ub, b_ub=b_ub, bounds=(0, None), method="highs")
    if res.status != 0:
        raise RuntimeError(f"HiGHS failed: {res.message}")
    return float(-res.fun)


def born_box(rho: np.ndarray, alice: np.ndarray, bob: np.ndarray) -> np.ndarray:
    """p[x, y, a, b] = Re Tr((A^x_a (x) B^y_b) rho)."""
    dim_a, dim_b = alice.shape[2], bob.shape[2]
    r = rho.reshape(dim_a, dim_b, dim_a, dim_b)
    return np.real(np.einsum("xaik,ybjl,klij->xyab", alice, bob, r))


def check_rti(result) -> bool:
    """Exit code 0 and every row of the report passes."""
    rc, output = result
    rows = json.loads(output)["rows"]
    return rc == 0 and bool(rows) and all(row["pass"] is True for row in rows)


def check_box(result, oracle: dict) -> bool:
    """ns passes, 0 <= fod <= cf <= 1, and both match their oracles."""
    rc, output = result
    rows = {row["name"]: row for row in json.loads(output)["rows"]}
    fod, cf = rows["fod"]["computed"], rows["cf"]["computed"]
    return (
        rc == 0
        and rows["ns_max_violation"]["pass"] is True
        and 0.0 <= fod <= cf <= 1.0
        and abs(fod - oracle["fod"]) <= FOD_TOL
        and abs(cf - oracle["cf"]) <= CF_TOL
    )


def check_floor(result, oracle: dict) -> bool:
    """The trace passes, is not vacuous, c clears the theorem floor and the
    oracle fod of the realized box clears c."""
    passed, vacuous, c, theorem_form = result
    return passed and not vacuous and theorem_form <= c <= oracle["fod"]
