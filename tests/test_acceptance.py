"""End-to-end acceptance run: every headline constant and guaranteed
inequality checked at its stated tolerance, one printed line per criterion
(run with -s to see them)."""

import itertools
import json
import math
import time

import numpy as np
import pytest
from scipy.optimize import linprog

from nonlocality.bounds import (
    binary_bob_bounds,
    close_pair,
    confusing_outcome,
    fod_floor_pipeline,
    optimize_mu,
    universal_fod_bound,
)
from nonlocality.boxes import (
    Box,
    chsh_functional,
    chsh_scenario,
    enumerate_deterministic,
    local_box,
    maximally_mixed_box,
    pr_box,
    quantum_box,
    tsirelson_realization,
    bell_value,
)
from nonlocality.cli import main
from nonlocality.decomp import bell_bound_from_fod, cf_exact, fod_exact
from nonlocality.rti import (
    classical_sharp_example,
    extremal_family,
    extremal_gaps,
    fvdg_check,
    l1_distance,
    rotfeld_check,
    rti_campaign,
    subnormalized_gap,
)
from nonlocality.states import (
    Ensemble,
    ensemble_average,
    sample_density,
    sample_povm,
    steer,
    trace_distance,
    truncate_ensemble,
)

from test_bounds import certify_mu0

MASTER_SEED = 20260814
MU_STAR = (5.0 + math.sqrt(17.0)) / 2.0


def test_c1_truncation_scale_optimum():
    start = time.perf_counter()
    opt = optimize_mu()
    certify_mu0(opt.mu, opt.value)
    elapsed = time.perf_counter() - start
    assert abs(opt.mu - MU_STAR) <= 1e-10
    assert abs(opt.value - 0.1134) <= 1e-4
    assert elapsed < 1.0
    print(
        f"PASS 1/9 truncation-scale optimum: mu={opt.mu:.12f} f={opt.value:.8f} "
        f"certified by exact values and a 1e-3 grid ({elapsed:.3f}s)"
    )


def test_c2_universal_chsh_floor(tmp_path):
    bound = universal_fod_bound(2, 2, 2)
    assert abs(bound.theorem_form - 3.5438e-3) <= 1e-6
    bell = bell_bound_from_fod(4.0, 2.0, bound.theorem_form)
    assert abs(bell - 3.9929) <= 1e-4
    # the in-text floor is twice the theorem form; it is recorded but not matched
    assert abs(2.0 * bound.theorem_form - 7.0875e-3) <= 1e-6
    out = tmp_path / "reproduce.json"
    assert main(["reproduce", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    by_name = {row["name"]: row for row in report["rows"]}
    for flagged in ("chsh_fod_floor_paper_example", "beta_chsh_paper_example"):
        assert by_name[flagged]["checked"] is False
        assert by_name[flagged]["pass"] is None
    assert report["summary"]["all_pass"] is True
    print(
        f"PASS 2/9 universal floor for two binary inputs: c={bound.theorem_form:.10f} "
        f"bell ceiling {bell:.7f}; doubled in-text values flagged, not matched"
    )


def test_c3_binary_bob_constants():
    start = time.perf_counter()
    binary = binary_bob_bounds(k=2)
    elapsed = time.perf_counter() - start
    assert abs(binary.fod_constant - 0.10961) <= 5e-4
    assert abs(binary.cf_constant - 0.1123) <= 5e-4
    bell_fod = bell_bound_from_fod(4.0, 2.0, binary.fod_bound)
    bell_cf = bell_bound_from_fod(4.0, 2.0, binary.cf_bound)
    assert abs(bell_fod - 3.9452) <= 1e-3
    assert abs(bell_cf - 3.9439) <= 1e-3
    assert elapsed < 60.0
    print(
        f"PASS 3/9 binary-Bob constants: fod={binary.fod_constant:.7f} "
        f"cf={binary.cf_constant:.7f} bell ceilings {bell_fod:.5f}/{bell_cf:.5f} "
        f"({elapsed:.2f}s)"
    )


def test_c4_rti_campaigns():
    start = time.perf_counter()
    dims, sizes = (2, 3, 4), (2, 3, 4)
    general = rti_campaign(dims, sizes, 10_000, MASTER_SEED, commuting=False)
    # 1112 per cell x 9 cells > 1e4 commuting instances in total
    commuting = rti_campaign(dims, sizes, 1_112, MASTER_SEED + 1, commuting=True)
    elapsed = time.perf_counter() - start
    assert sum(row.trials for row in general) == 90_000
    assert sum(row.trials for row in commuting) == 10_008
    for row in general + commuting:
        assert row.violations == 0, row
        assert row.min_slack >= -1e-8, row
    min_general = min(row.min_slack for row in general)
    min_commuting = min(row.min_slack for row in commuting)
    assert elapsed < 300.0
    print(
        f"PASS 4/9 randomized mixture-distance campaigns: 90000 general + 10008 "
        f"commuting instances, 0 violations, min slack {min_general:.3e}/"
        f"{min_commuting:.3e} ({elapsed:.1f}s)"
    )


def test_c5_sharpness_examples():
    for r in list(np.linspace(0.01, 1.0, 100)) + [1e-3, 1e-2]:
        member, mixture = extremal_gaps(float(r))
        assert mixture**2 >= 2.0 * member - 1e-12
        rho1, rho2, sigma = extremal_family(float(r))
        assert abs(subnormalized_gap(rho1, sigma) - member) <= 1e-12
        assert abs(subnormalized_gap(rho2, sigma) - member) <= 1e-12
    member, mixture = extremal_gaps(1e-3)
    ratio = mixture / math.sqrt(2.0 * member)
    assert abs(ratio - 1.0) < 0.02
    for l, eps in ((2, 0.4), (3, 0.2), (4, 0.1)):
        example = classical_sharp_example(l, eps)
        for component in example.components:
            assert abs(l1_distance(component, example.h) - (2.0 - eps)) <= 1e-12
        assert abs(l1_distance(example.mixture(), example.h) - (2.0 - l * eps)) <= 1e-12
    print(
        f"PASS 5/9 sharpness families: sqrt dependence tight (ratio {ratio:.4f} at "
        f"r=1e-3), commuting bound met with equality at three (l, eps) points"
    )


def test_c6_decomposition_oracles():
    sc = chsh_scenario()
    mixed_fod, _ = fod_exact(maximally_mixed_box(sc))
    assert mixed_fod == 0.25
    pr_fod, _ = fod_exact(pr_box())
    assert pr_fod == 0.0
    pr_cf, _ = cf_exact(pr_box())
    assert abs(pr_cf) <= 1e-9

    rng = np.random.default_rng((MASTER_SEED, 6, 0))
    w = rng.random(16)
    w /= w.sum()
    local_cf, _ = cf_exact(local_box(sc, w))
    assert local_cf >= 1.0 - 1e-7
    mixture = Box(sc, 0.7 * local_box(sc, w).p + 0.3 * pr_box().p)
    mixture_cf, _ = cf_exact(mixture)
    assert mixture_cf >= 0.7 - 1e-7

    strategies = enumerate_deterministic(sc)
    cell_rows = [
        [1.0 if (s.alice[x] == a and s.bob[y] == b) else 0.0 for s in strategies]
        for x, y, a, b in itertools.product(range(2), repeat=4)
    ]
    worst = 0.0
    for trial in range(50):
        rng = np.random.default_rng((MASTER_SEED, 6, 1, trial))
        w = rng.random(16)
        w /= w.sum()
        t = float(rng.uniform(0.0, 1.0))
        box = Box(sc, t * pr_box().p + (1.0 - t) * local_box(sc, w).p)
        value, _ = cf_exact(box)
        rhs = [float(box.p[x, y, a, b]) for x, y, a, b in itertools.product(range(2), repeat=4)]
        ref = linprog(
            -np.ones(16),
            A_ub=np.array(cell_rows + [[1.0] * 16]),
            b_ub=np.array(rhs + [1.0]),
            bounds=[(0, None)] * 16,
            method="highs",
        )
        assert ref.status == 0
        worst = max(worst, abs(value - (-ref.fun)))
        assert worst <= 1e-7
    print(
        f"PASS 6/9 decomposition oracles: fod(uniform)=1/4, fod(pr)=cf(pr)=0, local "
        f"weights recovered, 50 random boxes match the reference solver to {worst:.2e}"
    )


def test_c7_singlet_between_bounds():
    rho, alice, bob = tsirelson_realization()
    value = bell_value(chsh_functional(), quantum_box(rho, alice, bob))
    assert abs(value - 2.0 * math.sqrt(2.0)) <= 1e-6
    for ceiling in (3.9439, 3.9452, 3.9858, 3.9929):
        assert value < ceiling
    assert value > 2.0
    print(
        f"PASS 7/9 singlet realization: value {value:.10f} = 2*sqrt(2) within 1e-6, "
        f"strictly between 2 and every derived ceiling"
    )


def test_c8_floor_pipeline_campaigns():
    start = time.perf_counter()

    worst_confusing = math.inf
    for trial in range(10_000):
        rng = np.random.default_rng((MASTER_SEED, 8, 1, trial))
        dim = 2 + trial % 3
        rho = sample_density(dim, int(rng.integers(1, dim + 1)), rng)
        sigma = sample_density(dim, int(rng.integers(1, dim + 1)), rng)
        povm = sample_povm(dim, 2 + trial % 3, rng)
        found = confusing_outcome(rho, sigma, povm)
        worst_confusing = min(
            worst_confusing, min(found.prob_rho, found.prob_sigma) - found.epsilon
        )
    assert worst_confusing >= -1e-10

    worst_pair = math.inf
    for trial in range(10_000):
        rng = np.random.default_rng((MASTER_SEED, 8, 2, trial))
        dim_a = 2 + trial % 2
        dim_b = 2 + (trial // 2) % 2
        rho_ab = sample_density(dim_a * dim_b, int(rng.integers(1, dim_a * dim_b + 1)), rng)
        povm_1 = sample_povm(dim_b, 2 + trial % 2, rng)
        povm_2 = sample_povm(dim_b, 2 + (trial // 3) % 2, rng)
        pair = close_pair(steer(rho_ab, povm_1), steer(rho_ab, povm_2))
        worst_pair = min(worst_pair, (2.0 - pair.epsilon) - pair.distance)
    assert worst_pair >= -1e-8

    worst_truncation = math.inf
    for trial in range(10_000):
        rng = np.random.default_rng((MASTER_SEED, 8, 3, trial))
        dim = 2 + trial % 2
        ensembles = []
        for _ in range(2):
            size = int(rng.integers(2, 5))
            states = tuple(sample_density(dim, dim, rng) for _ in range(size))
            weights = rng.dirichlet(np.ones(size))
            ensembles.append(Ensemble(weights=weights, states=states))
        full_distance = trace_distance(
            ensemble_average(ensembles[0]), ensemble_average(ensembles[1])
        )
        parts = []
        for ensemble in ensembles:
            threshold = float(rng.uniform(0.0, 0.999 * ensemble.weights.max()))
            parts.append(truncate_ensemble(ensemble, threshold))
        (t1, delta1), (t2, delta2) = parts
        delta = max(delta1, delta2)
        lhs = trace_distance(ensemble_average(t1), ensemble_average(t2))
        rhs = (2.0 * delta + full_distance) / (1.0 - delta)
        worst_truncation = min(worst_truncation, rhs - lhs)
    assert worst_truncation >= -1e-8

    floors = []
    worst_cross = math.inf
    for trial in range(1_000):
        rng = np.random.default_rng((MASTER_SEED, 8, 4, trial))
        rho = sample_density(4, int(rng.integers(1, 5)), rng)
        alice = [sample_povm(2, 2, rng) for _ in range(2)]
        bob_1 = sample_povm(2, 2, rng)
        bob_2 = sample_povm(2, 2, rng)
        trace = fod_floor_pipeline(rho, bob_1, bob_2, alice)
        assert not trace.vacuous
        assert trace.passed, [r.to_dict() for r in trace.inequalities if not r.holds]
        assert trace.c >= trace.theorem_form - 1e-15
        # cross-strand: the floor lower-bounds the box's true fraction of determinism
        fod, _ = fod_exact(quantum_box(rho, alice, [bob_1, bob_2]))
        assert fod >= trace.c - 1e-8, (trial, fod, trace.c)
        worst_cross = min(worst_cross, fod - trace.c)
        floors.append(trace.c)
    elapsed = time.perf_counter() - start
    assert elapsed < 600.0
    print(
        f"PASS 8/9 floor-pipeline campaigns: 10000 confusing outcomes (min slack "
        f"{worst_confusing:.2e}), 10000 steered close pairs ({worst_pair:.2e}), "
        f"10000 truncations ({worst_truncation:.2e}), 1000 full pipelines with "
        f"c in [{min(floors):.2e}, {max(floors):.2e}] above the universal floor "
        f"and below fod_exact of their box (min margin {worst_cross:.2e}) ({elapsed:.1f}s)"
    )


def test_c9_proof_ingredient_inequalities():
    worst_rotfeld = math.inf
    for trial in range(10_000):
        rng = np.random.default_rng((MASTER_SEED, 9, 1, trial))
        dim = 2 + trial % 3
        count = 2 + trial % 3
        mats = []
        for _ in range(count):
            g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            mats.append(g @ g.conj().T / dim)
        report = rotfeld_check(mats)
        assert report.holds
        worst_rotfeld = min(worst_rotfeld, report.slack)
    assert worst_rotfeld >= -1e-8

    worst_fvdg = math.inf
    for trial in range(10_000):
        rng = np.random.default_rng((MASTER_SEED, 9, 2, trial))
        dim = 2 + trial % 3
        rho = sample_density(dim, int(rng.integers(1, dim + 1)), rng)
        sigma = sample_density(dim, int(rng.integers(1, dim + 1)), rng)
        low, high = fvdg_check(rho, sigma)
        assert low.holds and high.holds
        worst_fvdg = min(worst_fvdg, low.slack, high.slack)
    assert worst_fvdg >= -1e-8
    print(
        f"PASS 9/9 proof-ingredient inequalities: 10000 trace-sqrt subadditivity "
        f"checks (min slack {worst_rotfeld:.2e}) and 10000 fidelity-distance "
        f"sandwiches (min slack {worst_fvdg:.2e}), all nonnegative"
    )
