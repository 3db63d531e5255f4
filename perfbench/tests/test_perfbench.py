"""Tests of the benchmark itself: inputs, tracing, verdicts and its contract.

    python3 -m pytest perfbench/tests -q
"""

import importlib
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import inputs  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

from nonlocality import rti  # noqa: E402


def _benchmark_json() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _bound(name, seed, tmp_path):
    w = workloads.WORKLOADS[name](seed, str(tmp_path))
    w.bind()
    return w


def _traced_cycle(w):
    tally = workloads.Tally(len(w))
    tr = tracer.Tracer()
    with tr.installed():
        workloads.run_cycle(w, tally, tr)
    return tr, tally


def test_generators_are_deterministic_per_seed():
    assert inputs.rti_calls(5) == inputs.rti_calls(5)
    assert inputs.rti_calls(5) != inputs.rti_calls(6)

    def boxes(seed):
        return [(b.name, b.p, b.outcomes_a, b.outcomes_b) for b in inputs.box_ladder(seed)]

    for (n1, p1, a1, b1), (n2, p2, a2, b2) in zip(boxes(5), boxes(5)):
        assert (n1, a1, b1) == (n2, a2, b2)
        assert np.array_equal(p1, p2)
    assert not all(np.array_equal(x[1], y[1]) for x, y in zip(boxes(5), boxes(6)))

    def arrays(seed):
        return [(r.rho, r.alice, r.bob) for r in inputs.realizations(seed)]

    for x, y in zip(arrays(5), arrays(5)):
        assert all(np.array_equal(a, b) for a, b in zip(x, y))
    assert not np.array_equal(arrays(5)[0][0], arrays(6)[0][0])


def test_generators_do_not_import_the_program():
    code = "import sys, inputs; inputs.box_ladder(1); inputs.realizations(1); print('nonlocality' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], cwd=BENCH, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


def test_box_inputs_are_nonlocal_no_signalling_boxes():
    for box in inputs.box_ladder(3):
        for x, ka in enumerate(box.outcomes_a):
            for y, kb in enumerate(box.outcomes_b):
                assert box.p[x, y, :ka, :kb].sum() == pytest.approx(1.0, abs=1e-12)
                assert np.all(box.p[x, y, ka:, :] == 0.0) and np.all(box.p[x, y, :, kb:] == 0.0)
                assert np.allclose(box.p[x, y].sum(axis=1), box.p[x, 0].sum(axis=1), atol=1e-12)
                assert np.allclose(box.p[x, y].sum(axis=0), box.p[0, y].sum(axis=0), atol=1e-12)
    uneven = inputs.box_ladder(3)[-1]
    assert len(set(uneven.outcomes_a)) > 1 and len(set(uneven.outcomes_b)) > 1


def _binding_sites():
    for layer in tracer.LAYERS:
        importlib.import_module(f"nonlocality.{layer}")
    sites = {}
    for module in tracer.binding_modules():
        for attr, value in vars(module).items():
            sites[(module.__name__, attr)] = id(value)
            if isinstance(value, type):
                for name, member in vars(value).items():
                    sites[(module.__name__, attr, name)] = id(member)
    return sites


def test_wrappers_are_removed_after_a_traced_run(tmp_path):
    w = _bound("floor_pipeline", 2, tmp_path)
    before = _binding_sites()
    tr, _ = _traced_cycle(w)
    assert tr.counts["states.steer_calls"] == 2 * len(w)
    assert tracer.leftover_wrappers() == []
    assert _binding_sites() == before

    with pytest.raises(KeyError):
        with tr.installed():
            assert tracer.leftover_wrappers()
            raise KeyError("boom")
    assert tracer.leftover_wrappers() == []
    assert _binding_sites() == before


def test_wrappers_reach_from_imported_bindings():
    import nonlocality
    from nonlocality import linalg, states

    with tracer.Tracer().installed():
        assert states.require_hermitian is linalg.require_hermitian
        assert nonlocality.trace_norm is linalg.trace_norm
        assert hasattr(states.steer, tracer.WRAPPED_MARK)
        assert hasattr(nonlocality.steer, tracer.WRAPPED_MARK)


def test_rti_instance_counts():
    tr = tracer.Tracer()
    with tr.installed():
        rti.verify_rti(rti.sample_rti_instance(3, 3, seed=11))
    assert tr.counts["linalg.eig_matrices"] == 24
    assert tr.counts["rti.certificate_evals"] == 3
    assert tr.counts["states.validations"] == 14
    assert sum(tr.errors.values()) == 0


def test_box_ladder_counts_repeat_and_match_the_ladder(tmp_path):
    w = _bound("box_ladder", 4, tmp_path)
    first, tally = _traced_cycle(w)
    second, _ = _traced_cycle(w)
    assert first.counts == second.counts
    assert first.counts["linalg.eig_matrices"] == 0
    assert first.counts["decomp.lp_columns"] == sum(b.strategy_count for b in w.boxes)
    assert first.counts["decomp.lp_solves"] == len(w)
    assert workloads.verdict(w, tally) == (0, len(w))


def test_wrong_oracle_value_counts_as_failed_call(tmp_path):
    w = _bound("floor_pipeline", 2, tmp_path)
    tally = workloads.Tally(len(w))
    workloads.run_cycle(w, tally)
    assert workloads.verdict(w, tally) == (0, len(w))

    w.oracle = lambda i: {"fod": 0.0}
    assert workloads.verdict(w, tally) == (len(w), 0)

    def broken(i):
        raise RuntimeError("oracle unavailable")

    w.oracle = broken
    assert workloads.verdict(w, tally) == (len(w), 0)


def test_failing_calls_count_as_failed_calls(tmp_path):
    w = _bound("rti_campaign", 2, tmp_path)
    w.items = [["verify-rti", "--dims", "1"], ["no-such-command"]]
    tally = workloads.Tally(len(w))
    workloads.run_cycle(w, tally)
    assert tally.attempted == 2
    assert workloads.verdict(w, tally)[0] == 2


def test_worker_reports_exactly_the_declared_metrics(tmp_path):
    declared = _benchmark_json()
    w = _bound("floor_pipeline", 2, tmp_path)
    timed = worker.timed_run(w, 0.0)
    assert set(timed["metrics"]) | {"setup_s"} == {m["name"] for m in declared["end_to_end"]}
    traced = worker.traced_run(w, 0.0, str(tmp_path / "spans.json"))
    assert set(traced["metrics"]) == {m["name"] for m in declared["per_layer"]}
    assert traced["failed"] == 0
    with open(tmp_path / "spans.json") as fh:
        spans = json.load(fh)
    assert spans["spans"] and all(row[3] >= row[2] for row in spans["spans"])


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "box_ladder", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
