"""End-to-end command-line checks: exit codes, report shape, determinism."""

import contextlib
import copy
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import nonlocality
from nonlocality import cli

from nonlocality.boxes import (
    Box,
    DeterministicStrategy,
    chsh_functional,
    chsh_scenario,
    deterministic_box,
    maximally_mixed_box,
    pr_box,
    quantum_box,
    tsirelson_realization,
)
from nonlocality.cli import main
from nonlocality.decomp import UnboundedError

# the golden-report module runs on its own where only numpy is installed;
# importing its tests here is how the suite runs them
from golden_reports import (  # noqa: F401
    GOLDEN,
    GOLDEN_REPORTS,
    test_near_facet_box_exits_0,
    test_report_matches_golden,
)

THEOREM_222 = 0.0035437670488272285


def run(capsys, argv):
    rc = main(argv)
    out = capsys.readouterr().out
    return rc, out


def run_json(capsys, argv):
    rc, out = run(capsys, argv)
    return rc, json.loads(out)


def test_no_command_exits_2():
    with pytest.raises(SystemExit) as excinfo:
        main([])
    assert excinfo.value.code == 2


def test_reproduce_report(capsys):
    rc, report = run_json(capsys, ["reproduce"])
    assert rc == 0
    assert report["command"] == "reproduce"
    assert len(report["rows"]) == 15
    assert report["summary"] == {
        "rows": 15,
        "checked": 13,
        "passed": 13,
        "all_pass": True,
    }
    by_name = {row["name"]: row for row in report["rows"]}
    assert by_name["mu0"]["pass"] is True
    assert by_name["chsh_fod_floor"]["computed"] == pytest.approx(THEOREM_222)
    for flagged in ("chsh_fod_floor_paper_example", "beta_chsh_paper_example"):
        assert by_name[flagged]["checked"] is False
        assert by_name[flagged]["pass"] is None
        assert "twice" in by_name[flagged]["note"]
    assert by_name["chsh_singlet_value"]["computed"] == pytest.approx(
        2.0 * math.sqrt(2.0), abs=1e-9
    )


def test_reproduce_csv(capsys):
    rc, out = run(capsys, ["reproduce", "--format", "csv"])
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "name,paper_value,computed,tolerance,pass,provenance"
    assert len(lines) == 16
    assert lines[1].startswith("mu0,")
    assert lines[1].endswith(",true,paper")


def test_out_file_and_determinism(tmp_path, capsys):
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    assert main(["reproduce", "--out", str(first)]) == 0
    assert main(["reproduce", "--out", str(second)]) == 0
    assert capsys.readouterr().out == ""
    assert first.read_bytes() == second.read_bytes()


def test_out_unwritable_path(capsys):
    rc = main(["reproduce", "--out", "/nonexistent-dir/report.json"])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_verify_rti_small(capsys):
    rc, report = run_json(capsys, ["verify-rti", "--trials", "5"])
    assert rc == 0
    # 3 dims x 2 sizes, general and commuting, plus the two extremal rows
    assert len(report["rows"]) == 14
    names = [row["name"] for row in report["rows"]]
    assert "rti_general_dim2_l2" in names
    assert "rti_commuting_dim4_l3" in names
    assert names[-2:] == ["extremal_tightness_min_slack", "extremal_gap_identity"]
    assert report["summary"]["all_pass"] is True


def test_verify_rti_validation(capsys):
    for argv in (
        ["verify-rti", "--trials", "0"],
        ["verify-rti", "--trials", "5", "--dims", "1,2"],
        ["verify-rti", "--trials", "5", "--dims", "17"],
        ["verify-rti", "--trials", "5", "--l", "0"],
    ):
        rc = main(argv)
        assert rc == 2, argv
        assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("flag, value", [("--dims", ","), ("--dims", ""), ("--l", ",")])
def test_verify_rti_rejects_empty_integer_lists(capsys, flag, value):
    with pytest.raises(SystemExit) as excinfo:
        main(["verify-rti", "--trials", "1", flag, value])
    assert excinfo.value.code == 2
    assert "expected comma-separated integers" in capsys.readouterr().err


@pytest.mark.parametrize("flag, value, repeated", [("--dims", "2,2", 2), ("--l", "1,1", 1), ("--dims", "3,2,3", 3)])
def test_verify_rti_rejects_repeated_values(capsys, flag, value, repeated):
    # a repeated cell would run twice under one row name
    with pytest.raises(SystemExit) as excinfo:
        main(["verify-rti", "--trials", "1", flag, value])
    assert excinfo.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"{flag}: {repeated} given more than once in {value!r}" in captured.err


def test_box_checks_no_signalling_once_per_box(monkeypatch, tmp_path):
    from nonlocality import boxes

    checked = []
    original = boxes.validate_ns

    def counting(box, *args, **kwargs):
        checked.append(box)
        return original(box, *args, **kwargs)

    monkeypatch.setattr(boxes, "validate_ns", counting)
    path = GOLDEN / "inputs" / "noisy_pr_box.json"
    assert main(["box", str(path), "--ops", "ns,fod,cf", "--out", str(tmp_path / "r.json")]) == 0
    assert len(checked) == 1


def test_noisy_golden_box_has_a_residual():
    report = json.loads((GOLDEN / "box_noisy_pr.json").read_text())
    assert 0.0 < report["rows"][-1]["computed"] < 1.0
    assert report["details"]["cf_decomposition"]["residual"] is not None


NUMPY_ONLY = """
import sys
sys.modules["scipy"] = None  # any scipy import now raises ImportError
from nonlocality import cli
assert cli.main(["reproduce", "--out", sys.argv[1]]) == 0
assert cli.main(["bounds", "2", "2", "2", "--out", sys.argv[2]]) == 0
assert "scipy" not in [name.split(".")[0] for name, mod in sys.modules.items() if mod]
"""


def test_cli_runs_without_scipy(tmp_path):
    src = str(Path(nonlocality.__file__).parents[1])
    env = {k: v for k, v in os.environ.items() if k != "NONLOCAL_SEED"}
    env["PYTHONPATH"] = os.pathsep.join([src, env.get("PYTHONPATH", "")])
    out = [tmp_path / "reproduce.json", tmp_path / "bounds.json"]
    done = subprocess.run(
        [sys.executable, "-c", NUMPY_ONLY, *map(str, out)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert out[0].read_bytes() == (GOLDEN / "reproduce.json").read_bytes()
    assert json.loads(out[1].read_text())["summary"]["all_pass"] is True


def test_verify_rti_memory_does_not_grow_with_trials(tmp_path):
    # Trials are verified RTI_CHUNK at a time; holding all 2,000 dim-16
    # trials of a cell at once would take several hundred MB.
    tracemalloc.start()
    try:
        rc = main(["verify-rti", "--dims", "16", "--trials", "2000", "--out", str(tmp_path / "r.json")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 0
    assert peak < 64 * 2**20


@pytest.mark.parametrize(
    "error",
    [
        RuntimeError("simplex iteration budget 10 exhausted"),
        np.linalg.LinAlgError("no convergence"),
        UnboundedError("improving direction has no blocking constraint"),
        MemoryError("Unable to allocate 2.24 GiB for an array"),
        # a bug must not read as "a check failed" (exit 1)
        ZeroDivisionError("float division by zero"),
        TypeError("unsupported operand type(s) for -: 'float' and 'NoneType'"),
        KeyError("rows"),
    ],
)
def test_internal_failure_exits_3(monkeypatch, capsys, error):
    def fail(*args, **kwargs):
        raise error

    monkeypatch.setattr(cli, "rti_campaign", fail)
    assert main(["verify-rti", "--trials", "1"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"internal error: {type(error).__name__}: {error}\n"


def _write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def test_box_pr_all_ops(tmp_path, capsys):
    path = _write(tmp_path, "pr.json", pr_box().to_dict())
    rc, report = run_json(capsys, ["box", path, "--ops", "ns,fod,cf"])
    assert rc == 0
    by_name = {row["name"]: row for row in report["rows"]}
    assert by_name["ns_max_violation"]["pass"] is True
    assert by_name["fod"]["computed"] == 0.0
    assert by_name["cf"]["computed"] == pytest.approx(0.0, abs=1e-9)
    decomp = report["details"]["cf_decomposition"]
    assert decomp["total"] == pytest.approx(0.0, abs=1e-9)
    assert decomp["terms"] == []
    assert decomp["residual"] is not None


def test_box_bell_op(tmp_path, capsys):
    rho, alice, bob = tsirelson_realization()
    box_path = _write(tmp_path, "singlet.json", quantum_box(rho, alice, bob).to_dict())
    fn_path = _write(tmp_path, "chsh.json", chsh_functional().to_dict())
    rc, report = run_json(capsys, ["box", box_path, "--ops", "bell", "--functional", fn_path])
    assert rc == 0
    by_name = {row["name"]: row for row in report["rows"]}
    assert by_name["bell_value"]["computed"] == pytest.approx(2.0 * math.sqrt(2.0), abs=1e-9)
    assert by_name["bell_algebraic_max"]["computed"] == pytest.approx(4.0)
    assert by_name["bell_deterministic_max"]["computed"] == pytest.approx(2.0)
    # --functional is the only way to name the functional
    assert main(["box", box_path, "--ops", f"bell={fn_path}"]) == 2
    assert "unknown box operation" in capsys.readouterr().err


def test_box_bad_usage(tmp_path, capsys):
    path = _write(tmp_path, "pr.json", pr_box().to_dict())
    assert main(["box", path, "--ops", "nope"]) == 2
    assert main(["box", path, "--ops", "bell"]) == 2
    assert main(["box", str(tmp_path / "missing.json")]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["box", str(bad)]) == 2
    noschema = tmp_path / "noschema.json"
    noschema.write_text(json.dumps({"scenario": pr_box().to_dict()["scenario"]}))
    assert main(["box", str(noschema), "--ops", "ns"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("ops, repeated", [("ns,cf,cf", "cf"), ("bell,bell", "bell"), ("fod,ns,fod", "fod")])
def test_box_repeated_ops_exit_2(capsys, ops, repeated):
    # a repeated op would solve or read again and print a second row
    argv = ["box", str(GOLDEN / "inputs" / "pr_box.json"), "--ops", ops]
    if "bell" in ops:
        argv += ["--functional", str(GOLDEN / "inputs" / "chsh_functional.json")]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: box operation {repeated!r} given more than once\n"


def test_box_functional_without_bell_exits_2(capsys):
    functional = str(GOLDEN / "inputs" / "chsh_functional.json")
    assert main(["box", str(GOLDEN / "inputs" / "pr_box.json"), "--ops", "ns,fod", "--functional", functional]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: --functional {functional!r} is read only by the bell op\n"


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_box_non_finite_inputs_exit_2(tmp_path, capsys, bad):
    box = pr_box().to_dict()
    box["p"][0][0][0][0] = bad
    box_path = _write(tmp_path, "bad_box.json", box)
    assert main(["box", box_path, "--ops", "ns,fod,cf"]) == 2
    assert "non-finite" in capsys.readouterr().err
    functional = chsh_functional().to_dict()
    functional["s"][1][0][1][1] = bad
    fn_path = _write(tmp_path, "bad_fn.json", functional)
    good_path = _write(tmp_path, "pr.json", pr_box().to_dict())
    assert main(["box", good_path, "--ops", "bell", "--functional", fn_path]) == 2
    captured = capsys.readouterr()
    assert "non-finite" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("table", ["p", "s"])
@pytest.mark.parametrize("convert", [bool, str])
def test_box_non_number_cells_exit_2(tmp_path, capsys, table, convert):
    # read as numbers, both files pass every check and the run exits 0
    box = deterministic_box(DeterministicStrategy((0, 1), (1, 0)), chsh_scenario()).to_dict()
    functional = chsh_functional().to_dict()
    target = box if table == "p" else functional
    target[table] = [
        [[[convert(v) for v in row] for row in block] for block in blocks] for blocks in target[table]
    ]
    box_path = _write(tmp_path, "box.json", box)
    fn_path = _write(tmp_path, "fn.json", functional)
    assert main(["box", box_path, "--ops", "ns,fod,cf,bell", "--functional", fn_path]) == 2
    captured = capsys.readouterr()
    assert "block at input pair (0, 0) is not a 2 x 2 table of numbers" in captured.err
    assert captured.out == ""


def test_box_short_block_does_not_broadcast(tmp_path, capsys):
    box = maximally_mixed_box(chsh_scenario()).to_dict()
    box["p"][0][1] = [[0.25, 0.25]]  # would broadcast over both rows
    assert main(["box", _write(tmp_path, "short.json", box), "--ops", "ns,fod,cf"]) == 2
    assert "at input pair (0, 1) is not a 2 x 2 table of numbers" in capsys.readouterr().err


def test_box_integer_beyond_float_range_exits_2(tmp_path, capsys):
    # json reads 10**400 as an int, which numpy cannot store as a float
    box = maximally_mixed_box(chsh_scenario()).to_dict()
    box["p"][1][0][0][1] = 10**400
    assert main(["box", _write(tmp_path, "huge.json", box), "--ops", "ns"]) == 2
    assert "at input pair (1, 0) has an integer too large for a float" in capsys.readouterr().err


def test_box_declaring_huge_outcome_counts_exits_2(tmp_path, capsys):
    # every block is checked before the padded table would take 7.28 TiB
    box = {"scenario": {"outcomesA": [10**6], "outcomesB": [10**6]}, "p": [[[[1.0]]]]}
    assert main(["box", _write(tmp_path, "huge_counts.json", box)]) == 2
    assert "at input pair (0, 0) is not a 1000000 x 1000000 table" in capsys.readouterr().err


def test_box_non_integer_outcome_counts_exit_2(tmp_path, capsys):
    box = pr_box().to_dict()
    box["scenario"]["outcomesA"] = [2.7, 2]
    assert main(["box", _write(tmp_path, "bad.json", box)]) == 2
    assert "must be integers" in capsys.readouterr().err


def test_box_signalling(tmp_path, capsys):
    sc = chsh_scenario()
    t = np.zeros(sc.shape)
    t[0, 0, 0, 0] = 1.0
    t[0, 1, 1, 0] = 1.0
    t[1, 0, 0, 0] = 1.0
    t[1, 1, 0, 0] = 1.0
    path = _write(tmp_path, "sig.json", Box(sc, t).to_dict())
    assert main(["box", path, "--ops", "fod"]) == 2  # decomposition refuses it
    capsys.readouterr()
    rc, report = run_json(capsys, ["box", path, "--ops", "ns"])
    assert rc == 1  # the check itself runs and fails
    row = report["rows"][0]
    assert row["pass"] is False
    assert row["note"] == "alice marginal at x=0 between y=0 and y=1"


def test_bounds_report(capsys):
    rc, report = run_json(capsys, ["bounds", "2", "2", "2"])
    assert rc == 0
    by_name = {row["name"]: row for row in report["rows"]}
    assert by_name["theorem_form"]["computed"] == pytest.approx(THEOREM_222, rel=1e-12)
    assert by_name["proof_form_le_theorem_form"]["pass"] is True
    assert "bell_bound" not in by_name


def test_bounds_with_bell_ceiling(capsys):
    rc, report = run_json(
        capsys, ["bounds", "2", "2", "2", "--beta-alg", "4", "--beta-det", "2"]
    )
    assert rc == 0
    by_name = {row["name"]: row for row in report["rows"]}
    assert by_name["bell_bound"]["computed"] == pytest.approx(3.9929124659023456, abs=1e-12)


def test_bounds_validation(capsys):
    assert main(["bounds", "0", "2", "2"]) == 2
    assert main(["bounds", "2", "2", "2", "--beta-alg", "4"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("beta_alg, beta_det", [("nan", "2"), ("inf", "2"), ("4", "nan"), ("4", "-inf")])
def test_bounds_rejects_non_finite_betas(capsys, beta_alg, beta_det):
    rc, out = run(capsys, ["bounds", "2", "2", "2", f"--beta-alg={beta_alg}", f"--beta-det={beta_det}"])
    assert rc == 2
    assert out == ""


def test_bounds_csv(capsys):
    rc, out = run(capsys, ["bounds", "2", "2", "2", "--format", "csv"])
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "name,paper_value,computed,tolerance,pass,provenance"
    assert len(lines) == 4
    assert lines[1] == f"theorem_form,,{THEOREM_222!r},,,derived"


def test_seed_from_environment(monkeypatch, capsys):
    monkeypatch.setenv("NONLOCAL_SEED", "7")
    rc, report = run_json(capsys, ["bounds", "2", "2", "2"])
    assert rc == 0
    assert report["config"]["seed"] == 7
    rc, report = run_json(capsys, ["bounds", "2", "2", "2", "--seed", "3"])
    assert report["config"]["seed"] == 3
    monkeypatch.setenv("NONLOCAL_SEED", "abc")
    assert main(["bounds", "2", "2", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: NONLOCAL_SEED='abc' is not an integer\n"


def test_empty_seed_variable_counts_as_unset(monkeypatch, tmp_path, capsys):
    monkeypatch.chdir(GOLDEN)
    monkeypatch.setenv("NONLOCAL_SEED", "")
    golden = "box_chained5_v086.json"
    out = tmp_path / golden
    assert main([*GOLDEN_REPORTS[golden], "--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / golden).read_bytes()
    monkeypatch.setenv("NONLOCAL_SEED", "x")
    assert main([*GOLDEN_REPORTS[golden], "--out", str(tmp_path / "bad.json")]) == 2
    assert capsys.readouterr().err == "error: NONLOCAL_SEED='x' is not an integer\n"
    assert not (tmp_path / "bad.json").exists()


def test_same_seed_byte_identical(capsys):
    rc1, out1 = run(capsys, ["verify-rti", "--trials", "3", "--seed", "5"])
    rc2, out2 = run(capsys, ["verify-rti", "--trials", "3", "--seed", "5"])
    assert rc1 == rc2 == 0
    assert out1 == out2


json_leaves = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 3),
    st.floats(0.0, 1.0),
    st.just(10**400),
    st.floats(),  # NaN and infinities are written as the NaN / Infinity literals
    st.text(max_size=3),
)
json_trees = st.recursive(
    json_leaves,
    lambda kids: st.lists(kids, max_size=3) | st.dictionaries(st.text(max_size=3), kids, max_size=2),
    max_leaves=6,
)


def _node_paths(tree, path=()):
    yield path
    children = enumerate(tree) if isinstance(tree, list) else tree.items() if isinstance(tree, dict) else ()
    for key, child in children:
        yield from _node_paths(child, path + (key,))


@st.composite
def _mutated(draw, tree):
    """`tree` after up to three edits: a node replaced by a JSON tree, or a
    list shortened or lengthened (ragged)."""
    tree = copy.deepcopy(tree)
    for _ in range(draw(st.integers(0, 3))):
        path = draw(st.sampled_from(list(_node_paths(tree))))
        parent, key = None, None
        node = tree
        for step in path:
            parent, key, node = node, step, node[step]
        action = draw(st.sampled_from(["replace", "pop", "append"]))
        if action == "pop" and isinstance(node, list) and node:
            node.pop()
        elif action == "append" and isinstance(node, list):
            node.append(draw(json_trees))
        elif parent is None:
            tree = draw(json_trees)
        else:
            parent[key] = draw(json_trees)
    return tree


@st.composite
def _table_trees(draw):
    """A uniform box and a functional on one small scenario, each edited."""
    outcomes_a = draw(st.lists(st.integers(1, 3), min_size=1, max_size=2))
    outcomes_b = draw(st.lists(st.integers(1, 3), min_size=1, max_size=2))
    scenario = {"nA": len(outcomes_a), "nB": len(outcomes_b), "outcomesA": outcomes_a, "outcomesB": outcomes_b}
    blocks = [[[[1.0 / (ka * kb)] * kb for _ in range(ka)] for kb in outcomes_b] for ka in outcomes_a]
    box = {"scenario": scenario, "p": blocks}
    functional = {"scenario": scenario, "s": blocks}
    return draw(_mutated(box)), draw(_mutated(functional))


def _is_json_number(v) -> bool:
    if type(v) is int:
        return abs(v) <= sys.float_info.max
    return type(v) is float and math.isfinite(v)


def _parses_strictly(tree, field) -> bool:
    """Whether the strict-number rule admits `tree` as a table: positive
    integer outcome counts and, per input pair, a ka x kb list of lists of
    JSON numbers (not bools or strings) that are finite as floats."""
    try:
        scenario, rows = tree["scenario"], tree[field]
        counts = scenario["outcomesA"], scenario["outcomesB"]
    except (TypeError, KeyError, IndexError):
        return False
    if not all(type(c) is list and c and all(type(k) is int and k >= 1 for k in c) for c in counts):
        return False
    if scenario.get("nA", len(counts[0])) != len(counts[0]) or scenario.get("nB", len(counts[1])) != len(counts[1]):
        return False
    for x, ka in enumerate(counts[0]):
        for y, kb in enumerate(counts[1]):
            try:
                block = rows[x][y]
            except (TypeError, KeyError, IndexError):
                return False
            if not (type(block) is list and len(block) == ka):
                return False
            if not all(type(row) is list and len(row) == kb and all(map(_is_json_number, row)) for row in block):
                return False
    return True


@given(_table_trees(), st.sampled_from(["ns", "ns,fod,cf,bell"]))
def test_box_fuzz_exits_cleanly_and_passes_only_strict_tables(trees, ops):
    box_tree, functional_tree = trees
    with tempfile.TemporaryDirectory() as tmp:
        paths = []
        for name, tree in (("box.json", box_tree), ("functional.json", functional_tree)):
            paths.append(os.path.join(tmp, name))
            with open(paths[-1], "w") as fh:
                json.dump(tree, fh)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(["box", paths[0], "--ops", ops] + ["--functional", paths[1]] * ("bell" in ops))
    assert rc in (0, 1, 2), err.getvalue()
    assert "Traceback" not in err.getvalue()
    read = [(box_tree, "p")] + [(functional_tree, "s")] * ("bell" in ops)
    if not all(_parses_strictly(tree, field) for tree, field in read):
        assert rc == 2
        assert out.getvalue() == ""
