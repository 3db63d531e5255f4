"""Fail when the fast part of the test suite never reaches some `raise`
statement in `src/nonlocality/`.

Run from anywhere, with the package importable:

    PYTHONPATH=src python tests/check_raises_reached.py

It runs the suite in this process under a `sys.settrace` line tracer on the
package's own frames, without the long campaigns (c4, c8, c9) and the
`verify-rti` memory test, then lists every `raise` line that never ran. A
line may stay unreached only through ALLOWED, with its reason; an entry that
names no unreached `raise` fails too. Tests that run the CLI in a subprocess
are not traced. Only the standard library and pytest are used, and pytest
does not collect this file.
"""

import ast
import os
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "nonlocality"
SLOW = (
    "tests/test_acceptance.py::test_c4_rti_campaigns",
    "tests/test_acceptance.py::test_c8_floor_pipeline_campaigns",
    "tests/test_acceptance.py::test_c9_proof_ingredient_inequalities",
    "tests/test_cli.py::test_verify_rti_memory_does_not_grow_with_trials",
)
# "module.py:line" -> why no test can reach that raise
ALLOWED: dict[str, str] = {}


def raise_sites() -> set[str]:
    """Every `raise` statement of the package, as "module.py:line"."""
    return {
        f"{path.name}:{node.lineno}"
        for path in PACKAGE.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Raise)
    }


def run_traced(args: list[str]) -> tuple[int, set[str]]:
    """pytest's exit code on `args`, and every "module.py:line" of the package
    that ran meanwhile."""
    modules = {str(path.resolve()): path.name for path in PACKAGE.glob("*.py")}
    names: dict[str, str | None] = {}  # co_filename -> module name, or None outside
    reached: set[str] = set()

    def on_call(frame, event, arg):
        filename = frame.f_code.co_filename
        if filename not in names:
            names[filename] = modules.get(os.path.realpath(filename))
        name = names[filename]
        if name is None:
            return None

        def on_line(frame, event, arg):
            if event == "line":
                reached.add(f"{name}:{frame.f_lineno}")
            return on_line

        return on_line

    sys.settrace(on_call)
    try:
        code = pytest.main(args)
    finally:
        sys.settrace(None)
    return int(code), reached


def main() -> int:
    os.chdir(ROOT)
    deselect = [arg for test in SLOW for arg in ("--deselect", test)]
    code, reached = run_traced(["-q", "-p", "no:cacheprovider", *deselect, "tests"])
    if code != 0:
        print(f"the traced suite failed (pytest exit code {code})")
        return 1
    sites = raise_sites()
    missed = sorted(sites - reached - ALLOWED.keys())
    stale = sorted(site for site in ALLOWED if site not in sites or site in reached)
    for site in missed:
        print(f"never reached: raise at src/nonlocality/{site}")
    for site in stale:
        print(f"allowed but not an unreached raise: {site}")
    print(f"{len(sites)} raise sites, {len(sites & reached)} reached, {len(ALLOWED)} allowed")
    return 1 if missed or stale else 0


if __name__ == "__main__":
    sys.exit(main())
