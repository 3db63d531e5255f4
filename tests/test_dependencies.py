"""Numpy is the package's only runtime dependency: every import in
src/nonlocality, function-local ones included, names the standard library,
numpy, __future__ or the package itself. The package's public names are the
ones its modules define, and the workflow's numpy-only job runs every test
module that needs neither hypothesis nor scipy. Uses only the standard
library and the package, so it runs where the test extras are not
installed."""

import ast
import sys
from pathlib import Path
from types import ModuleType

import nonlocality

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "nonlocality"
TESTS = ROOT / "tests"
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "__future__", PACKAGE.name}


def imported_modules(path: Path) -> list[tuple[int, str]]:
    """(line, top-level module) of every absolute import in `path`; a relative
    import is the package itself and is skipped."""
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            found += [(node.lineno, alias.name.partition(".")[0]) for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            found.append((node.lineno, node.module.partition(".")[0]))
    return found


def test_package_imports_only_numpy_and_the_standard_library():
    paths = sorted(PACKAGE.glob("*.py"))
    assert paths
    outside = [
        f"{path.name}:{line} imports {module}"
        for path in paths
        for line, module in imported_modules(path)
        if module not in ALLOWED
    ]
    assert not outside, outside


def test_function_local_imports_are_seen(tmp_path):
    module = tmp_path / "lazy.py"
    module.write_text(
        "from . import boxes\nimport numpy as np\n\n"
        "def solve():\n    import scipy.optimize\n    from scipy import linalg\n"
    )
    assert imported_modules(module) == [(2, "numpy"), (5, "scipy"), (6, "scipy")]


def test_star_import_binds_exactly_the_public_names():
    names = nonlocality.__all__
    bound = {}
    exec("from nonlocality import *", bound)
    assert set(bound) - {"__builtins__"} == set(names)
    assert names == sorted(set(names))
    for name in names:
        value = getattr(nonlocality, name)
        assert not name.startswith("_") and not isinstance(value, ModuleType), name
        assert getattr(value, "__module__", "").startswith("nonlocality."), name


def _needs_test_extras(name: str, seen: set[str]) -> bool:
    """Whether tests/`name`.py imports hypothesis or scipy, directly or
    through a sibling module of tests/."""
    seen.add(name)
    modules = {module for _, module in imported_modules(TESTS / f"{name}.py")}
    if modules & {"hypothesis", "scipy"}:
        return True
    siblings = {module for module in modules if (TESTS / f"{module}.py").is_file()} - seen
    return any(_needs_test_extras(sibling, seen) for sibling in siblings)


def test_the_numpy_only_job_runs_every_numpy_only_module():
    lines = [line.strip() for line in (ROOT / ".github" / "workflows" / "tests.yml").read_text().splitlines()]
    step = lines.index("- name: Numpy-only test modules")
    run = next(line for line in lines[step + 1 :] if line.startswith("run:"))
    listed = [word for word in run.split() if word.endswith(".py")]
    numpy_only = [
        f"tests/{path.name}" for path in sorted(TESTS.glob("test_*.py")) if not _needs_test_extras(path.stem, set())
    ]
    assert len(listed) == len(set(listed))
    assert sorted(listed) == sorted(["tests/golden_reports.py", *numpy_only])
