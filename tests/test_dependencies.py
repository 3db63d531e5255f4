"""Numpy is the package's only runtime dependency: every import in
src/nonlocality, function-local ones included, names the standard library,
numpy, __future__ or the package itself. Uses only the standard library, so
it runs where the test extras are not installed."""

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "nonlocality"
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
