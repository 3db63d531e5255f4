"""README's Tolerances table against the constants the package defines.

Every module-level `*_TOL` constant of `src/nonlocality/*.py`, the slack
constant `records.SLACK_TOL` among them, needs a row naming its module and
value, and every row that names a constant must name one the package defines
with that value. Rows for literal thresholds are free text and not checked.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "nonlocality"
README = ROOT / "README.md"


def defined_constants() -> dict[tuple[str, str], object]:
    """(name, module) -> value of every module-level upper-case assignment of
    a literal, such as `LP_TOL = 1e-9`."""
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target = node.targets[0]
                if isinstance(target, ast.Name) and re.fullmatch(r"[A-Z][A-Z0-9_]*", target.id):
                    try:
                        found[(target.id, path.stem)] = ast.literal_eval(node.value)
                    except ValueError:
                        pass
    return found


def defined_tolerances() -> dict[tuple[str, str], float]:
    return {key: value for key, value in defined_constants().items() if key[0].endswith("_TOL")}


def table_rows() -> list[tuple[str, str, str]]:
    """(threshold, value, module) cells of every row of the Tolerances table."""
    section = README.read_text().split("\n## Tolerances\n", 1)[1].split("\n## ", 1)[0]
    lines = [line for line in section.splitlines() if line.startswith("|")]
    # the header, then the |---| separator
    return [tuple(c.strip() for c in line.strip("|").split("|")[:3]) for line in lines[2:]]


def constant_rows() -> dict[tuple[str, str], str]:
    """(name, module) -> value cell of every row whose threshold is a constant."""
    rows = {}
    for threshold, value, module in table_rows():
        name = re.fullmatch(r"`([A-Z][A-Z0-9_]*)`", threshold)
        if name:
            key = (name.group(1), module.strip("`"))
            assert key not in rows, f"{key} has two rows"
            rows[key] = value
    return rows


def test_the_table_is_found():
    assert len(table_rows()) >= len(defined_tolerances()) >= 10
    assert ("SLACK_TOL", "records") in defined_tolerances()


def test_every_tolerance_constant_has_a_row_with_its_value():
    rows = constant_rows()
    for key, value in defined_tolerances().items():
        assert key in rows, f"{key[0]} of {key[1]} has no row in README's Tolerances table"
        assert float(rows[key]) == value, f"{key}: README says {rows[key]}, the code {value!r}"


def test_every_constant_row_names_a_defined_constant():
    defined = defined_constants()
    for key, value in constant_rows().items():
        assert key in defined, f"README names {key[0]} in {key[1]}, which defines no such constant"
        assert float(value) == defined[key], f"{key}: README says {value}, the code {defined[key]!r}"
