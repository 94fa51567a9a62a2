"""Source-layout rules for the package, checked on its syntax trees.

Library invariants raise real exceptions, because `python -O` strips
`assert` statements; only `om.py` touches the memo cache, which every
other module reaches through `OrientedMatroid.memo`; and only `linalg.py`
names the integer eliminations, so every other module gets kernels,
intersections, solves and invariant factors through its lattice helpers.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "topespace"
MODULES = sorted(PACKAGE.glob("*.py"))


def test_package_modules_found():
    assert {p.name for p in MODULES} >= {"om.py", "salvetti.py", "filtrations.py"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_assert_statements(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert lines == [], f"{path.name}: assert statements at lines {lines}"


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "om.py"],
                         ids=lambda p: p.name)
def test_memo_cache_only_in_om(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and node.attr == "_cache"]
    assert lines == [], f"{path.name}: _cache accessed at lines {lines}"


ELIMINATIONS = {"smith_normal_form", "hermite_normal_form"}


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "linalg.py"],
                         ids=lambda p: p.name)
def test_integer_eliminations_only_in_linalg(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    lines = sorted(
        node.lineno for node in ast.walk(tree)
        if (isinstance(node, ast.Name) and node.id in ELIMINATIONS)
        or (isinstance(node, ast.Attribute) and node.attr in ELIMINATIONS)
        or (isinstance(node, ast.ImportFrom)
            and any(alias.name in ELIMINATIONS for alias in node.names))
    )
    assert lines == [], f"{path.name}: integer elimination named at lines {lines}"
