"""Source-layout rules for the package, checked on its syntax trees.

Library invariants raise real exceptions, because `python -O` strips
`assert` statements; and only `om.py` touches the memo cache, which every
other module reaches through `OrientedMatroid.memo`.
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
