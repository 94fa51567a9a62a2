"""Source-layout rules for the package, checked on its syntax trees.

Library invariants raise real exceptions, because `python -O` strips
`assert` statements; only `om.py` touches the memo cache, which every
other module reaches through `OrientedMatroid.memo`; only `linalg.py`
names the integer eliminations, so every other module gets kernels,
intersections, solves and invariant factors through its lattice helpers;
the Theorem C verifiers push chains through tope index maps, never
through dense stalk matrices; and the Theorem B verifier, integral homology
and the CLI work on the coarse Salvetti complex, never on its fine
subdivision.
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


DENSE_STALK_MAPS = {"mat_vec", "mat_mul", "cosheaf_map"}
THEOREM_C_VERIFIERS = ("verify_ses", "verify_naturality", "verify_theorem_C")


@pytest.mark.parametrize("name", THEOREM_C_VERIFIERS)
def test_theorem_C_verifiers_use_index_maps(name):
    path = PACKAGE / "cosheaf.py"
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    (fn,) = [node for node in tree.body
             if isinstance(node, ast.FunctionDef) and node.name == name]
    lines = sorted(
        node.lineno for node in ast.walk(fn)
        if (isinstance(node, ast.Name) and node.id in DENSE_STALK_MAPS)
        or (isinstance(node, ast.Attribute) and node.attr in DENSE_STALK_MAPS)
    )
    assert lines == [], f"{name}: dense stalk map named at lines {lines}"


def _imported_names(path: Path) -> set[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    return {alias.name for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names}


def test_cosheaf_does_not_import_mat_mul():
    assert "mat_mul" not in _imported_names(PACKAGE / "cosheaf.py")


def test_cosheaf_does_not_import_mat_vec():
    assert "mat_vec" not in _imported_names(PACKAGE / "cosheaf.py")


FINE_COMPLEX = {"get_fine", "coarse_to_fine", "FineComplex"}


def _fine_complex_lines(tree: ast.AST) -> list[int]:
    return sorted(
        node.lineno for node in ast.walk(tree)
        if (isinstance(node, ast.Name) and node.id in FINE_COMPLEX)
        or (isinstance(node, ast.Attribute) and node.attr in FINE_COMPLEX)
        or (isinstance(node, ast.ImportFrom)
            and any(alias.name in FINE_COMPLEX for alias in node.names))
    )


def _function(module: str, name: str) -> ast.FunctionDef:
    path = PACKAGE / module
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    (fn,) = [node for node in tree.body
             if isinstance(node, ast.FunctionDef) and node.name == name]
    return fn


def test_theorem_B_evaluates_on_the_coarse_complex():
    lines = _fine_complex_lines(_function("filtrations.py", "verify_theorem_B"))
    assert lines == [], f"verify_theorem_B: fine complex named at lines {lines}"


def test_integral_homology_is_taken_on_the_coarse_complex():
    lines = _fine_complex_lines(_function("salvetti.py", "homology_Z"))
    assert lines == [], f"homology_Z: fine complex named at lines {lines}"


def test_cli_never_names_the_fine_complex():
    path = PACKAGE / "cli.py"
    lines = _fine_complex_lines(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
    assert lines == [], f"cli.py: fine complex named at lines {lines}"
