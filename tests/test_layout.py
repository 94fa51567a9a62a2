"""Source-layout rules for the package, checked on its syntax trees.

Library invariants raise real exceptions, because `python -O` strips
`assert` statements; only `om.py` touches the memo cache, which every
other module reaches through `OrientedMatroid.memo`, so a memo that is
released (`asymptotic`'s supports) is emptied through it; only `linalg.py`
names the integer eliminations and the GF(2) reduced row echelon form, so
every other module gets kernels, intersections, solves and invariant
factors through its lattice, subspace and solver helpers, and
`filtrations.py` names `GF2Solver` only in `_ladder_solver`, so a Quillen
degree is factored once, as its span, never again as a solver; unknown k
of the Kalinin ladder is bit k, so neither `_ladder_rows` nor `viro_bv`
counts a column down from the last one, `viro_bv` reads a beta with one
shift and mask, and `GF2Solver.prefix` shifts no row and shares its
parent's pivot rows;
and no module but `om.py` names `Fraction`, which it does only to hold and
parse arrangements, importing `fractions` at run time only in
`parse_arrangement`, so integer inputs and the corpus never load it;
every input reaches `OrientedMatroid` through one reader and one tail: only
`om.data_lines` skips blank and `#` lines, and the two factories end in
`om._validated`, calling neither each other nor the axiom check themselves;
the Theorem C verifiers push chains through tope index maps, never
through dense stalk matrices, and the pairing square of a naturality check
compares per-tope subset masks, so `cosheaf._naturality` neither pairs
(`pair_chain`) nor scatters (`_scatter`) a chain, the lower-piece
inclusion hands all rows to one `LatticeZ.contains_all` call, naming
neither `_scatter` nor `coords_of`, `verify_ses` reads the image and
kernel of the ladder step it shares with `vg_lower` (`pairing_step`), naming
neither `int_image_and_relations` nor a pairing of its own, and `cosheaf.py`
names neither `_packed` lanes nor the `where` expansion of an image; stalks are
direct sums of interval minors, so no module defines or names
`initial_covectors`; the Heaviside supports are not cached, so
`heaviside_pairing` calls no memo; the Theorem B verifier,
integral homology and the CLI work on the coarse Salvetti complex, never on
its fine subdivision; the CLI knows its verify targets in the one table
`TARGETS`, with no second list and no mod-2 route for `describe`; the coarse cells and boundaries come from mask tests and
coface lists, never from composing every pair of covector and tope;
every XOR over the subsets of a list of masks comes from `linalg.xor_span`,
never from a `range(1 << k)` loop over bit patterns; integer equations
reach the labelled Hermite form as sparse rows, never through a dense
identity label block (`int_identity`, `mat_vec`, `int_relations`); the one
integer row operation, `linalg._sub_multiple`, is called only by the echelon
pass `_echelon_rows` and the back-reduction `_back_reduce`, and `linalg.py`
imports no `heapq`, so the sparse Smith form runs no elimination of its own;
the covector axiom check and the arrangement build compose covectors through
the one closure `om.compositions`; the Cordovil dual is read off the nbc
straightening, so `algebras.py` names neither `int_kernel` nor the circuit
relation rows; vertex i of the Salvetti complex is tope i, so no module
names a tope-to-vertex lookup (`vertex_of_tope`, `tope_vertex_chain`);
`algebras.projectivize` reads the antipodal image off the step of the
antipodal ladder (`pairing_step`), naming neither `LatticeZ.from_generators`
nor the Heaviside supports, nor `tilde_a` or `sf_vector`; only tests pair single
chains or build epsilon elements, so no module defines `pair_chain`,
`tilde_a` or `epsilon`; no module defines or names the
general signed wedge, square-free product or coordinate row (`wedge_masks`,
`sf_mul`, `sf_vector`), because flag blocks are disjoint and the Quillen
wedges and epsilon elements are read off block transversals; each degree of
a filtration lattice is built inside the one below (`linalg.kernel_within`),
so no module defines or names a prefix kernel (`int_kernel_prefixes`) or a
lattice intersection (`intersect`); every ladder (`vg_lower`, the antipodal
piece, `asymptotic`, `quillen_Z_demo`) goes through the one helper
`filtrations._ladder` with no branch on the degree, only it and
`pairing_step` extend a ladder, and only `_cut` and `pairing_step` take
`kernel_within`; and no module imports `dataclasses`: value and report types are `typing.NamedTuple`s, so
importing the package never loads `dataclasses` and the `inspect` machinery
that comes with it.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "topespace"
MODULES = sorted(PACKAGE.glob("*.py"))


def _named_lines(tree: ast.AST, names: set[str]) -> list[int]:
    """Lines that read, look up as an attribute or import one of `names`."""
    return sorted(
        node.lineno for node in ast.walk(tree)
        if (isinstance(node, ast.Name) and node.id in names)
        or (isinstance(node, ast.Attribute) and node.attr in names)
        or (isinstance(node, ast.ImportFrom)
            and any(alias.name in names for alias in node.names))
    )


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
    lines = _named_lines(tree, ELIMINATIONS)
    assert lines == [], f"{path.name}: integer elimination named at lines {lines}"


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "linalg.py"],
                         ids=lambda p: p.name)
def test_gf2_rref_only_in_linalg(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    lines = _named_lines(tree, {"gf2_rref"})
    assert lines == [], f"{path.name}: gf2_rref named at lines {lines}"


def _bit_pattern_loops(tree: ast.AST) -> list[int]:
    """Lines that call `range(1 << k)`."""
    return sorted(
        node.lineno for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
        and node.func.id == "range"
        and any(isinstance(a, ast.BinOp) and isinstance(a.op, ast.LShift)
                and isinstance(a.left, ast.Constant) and a.left.value == 1
                for a in node.args)
    )


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_subset_xors_come_from_xor_span(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    lines = _bit_pattern_loops(tree)
    assert lines == [], f"{path.name}: range(1 << k) loop at lines {lines}"


FRACTION_OWNERS = {"Arrangement", "parse_arrangement"}


def _fraction_lines(path: Path, owners: set[str]) -> list[int]:
    """Lines of `path` that name `Fraction` or import `fractions` outside the
    top-level definitions `owners` and an `if TYPE_CHECKING:` block."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    allowed = {node.lineno for top in tree.body
               if (isinstance(top, (ast.ClassDef, ast.FunctionDef)) and top.name in owners)
               or (isinstance(top, ast.If) and isinstance(top.test, ast.Name)
                   and top.test.id == "TYPE_CHECKING")
               for node in ast.walk(top) if hasattr(node, "lineno")}
    imports = [node.lineno for node in ast.walk(tree)
               if (isinstance(node, ast.Import) and any(a.name == "fractions" for a in node.names))
               or (isinstance(node, ast.ImportFrom) and node.module == "fractions")]
    return sorted(line for line in _named_lines(tree, {"Fraction"}) + imports
                  if line not in allowed)


def test_fractions_only_in_arrangement_parsing():
    lines = _fraction_lines(PACKAGE / "om.py", FRACTION_OWNERS)
    assert lines == [], f"om.py: Fraction named outside {sorted(FRACTION_OWNERS)} at lines {lines}"
    # the import that runs is parse_arrangement's, for entries int rejects
    imports = [node for node in ast.walk(_function("om.py", "parse_arrangement"))
               if isinstance(node, ast.ImportFrom) and node.module == "fractions"]
    assert imports, "parse_arrangement does not import fractions itself"


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "om.py"],
                         ids=lambda p: p.name)
def test_fractions_named_nowhere_else(path):
    lines = _fraction_lines(path, set())
    assert lines == [], f"{path.name}: Fraction named at lines {lines}"


def test_blank_and_comment_lines_are_skipped_in_one_place():
    skippers = {f"{path.name}:{fn.name}" for path in MODULES
                for fn in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                if isinstance(fn, ast.FunctionDef)
                and any(isinstance(node, ast.Constant) and node.value == "#"
                        for node in ast.walk(fn))}
    assert skippers == {"om.py:data_lines"}
    readers = {f"{path.name}:{fn.name}" for path in MODULES
               for fn in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
               if isinstance(fn, ast.FunctionDef) and _named_lines(fn, {"splitlines"})}
    assert readers == {"om.py:data_lines"}
    for module, name in [("cli.py", "resolve_input"), ("om.py", "parse_arrangement"),
                         ("om.py", "parse_covector_lines")]:
        assert _named_lines(_function(module, name), {"data_lines"}), f"{name} skips lines itself"


def _called(fn: ast.AST) -> set[str]:
    """The names that `fn` calls directly, as `f(...)`."""
    return {node.func.id for node in ast.walk(fn)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)}


def test_the_two_factories_share_one_validation_tail():
    factories = {"om_from_arrangement", "om_from_covectors"}
    tail = {"_canonical", "check_covector_axioms", "OrientedMatroid", "NotCovectors"}
    for name in factories:
        called = _called(_function("om.py", name))
        assert "_validated" in called, f"{name} does not end in _validated"
        assert not called & (tail | factories), f"{name} calls {sorted(called & (tail | factories))}"
    assert tail <= _called(_function("om.py", "_validated"))


def test_filtrations_factors_gf2_solvers_only_for_the_ladder():
    path = PACKAGE / "filtrations.py"
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    allowed = {id(node) for top in tree.body
               if isinstance(top, ast.FunctionDef) and top.name == "_ladder_solver"
               for node in ast.walk(top)}
    lines = sorted(
        node.lineno for node in ast.walk(tree)
        if ((isinstance(node, ast.Name) and node.id == "GF2Solver")
            or (isinstance(node, ast.Attribute) and node.attr == "GF2Solver"))
        and id(node) not in allowed
    )
    assert lines == [], f"filtrations.py: GF2Solver named outside _ladder_solver at lines {lines}"


def _differences(node: ast.AST) -> list[int]:
    """Lines of the subtractions in an expression, outside subscript indices."""
    if isinstance(node, ast.Subscript):
        return _differences(node.value)
    found = [node.lineno] if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Sub) else []
    return found + [line for child in ast.iter_child_nodes(node) for line in _differences(child)]


@pytest.mark.parametrize("name", ["_ladder_rows", "viro_bv"])
def test_the_ladder_unknowns_have_one_column_order(name):
    # unknown k of the Kalinin ladder is bit k, so no shift counts its amount
    # down from a last column, and viro_bv reads each beta with one shift and
    # one mask, never bit by bit
    fn = _function("filtrations.py", name)
    lines = [line for node in ast.walk(fn)
             if isinstance(node, ast.BinOp) and isinstance(node.op, (ast.LShift, ast.RShift))
             for line in _differences(node.right)]
    if name == "viro_bv":
        lines += _named_lines(fn, {"bits_of", "mask_from_bits"})
    assert lines == [], f"filtrations.py {name}: reversed column index or bitwise beta at lines {lines}"


def test_solver_prefix_shares_the_parent_pivot_rows():
    # GF2Solver.prefix keeps the leading columns as they are: it shifts
    # nothing and builds no row tuple, and its pivot rows are the parent's
    import random

    from topespace.linalg import GF2Solver

    path = PACKAGE / "linalg.py"
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    (cls,) = [node for node in tree.body if isinstance(node, ast.ClassDef) and node.name == "GF2Solver"]
    (fn,) = [node for node in cls.body if isinstance(node, ast.FunctionDef) and node.name == "prefix"]
    lines = [node.lineno for node in ast.walk(fn)
             if (isinstance(node, ast.BinOp) and isinstance(node.op, (ast.LShift, ast.RShift)))
             or (isinstance(node, ast.Tuple) and isinstance(node.ctx, ast.Load))]
    assert lines == [], f"linalg.py GF2Solver.prefix: shift or new row tuple at lines {lines}"
    rng = random.Random(5)
    rows = [rng.getrandbits(8) for _ in range(10)] + [rng.getrandbits(20) for _ in range(10)]
    parent = GF2Solver(rows, 20)
    pre = parent.prefix(10, 8)
    assert pre.pivot_rows and all(any(t is u for u in parent.pivot_rows) for t in pre.pivot_rows)


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


def test_linalg_imports_no_heapq():
    assert "heapq" not in _imported_names(PACKAGE / "linalg.py")


ROW_OPERATION_OWNERS = {"_echelon_rows", "_back_reduce"}


def test_integer_row_operations_only_in_the_echelon_pass_and_back_reduction():
    allowed = {f"linalg.py:{line}" for name in ROW_OPERATION_OWNERS
               for line in _named_lines(_function("linalg.py", name), {"_sub_multiple"})}
    lines = [f"{path.name}:{line}" for path in MODULES
             for line in _named_lines(ast.parse(path.read_text(encoding="utf-8")), {"_sub_multiple"})]
    lines = [line for line in lines if line not in allowed]
    assert lines == [], f"_sub_multiple named outside {sorted(ROW_OPERATION_OWNERS)} at {lines}"


def test_cosheaf_does_not_import_mat_mul():
    assert "mat_mul" not in _imported_names(PACKAGE / "cosheaf.py")


def test_cosheaf_does_not_import_mat_vec():
    assert "mat_vec" not in _imported_names(PACKAGE / "cosheaf.py")


DENSE_LABEL_BLOCKS = {"int_identity", "mat_vec", "int_relations"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_integer_equations_stay_sparse(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    lines = _named_lines(tree, DENSE_LABEL_BLOCKS) + [
        node.lineno for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name in DENSE_LABEL_BLOCKS]
    assert lines == [], f"{path.name}: dense identity label helper at lines {sorted(lines)}"


FINE_COMPLEX = {"get_fine", "coarse_to_fine", "FineComplex"}


def _fine_complex_lines(tree: ast.AST) -> list[int]:
    return _named_lines(tree, FINE_COMPLEX)


def _function(module: str, name: str) -> ast.FunctionDef:
    path = PACKAGE / module
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    (fn,) = [node for node in tree.body
             if isinstance(node, ast.FunctionDef) and node.name == name]
    return fn


def test_pairing_square_neither_pairs_nor_scatters_chains():
    lines = _named_lines(_function("cosheaf.py", "_naturality"), {"pair_chain", "_scatter"})
    assert lines == [], f"_naturality: pair_chain or _scatter named at lines {lines}"


def test_lower_inclusion_tests_all_rows_in_one_call():
    fn = _function("cosheaf.py", "_lower_included")
    lines = _named_lines(fn, {"_scatter", "coords_of"})
    assert lines == [], f"_lower_included: _scatter or coords_of named at lines {lines}"
    assert _named_lines(fn, {"contains_all"}), "_lower_included does not call contains_all"


def test_stalk_exactness_reads_the_shared_ladder_step():
    fn = _function("cosheaf.py", "verify_ses")
    lines = _named_lines(fn, {"int_image_and_relations", "pair_chain", "kernel_within"})
    assert lines == [], f"verify_ses: a Hermite form or pairing of its own at lines {lines}"
    assert _named_lines(fn, {"pairing_step"}), "verify_ses does not call pairing_step"


def test_cosheaf_neither_packs_lanes_nor_expands_images():
    lines = _named_lines(ast.parse((PACKAGE / "cosheaf.py").read_text(encoding="utf-8")),
                         {"_packed", "where"})
    assert lines == [], f"cosheaf.py: _packed or where named at lines {lines}"


def _ladder_extenders(tree: ast.AST) -> set[str]:
    """The functions that append to a list fetched through `memo`."""
    out = set()
    for fn in ast.walk(tree):
        if not isinstance(fn, ast.FunctionDef):
            continue
        fetched = {node.targets[0].id for node in ast.walk(fn)
                   if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name)
                   and isinstance(node.value, ast.Call) and isinstance(node.value.func, ast.Attribute)
                   and node.value.func.attr == "memo"}
        if any(isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
               and node.func.attr == "append" and isinstance(node.func.value, ast.Name)
               and node.func.value.id in fetched for node in ast.walk(fn)):
            out.add(fn.name)
    return out


def test_only_the_ladder_helper_and_the_pairing_step_extend_a_ladder():
    extenders = {f"{path.name}:{name}" for path in MODULES
                 for name in _ladder_extenders(ast.parse(path.read_text(encoding="utf-8")))}
    assert extenders == {"filtrations.py:_ladder", "filtrations.py:pairing_step"}
    # kernel_within is taken by the cut step the Heaviside ladders pass to
    # the helper and by the pairing step, nowhere else outside linalg.py
    cutters = {f"{path.name}:{fn.name}" for path in MODULES if path.name != "linalg.py"
               for fn in ast.parse(path.read_text(encoding="utf-8")).body
               if isinstance(fn, ast.FunctionDef) and _named_lines(fn, {"kernel_within"})}
    assert cutters == {"filtrations.py:_cut", "filtrations.py:pairing_step"}


@pytest.mark.parametrize("name", ["vg_lower", "_antipodal_lower", "asymptotic", "quillen_Z_demo"])
def test_every_filtration_ladder_goes_through_the_one_helper(name):
    fn = _function("filtrations.py", name)
    assert _named_lines(fn, {"_ladder"}), f"{name} does not call _ladder"
    branches = [node.lineno for node in ast.walk(fn) if isinstance(node, ast.If)
                and any(isinstance(n, ast.Name) and n.id == "p" for n in ast.walk(node.test))]
    assert branches == [], f"{name}: branch on the degree at lines {branches}"


LADDERS_REPLACED = {"_kernel_ladder", "_quillen_Z_lattice", "lower_step"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_second_ladder_builder_or_step(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    lines = _named_lines(tree, LADDERS_REPLACED) + [
        node.lineno for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name in LADDERS_REPLACED]
    assert lines == [], f"{path.name}: a second ladder builder or step at lines {sorted(lines)}"


TEST_ONLY = {"initial_covectors", "pair_chain", "tilde_a", "epsilon"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_test_only_pairing_or_initial_covectors(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    lines = _named_lines(tree, TEST_ONLY) + [
        node.lineno for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name in TEST_ONLY]
    assert lines == [], f"{path.name}: test-only helper at lines {sorted(lines)}"


def test_heaviside_supports_are_not_cached():
    lines = _named_lines(_function("filtrations.py", "heaviside_pairing"), {"memo"})
    assert lines == [], f"heaviside_pairing: memo named at lines {lines}"


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


def test_cli_knows_its_targets_in_one_table():
    # the verify targets, their degrees and their options live in `cli.TARGETS`;
    # `describe` reports the integer lower ranks only, so no mod-2 reduction
    path = PACKAGE / "cli.py"
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    lines = _named_lines(tree, {"VERIFY_TARGETS", "DEGREE_TARGETS", "mod2"})
    assert lines == [], f"cli.py: second target list or mod-2 route at lines {lines}"


PAIRWISE_SCAN = {"compose", "le"}


@pytest.mark.parametrize("method", ["__init__", "boundary_masks", "_cofaces"])
def test_salvetti_cells_and_boundaries_never_compose_pairs(method):
    path = PACKAGE / "salvetti.py"
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    (cls,) = [node for node in tree.body
              if isinstance(node, ast.ClassDef) and node.name == "SalvettiComplex"]
    (fn,) = [node for node in cls.body
             if isinstance(node, ast.FunctionDef) and node.name == method]
    lines = _named_lines(fn, PAIRWISE_SCAN)
    assert lines == [], f"SalvettiComplex.{method}: compose or le named at lines {lines}"


@pytest.mark.parametrize("name", ["check_covector_axioms", "om_from_arrangement"])
def test_covector_compositions_come_from_one_closure(name):
    fn = _function("om.py", name)
    assert _named_lines(fn, {"compositions"}), f"{name} does not call om.compositions"
    loops = [node.lineno for node in ast.walk(fn) if isinstance(node, ast.While)]
    assert loops == [], f"{name}: while loop at lines {loops}"


def test_cordovil_dual_takes_no_integer_kernel():
    path = PACKAGE / "algebras.py"
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    lines = _named_lines(tree, {"int_kernel", "cordovil_relation_rows"}) + [
        node.lineno for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name == "cordovil_relation_rows"]
    assert lines == [], f"algebras.py: integer kernel or relation rows at lines {sorted(lines)}"


VERTEX_LOOKUPS = {"vertex_of_tope", "tope_vertex_chain"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_tope_to_vertex_lookup(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    lines = _named_lines(tree, VERTEX_LOOKUPS) + [
        node.lineno for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name in VERTEX_LOOKUPS]
    assert lines == [], f"{path.name}: tope-to-vertex lookup at lines {sorted(lines)}"


def test_projectivize_takes_one_hermite_form():
    # the one Hermite form is the antipodal ladder's step, which projectivize
    # reads its image off: it neither puts generators in Hermite form nor
    # pairs rows with the Heaviside supports itself
    fn = _function("algebras.py", "projectivize")
    lines = _named_lines(fn, {"heaviside_pairing", "kernel_within"}) + [
        node.lineno for node in ast.walk(fn)
        if isinstance(node, ast.Attribute) and node.attr == "from_generators"
        and isinstance(node.value, ast.Name) and node.value.id == "LatticeZ"]
    assert lines == [], f"projectivize: a Hermite form or pairing sum of its own at lines {lines}"
    assert _named_lines(fn, {"pairing_step"}), "projectivize does not call pairing_step"


def test_projectivize_pairs_the_antipodal_rows_directly():
    lines = _named_lines(_function("algebras.py", "projectivize"), {"tilde_a", "sf_vector"})
    assert lines == [], f"projectivize: tilde_a or sf_vector named at lines {lines}"


GENERAL_ALGEBRA = {"wedge_masks", "sf_mul", "sf_vector"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_general_wedge_or_square_free_product(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    lines = _named_lines(tree, GENERAL_ALGEBRA) + [
        node.lineno for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name in GENERAL_ALGEBRA]
    assert lines == [], f"{path.name}: general wedge or square-free helper at lines {sorted(lines)}"


LADDER_REPLACED = {"int_kernel_prefixes", "intersect"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_prefix_kernels_or_lattice_intersection(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    lines = _named_lines(tree, LADDER_REPLACED) + [
        node.lineno for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name in LADDER_REPLACED]
    assert lines == [], f"{path.name}: prefix kernel or lattice intersection at lines {sorted(lines)}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_module_imports_dataclasses(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree)
             if (isinstance(node, ast.Import)
                 and any(alias.name == "dataclasses" for alias in node.names))
             or (isinstance(node, ast.ImportFrom) and node.module == "dataclasses")]
    assert lines == [], f"{path.name}: dataclasses imported at lines {lines}"
