"""Tests for the three filtrations, their generators, and the induced maps."""

import random
from itertools import combinations, product

import pytest
from closed_forms import braid, moment_curve
from oracles import (
    affine_coordinate_chain,
    antipodal_image_by_sums,
    asymptotic_member,
    asymptotic_rows_by_tuples,
    cordovil_dual_by_kernel,
    cordovil_relation_rows_dense,
    epsilon,
    gf2_solver_by_scan,
    heaviside_eval,
    kalinin_K_by_projection,
    pair_chain,
    tilde_a,
    tilde_a_dense,
    tope_flag_set_by_sign_vectors,
    int_kernel_dense,
    int_rank,
    intersect,
    lattice_saturated,
    qbv_by_solver,
    quillen_Q_oracle,
    quillen_cosets_by_flag,
    quillen_Z_by_all_generators,
    quillen_Z_by_products,
    sf_vector,
    vg_lower_by_prefix,
    vg_lower_dense,
    vg_lower_mod2,
)
from test_cosheaf import b3

from topespace import filtrations
from topespace.algebras import (
    cordovil_dual,
    nbc_sets,
    projectivize,
    subset_index,
)
from topespace.cli import verify_checks
from topespace.cosheaf import fan_cones, stalk_matroid
from topespace.corpus import CORPUS, load, names
from topespace.filtrations import (
    asymptotic,
    brick,
    brick_certificate,
    chain_mod2,
    format_tope_mask,
    heaviside_pairing,
    kalinin_K,
    pairing_step,
    prefix_chain,
    qbv,
    quillen_Q,
    quillen_Z_demo,
    quillen_cosets,
    verify_theorem_A,
    verify_theorem_B,
    vg_lower,
    viro_bv,
    _antipodal_lower,
    _ladder_rows,
    _ladder_solver,
    _flag_cosets,
    _quillen_span,
)
from topespace.linalg import (
    GF2Solver,
    LatticeZ,
    SubspaceGF2,
    bits_of,
    lattice_equal,
    mask_from_bits,
    parity,
)
from topespace.om import (
    Arrangement,
    SignVector,
    enumerate_flags,
    make_flag,
    om_from_arrangement,
    om_from_covectors,
    parse_covector_lines,
    tope_flag_mask,
    tope_flag_set,
)
from topespace.salvetti import (
    FineComplex,
    SalvettiComplex,
    bz_cochain_eval,
    get_salvetti,
    homology_mod2,
)


def sv(s: str) -> SignVector:
    return SignVector.from_str(s)


def fresh(name: str):
    """A newly built matroid with an empty memo: a corpus member, b3, a4 (the
    braid arrangement, normals e_i - e_j in R^5), gen3_6 / gen4_6 (generic
    hyperplanes on the moment curve in R^3 / R^4), or gen4_6_cov (gen4_6
    read back from a covector file, its lines in reverse canonical order)."""
    if name in CORPUS:
        return om_from_arrangement(Arrangement(CORPUS[name].normals))
    if name == "b3":
        return b3()
    if name == "a4":
        return om_from_arrangement(braid(5))
    if name == "gen4_6_cov":
        lines = [v.to_str() for v in fresh("gen4_6").covectors]
        return om_from_covectors(parse_covector_lines("\n".join(reversed(lines))))
    d, n = {"gen3_6": (3, 6), "gen4_6": (4, 6)}[name]
    return om_from_arrangement(moment_curve(d, n))


def quillen_Z_lattice(m, p: int) -> LatticeZ:
    """The lattice of `quillen_Z_demo` in tope coordinates, off its ladder."""
    quillen_Z_demo(m, p)
    return m.memo("quillen_Z", list)[p]


def chain_by_str(m, chain) -> dict:
    return {t.to_str(): c for t, c in zip(m.topes, chain) if c}


def u23_flag(m):
    return make_flag(m, [0b001])


# -- Heaviside evaluation ---------------------------------------------------


def test_heaviside_eval_goldens():
    m = load("u23")
    flag = u23_flag(m)
    a = sv("+++")
    single = [0] * len(m.topes)
    single[m.tope_index[a]] = 1
    assert heaviside_eval(m, (0,), single) == 1
    g1 = prefix_chain(m, flag, a, 1)
    assert heaviside_eval(m, (), g1) == 0
    g2 = prefix_chain(m, flag, a, 2)
    assert heaviside_eval(m, (0, 1), g2) == 1


def test_functions_on_topes_have_degree_at_most_rank():
    # the evaluation matrix of all monomials of degree <= rank separates topes
    for name in names():
        m = load(name)
        rows = []
        for q in range(m.rank + 1):
            for s in combinations(range(m.n), q):
                smask = mask_from_bits(s)
                rows.append([1 if smask & ~t.plus == 0 else 0 for t in m.topes])
        assert int_rank(rows) == len(m.topes)


# -- the lower filtration ---------------------------------------------------


def test_vg_lower_dimension_goldens():
    m = load("u23")
    assert [vg_lower(m, p).rank for p in range(4)] == [6, 5, 2, 0]
    m1 = load("u11")
    assert [vg_lower(m1, p).rank for p in range(3)] == [2, 1, 0]


def test_vg_lower_degree_one_is_augmentation_kernel():
    for name in names():
        m = load(name)
        lat = vg_lower(m, 1)
        assert lat.rank == len(m.topes) - 1
        for row in lat.basis:
            assert sum(row) == 0


def test_vg_lower_saturated_and_vanishing_beyond_rank():
    for name in names():
        m = load(name)
        for p in range(m.rank + 2):
            assert lattice_saturated(vg_lower(m, p))
        assert vg_lower(m, m.rank + 1).rank == 0
        zero = LatticeZ.zero(len(m.topes))
        assert vg_lower(m, m.rank + 2) == asymptotic(m, m.rank + 2) == zero


def test_verify_proj_builds_the_lower_ladder_to_the_rank_only(monkeypatch):
    # proj needs degrees 0..rank: the vg_lower ladder asked for degree rank
    # cuts by the Heaviside equations of the degrees below the rank only;
    # the antipodal ladder cuts once per degree 0..rank, each cut the step
    # whose image projectivize reads, so it reaches degree rank + 1
    m = fresh("b3")
    cuts = []
    real = filtrations.kernel_within

    def spy(basis, supports, ncols):
        cuts.append(next(q for q in range(m.rank + 2) if supports == heaviside_pairing(m, q)))
        return real(basis, supports, ncols)

    monkeypatch.setattr(filtrations, "kernel_within", spy)
    verify_checks(m, "proj", "b3")
    assert cuts == list(range(m.rank + 1))
    vg_lower(m, m.rank)
    assert cuts == list(range(m.rank + 1)) + list(range(m.rank))
    assert len(m.memo("vg_ladder", list)) == m.rank + 1
    assert len(m.memo("antipodal_lower", list)) == m.rank + 2


def test_vg_lower_gf2_matches_integer_reduction():
    for name in names():
        m = load(name)
        for p in range(m.rank + 2):
            assert vg_lower_mod2(m, p) == vg_lower(m, p).mod2()


# -- prefix chains and affine coordinate chains -----------------------------


def test_prefix_chain_goldens():
    m = load("u23")
    flag = u23_flag(m)
    a, e = sv("+++"), sv("+--")
    assert chain_by_str(m, prefix_chain(m, flag, a, 0)) == {"+++": 1}
    assert chain_by_str(m, prefix_chain(m, flag, a, 1)) == {"+++": 1, "-++": -1}
    assert chain_by_str(m, prefix_chain(m, flag, a, 2)) == {
        "+++": 1, "-++": -1, "---": 1, "+--": -1,
    }
    # changing the origin to the far end flips the whole sign
    assert chain_by_str(m, prefix_chain(m, flag, e, 2)) == {
        "+++": -1, "-++": 1, "---": -1, "+--": 1,
    }


def test_affine_coordinate_chain_goldens():
    m = load("u23")
    flag = u23_flag(m)
    a = sv("+++")
    assert chain_by_str(m, affine_coordinate_chain(m, flag, a, [2])) == {
        "+++": 1, "+--": -1,
    }
    assert affine_coordinate_chain(m, flag, a, [1, 2]) == prefix_chain(m, flag, a, 2)
    with pytest.raises(ValueError):
        affine_coordinate_chain(m, flag, sv("--+"), [1])
    with pytest.raises(ValueError):
        affine_coordinate_chain(m, flag, a, [3])


def test_affine_coordinate_chains_lie_in_lower_filtration():
    for name in ("u22", "u23", "u34"):
        m = load(name)
        lats = {p: vg_lower(m, p) for p in range(m.rank + 1)}
        for flag in enumerate_flags(m):
            for v in tope_flag_set(m, flag):
                for p in range(m.rank + 1):
                    for s in combinations(range(1, m.rank + 1), p):
                        chain = affine_coordinate_chain(m, flag, v, s)
                        assert lats[p].contains(list(chain))


def test_prefix_chains_span_lower_filtration():
    for name in names():
        m = load(name)
        for p in range(m.rank + 1):
            assert lattice_equal(vg_lower_by_prefix(m, p), vg_lower(m, p))


# -- the group-algebra filtration -------------------------------------------


def test_quillen_dimension_goldens():
    m = load("u23")
    assert [quillen_Q(m, p).dim for p in range(4)] == [6, 5, 2, 0]
    m2 = load("u22")
    assert [quillen_Q(m2, p).dim for p in range(4)] == [4, 3, 1, 0]
    assert quillen_Q(m, 0).dim == len(m.topes)


def test_quillen_matches_exhaustive_oracle():
    for name in ("u11", "u22", "u23", "u34"):
        m = load(name)
        for p in range(m.rank + 2):
            assert quillen_Q(m, p) == quillen_Q_oracle(m, p)


@pytest.mark.parametrize("name", [*CORPUS, "gen3_6", "b3", "gen4_6"])
def test_quillen_cosets_match_the_per_flag_oracle(name, monkeypatch):
    """The same (tope mask, wedge) list, order included, in every degree,
    against the signed wedge of the oracle, with one transversal wedge per
    distinct set of block directions."""
    m = fresh(name)
    calls = []

    def counted(*blocks):
        calls.append(tuple(map(mask_from_bits, blocks)))
        return product(*blocks)

    monkeypatch.setattr(filtrations, "product", counted)
    for p in range(m.rank + 2):
        calls.clear()
        assert quillen_cosets(m, p) == quillen_cosets_by_flag(m, p), p
        distinct = {tuple(sorted(flag.blocks()[i - 1] for i in s)) for flag in enumerate_flags(m)
                    for s in combinations(range(1, m.rank + 1), p)}
        assert sorted(calls) == sorted(distinct), p


def test_one_origin_per_flag_generates_too_little_on_u22():
    # restricting each flag to a single origin loses cosets: the first-degree
    # piece has dimension 3 but origin-anchored chains only span 2
    m = load("u22")
    gens = []
    for flag in enumerate_flags(m):
        blocks = flag.blocks()
        v = tope_flag_set(m, flag)[0]
        for i in range(1, m.rank + 1):
            gens.append(chain_mod2(affine_coordinate_chain(m, flag, v, [i])))
    anchored = SubspaceGF2.from_generators(len(m.topes), gens)
    assert anchored.dim == 2
    assert quillen_Q(m, 1).dim == 3
    assert quillen_Q(m, 1).contains_subspace(anchored)


def test_quillen_dimension_steps_are_betti_numbers():
    for name in names():
        m = load(name)
        betti = CORPUS[name].betti
        dims = [quillen_Q(m, p).dim for p in range(m.rank + 2)]
        steps = [a - b for a, b in zip(dims, dims[1:])]
        assert steps == list(betti)
        assert dims[0] == len(m.topes)
        assert dims[-1] == 0


# -- the wedge-coordinate map -----------------------------------------------


def test_qbv_prefix_chain_goldens():
    m = load("u23")
    flag = u23_flag(m)
    a = sv("+++")
    idx1 = subset_index(m.n, 1)
    g1 = chain_mod2(prefix_chain(m, flag, a, 1))
    assert qbv(m, g1, 1) == 1 << idx1[(0,)]
    idx2 = subset_index(m.n, 2)
    g2 = chain_mod2(prefix_chain(m, flag, a, 2))
    assert qbv(m, g2, 2) == (1 << idx2[(0, 1)]) | (1 << idx2[(0, 2)])


def test_qbv_rejects_chains_outside_the_piece():
    m = load("u23")
    with pytest.raises(ValueError):
        qbv(m, 1, 1)  # a single tope has nonzero augmentation


def test_qbv_is_decomposition_independent():
    # no combination of generators cancels the tope bits but not the wedge:
    # every reduced row of the span with wedges has its pivot at a tope
    for name in ("u22", "u23", "u34", "a3"):
        m = load(name)
        nt = len(m.topes)
        for p in range(m.rank + 2):
            for row in _quillen_span(m, p).rows:
                assert (row & -row).bit_length() <= nt, (name, p)


@pytest.mark.parametrize("name", [*names(), "gen3_6", "gen4_6_cov", "b3", "a4"])
def test_qbv_matches_the_solver_oracle(name):
    m, oracle = fresh(name), fresh(name)
    rng = random.Random(name)
    nt = len(m.topes)
    for p in range(m.rank + 1):
        gens = [c for _, cosets in _flag_cosets(m, [tuple(range(1, p + 1))]) for c in cosets]
        for gamma in gens + list(quillen_Q(m, p).rows):
            assert qbv(m, gamma, p) == qbv_by_solver(oracle, gamma, p), (p, gamma)
        for gamma in (rng.getrandbits(nt) for _ in range(10)):
            try:
                want = qbv_by_solver(oracle, gamma, p)
            except ValueError:
                with pytest.raises(ValueError):
                    qbv(m, gamma, p)
            else:
                assert qbv(m, gamma, p) == want, (p, gamma)


def test_a_wrong_wedge_on_one_coset_raises(monkeypatch):
    m = fresh("a3")
    cosets = quillen_cosets(m, 1)
    # a coset in the span of the others, so its wedge is forced by theirs
    j = next(j for j, (c, _) in enumerate(cosets) if SubspaceGF2.from_generators(
        len(m.topes), [d for k, (d, _) in enumerate(cosets) if k != j]).contains(c))
    planted = list(cosets)
    planted[j] = (cosets[j][0], cosets[j][1] ^ 1)
    monkeypatch.setattr(filtrations, "quillen_cosets", lambda m, p: planted)
    with pytest.raises(RuntimeError, match="wedge is not a function of the chain"):
        _quillen_span(m, 1)
    with pytest.raises(RuntimeError):
        qbv(m, planted[0][0], 1)


def test_qbv_vanishes_exactly_on_the_next_piece():
    for name in ("u22", "u23"):
        m = load(name)
        for p in range(m.rank + 1):
            nxt = quillen_Q(m, p + 1)
            for b in quillen_Q(m, p).rows:
                assert (qbv(m, b, p) == 0) == nxt.contains(b)


# -- the integral group-algebra demo ----------------------------------------


def test_integral_products_do_not_stabilize_on_u22():
    m = load("u22")
    assert quillen_Z_demo(m, 1) == 3
    assert quillen_Z_demo(m, 2) == 3
    assert quillen_Z_demo(m, 3) == 3


@pytest.mark.parametrize("name, top", [
    ("u11", None), ("u22", None), ("u23", None), ("u34", None), ("a3", None),
    ("gen3_6", None), ("gen4_6", 3),
])
def test_quillen_Z_recurrence_matches_products_oracle(name, top):
    # the ladder from the flag topes in degree 0, against every product, in
    # degrees 0..rank + 2 (gen4_6, whose products oracle takes seconds per
    # degree from 4 on, stops at 3: the sparse-kernel test goes further)
    m = fresh(name)
    for p in range((top or m.rank + 2) + 1):
        lattice = quillen_Z_lattice(m, p)
        assert lattice == quillen_Z_by_products(m, p), p
        assert quillen_Z_demo(m, p) == lattice.rank


def test_quillen_Z_rejects_negative_degree():
    with pytest.raises(ValueError):
        quillen_Z_demo(load("u22"), -1)


def test_quillen_Z_multiplies_a_basis_by_each_generator(monkeypatch):
    # gen4_6: 16 flag topes, the group of r = 4 block generators, and a
    # rank-15 span per degree; degree 1 takes the 16 flag topes times each
    # generator, every later degree 15 basis rows times each; enumerating
    # every multiset of 5 of the 15 augmentation elements would pass 11,628
    m = fresh("gen4_6")
    counts = []
    original = LatticeZ.from_generators.__func__

    def counted(cls, ambient_dim, gens):
        gens = list(gens)
        counts.append(len(gens))
        return original(cls, ambient_dim, gens)

    monkeypatch.setattr(LatticeZ, "from_generators", classmethod(counted))
    assert quillen_Z_demo(m, 5) == 15
    assert len(counts) == 5 and max(counts) <= 16 * 4
    assert counts == [16 * 4] + [15 * 4] * 4
    assert [quillen_Z_demo(m, p) for p in range(1, 6)] == [15] * 5
    assert len(counts) == 5


def test_quillen_Z_rejects_a_flag_tope_set_of_other_than_2_to_the_r(monkeypatch):
    m = fresh("gen4_6")
    real = filtrations.tope_flag_mask
    monkeypatch.setattr(filtrations, "tope_flag_mask", lambda m, flag: real(m, flag) & real(m, flag) - 1)
    with pytest.raises(RuntimeError, match="15 topes, not 2\\^4"):
        quillen_Z_demo(m, 1)


# -- the chain-level filtration ---------------------------------------------


def test_kalinin_dimension_goldens():
    m = load("u23")
    assert [kalinin_K(m, p).dim for p in range(4)] == [6, 5, 2, 0]
    assert kalinin_K(m, 0).dim == len(m.topes)


def test_kalinin_steps_are_homology_dimensions():
    for name in ("u11", "u22", "u23", "u34"):
        m = load(name)
        hom = homology_mod2(get_salvetti(m))
        dims = [kalinin_K(m, p).dim for p in range(m.rank + 2)]
        steps = [a - b for a, b in zip(dims, dims[1:])]
        assert steps == hom.dims()


@pytest.mark.parametrize("name", [*names(), "gen3_6", "b3", "gen4_6", "gen4_6_cov", "a4"])
def test_kalinin_projection_matches_kernel_oracle(name):
    # separate matroids, so neither path reads what the other cached
    m, oracle = fresh(name), fresh(name)
    for p in range(m.rank + 2):
        assert kalinin_K(m, p) == kalinin_K_by_projection(oracle, p), p


def test_kalinin_piece_reads_vertex_i_as_tope_i(monkeypatch):
    # with 0-cells 0 and 1 swapped, the oracle still finds each tope's vertex
    # through the cell index, but kalinin_K takes vertex i for tope i
    init = SalvettiComplex.__init__

    def swapped(self, m):
        init(self, m)
        cells = self.cells[0]
        cells[0], cells[1] = cells[1], cells[0]
        self.index[0] = {key: i for i, key in enumerate(cells)}

    monkeypatch.setattr(SalvettiComplex, "__init__", swapped)
    m, oracle = fresh("u23"), fresh("u23")
    assert any(kalinin_K(m, p) != kalinin_K_by_projection(oracle, p)
               for p in range(m.rank + 2))


def test_kalinin_piece_is_zero_above_the_top_degree():
    m = load("u22")
    zero = SubspaceGF2.zero(len(m.topes))
    for p in (m.rank + 1, m.rank + 2, 7):
        assert kalinin_K(m, p) == quillen_Q(m, p) == vg_lower_mod2(m, p) == zero


def _solvers_built(monkeypatch) -> list:
    """A list that records every GF2Solver `filtrations` builds from now on."""
    built = []

    def counted(rows, ncols):
        solver = GF2Solver(rows, ncols)
        built.append(solver)
        return solver

    monkeypatch.setattr(filtrations, "GF2Solver", counted)
    return built


def test_theorem_B_reuses_the_ladder_factorizations_of_theorem_A(monkeypatch):
    m = fresh("a3")
    built = _solvers_built(monkeypatch)
    assert verify_theorem_A(m).ok
    built.clear()
    # every ladder solver came from thmA, and qbv reduces by the Quillen spans
    assert verify_theorem_B(m).ok
    assert built == []


def test_ladder_is_factored_once_and_each_degree_is_a_prefix(monkeypatch):
    m = fresh("a3")
    built = _solvers_built(monkeypatch)
    assert verify_theorem_A(m).ok
    assert len(built) == 1
    monkeypatch.undo()
    rng = random.Random(43)
    for name in ("u23", "u34", "a3", "b3"):
        m = fresh(name)
        rows, row_off, col_off = _ladder_rows(m)
        for p in range(1, m.rank + 2):
            nrows, ncols = row_off[p + 1], col_off[p]
            solver, offsets = _ladder_solver(m, p)
            # the degree-p unknowns are the last ncols columns
            lead = [row >> (col_off[-1] - ncols) for row in rows[:nrows]]
            own = GF2Solver(lead, ncols)
            assert offsets == col_off[:p + 1]
            assert solver.free_cols == own.free_cols, (name, p)
            assert (SubspaceGF2.from_generators(nrows, solver.zero_combos)
                    == SubspaceGF2.from_generators(nrows, own.zero_combos)), (name, p)
            for _ in range(20):
                x = rng.getrandbits(ncols)
                consistent = mask_from_bits(i for i in range(nrows) if parity(lead[i] & x))
                for b in (consistent, rng.getrandbits(nrows), rng.getrandbits(row_off[2])):
                    # the solution with free unknowns zero is unique
                    assert solver.solve(b) == own.solve(b), (name, p)


@pytest.mark.parametrize("name", ["u34", "a3", "gen4_6"])
def test_ladder_factorization_matches_the_scanning_elimination(name):
    rows, _, col_off = _ladder_rows(fresh(name))
    solver = GF2Solver(rows, col_off[-1])
    assert (solver.pivot_rows, solver.zero_combos) == gf2_solver_by_scan(rows)


@pytest.mark.parametrize("name", ["u23", "u34", "a3"])
def test_kalinin_piece_is_solvability_of_the_ladder(name):
    m = load(name)
    rng = random.Random(41)
    nt = len(m.topes)
    for p in range(1, m.rank + 2):
        piece = kalinin_K(m, p)
        solver, _ = _ladder_solver(m, p)
        chains = list(piece.rows) + [rng.getrandbits(nt) for _ in range(30)]
        for gamma in chains:
            solvable = solver.solve(gamma) is not None
            assert piece.contains(gamma) == solvable


def test_membership_example_and_certificate():
    m = load("u23")
    a, b = sv("+++"), sv("-++")
    mask = (1 << m.tope_index[a]) | (1 << m.tope_index[b])
    assert kalinin_K(m, 1).contains(mask)
    rep, cert = viro_bv(m, mask, 1)
    assert cert.verify(m)
    assert cert.p == 1
    sal = get_salvetti(m)
    alpha = sv("0++")
    expected = sal.cell_bit(alpha, a)[1] | sal.cell_bit(alpha, b)[1]
    assert homology_mod2(sal).class_of(1, expected) == rep


def test_viro_value_goldens():
    m = load("u23")
    sal = get_salvetti(m)
    hom = homology_mod2(sal)
    a, b, d, e = sv("+++"), sv("-++"), sv("---"), sv("+--")
    mask4 = mask_from_bits(m.tope_index[t] for t in (a, b, d, e))
    rep1, cert1 = viro_bv(m, mask4, 1)
    alpha, delta = sv("0++"), sv("0--")
    want1 = (sal.cell_bit(alpha, a)[1] | sal.cell_bit(alpha, b)[1]
             | sal.cell_bit(delta, d)[1] | sal.cell_bit(delta, e)[1])
    assert hom.class_of(1, want1) == rep1
    rep2, cert2 = viro_bv(m, mask4, 2)
    assert cert2.verify(m)
    zero = SignVector.zero(m.n)
    want2 = 0
    for t in (a, b, d, e):
        want2 |= sal.cell_bit(zero, t)[1]
    assert hom.class_of(2, want2) == rep2


def test_viro_rejects_chains_outside_the_piece():
    m = load("u23")
    with pytest.raises(ValueError):
        viro_bv(m, 1, 1)  # a single vertex is not a boundary
    # A + C is in degree 1 but not in degree 2
    a, c = sv("+++"), sv("--+")
    mask = (1 << m.tope_index[a]) | (1 << m.tope_index[c])
    viro_bv(m, mask, 1)
    with pytest.raises(ValueError):
        viro_bv(m, mask, 2)


@pytest.mark.parametrize("p", [-1, 3, 7])
def test_viro_rejects_degrees_outside_the_complex(p):
    m = load("u22")
    with pytest.raises(ValueError, match="outside 0..2"):
        viro_bv(m, 0, p)


def test_viro_degree_zero_is_vertex_inclusion():
    m = load("u23")
    hom = homology_mod2(get_salvetti(m))
    single = 1 << m.tope_index[sv("+++")]
    rep, cert = viro_bv(m, single, 0)
    assert cert.betas == ()
    assert rep == hom.class_of(0, single)


def test_viro_value_is_choice_independent():
    m = load("u23")
    flag = u23_flag(m)
    data = [(v, p) for v in tope_flag_set(m, flag) for p in (1, 2)]
    baseline = {}
    for v, p in data:
        mask = chain_mod2(prefix_chain(m, flag, v, p))
        baseline[(v, p)] = viro_bv(m, mask, p)[0]
    for seed in range(20):
        rng = random.Random(seed)
        for v, p in data:
            mask = chain_mod2(prefix_chain(m, flag, v, p))
            rep, cert = viro_bv(m, mask, p, rng)
            assert rep == baseline[(v, p)]
            assert cert.verify(m)


def test_conjugation_fixes_every_mod2_homology_class():
    for name in names():
        m = load(name)
        sal = get_salvetti(m)
        hom = homology_mod2(sal)
        for d in range(sal.dim + 1):
            rows = [0] * max(sal.n_cells(d - 1), 1) if d else []
            if d:
                masks = sal.boundary_masks(d)
                for j in range(sal.n_cells(d)):
                    for r in bits_of(masks[j]):
                        rows[r] |= 1 << j
                cycles = GF2Solver(rows, sal.n_cells(d)).kernel_basis()
            else:
                cycles = [1 << i for i in range(sal.n_cells(0))]
            for z in cycles:
                assert hom.class_of(d, z) == hom.class_of(d, sal.conj_chain(d, z))


# -- bricks -----------------------------------------------------------------


def test_brick_goldens():
    m = load("u23")
    flag = u23_flag(m)
    sal = get_salvetti(m)
    a, b, d, e = sv("+++"), sv("-++"), sv("---"), sv("+--")
    alpha = sv("0++")
    z1 = brick(m, flag, a, 1)
    coeffs = {}
    for i, c in enumerate(z1):
        if c:
            l, t = sal.cells[1][i]
            coeffs[(l.to_str(), t.to_str())] = c
    assert coeffs == {("0++", "+++"): 1, ("0++", "-++"): -1}
    z2 = brick(m, flag, a, 2)
    coeffs2 = {}
    for i, c in enumerate(z2):
        if c:
            l, t = sal.cells[2][i]
            coeffs2[(l.to_str(), t.to_str())] = c
    assert coeffs2 == {
        ("000", "+++"): 1, ("000", "-++"): -1,
        ("000", "---"): 1, ("000", "+--"): -1,
    }
    mask1 = chain_mod2(brick(m, flag, a, 1))
    assert mask1 == sal.cell_bit(alpha, a)[1] | sal.cell_bit(alpha, b)[1]


def test_brick_certificate_ladder_holds_everywhere():
    for name in names():
        m = load(name)
        sal = get_salvetti(m)
        for flag in enumerate_flags(m):
            for v in tope_flag_set(m, flag):
                for p in range(1, m.rank + 1):
                    cert = brick_certificate(m, flag, v, p)
                    assert cert.gamma == chain_mod2(prefix_chain(m, flag, v, p))
                    assert cert.verify(m)
                    top = cert.betas[-1]
                    symm = top ^ sal.conj_chain(p, top)
                    assert symm == chain_mod2(brick(m, flag, v, p))


def test_brick_represents_the_viro_value():
    for name in ("u22", "u23", "u34"):
        m = load(name)
        hom = homology_mod2(get_salvetti(m))
        for flag in enumerate_flags(m):
            for v in tope_flag_set(m, flag):
                for p in range(1, m.rank + 1):
                    mask = chain_mod2(prefix_chain(m, flag, v, p))
                    rep, _ = viro_bv(m, mask, p)
                    assert hom.class_of(p, chain_mod2(brick(m, flag, v, p))) == rep


# -- the pairing map --------------------------------------------------------


def test_tilde_a_sends_prefix_chains_to_epsilon():
    for name in names():
        m = load(name)
        for flag in enumerate_flags(m):
            for v in tope_flag_set(m, flag):
                for p in range(m.rank + 1):
                    got = tilde_a(m, prefix_chain(m, flag, v, p), p)
                    assert got == epsilon(m, flag, v, p)


def test_tilde_a_image_and_kernel():
    for name in names():
        m = load(name)
        for p in range(m.rank + 1):
            lat = vg_lower(m, p)
            dim = len(subset_index(m.n, p))
            image = LatticeZ.from_generators(
                dim, [sf_vector(tilde_a(m, list(row), p), m.n, p) for row in lat.basis]
            )
            assert lattice_equal(image, cordovil_dual(m, p))
            # membership of the next piece in the kernel, plus rank arithmetic
            for row in vg_lower(m, p + 1).basis:
                assert tilde_a(m, list(row), p) == {}
            assert vg_lower(m, p + 1).rank == lat.rank - cordovil_dual(m, p).rank


@pytest.mark.parametrize("name", ["u34", "a3"])
def test_pairing_matches_heaviside_sums(name):
    m = load(name)
    rng = random.Random(59)
    chains = [[rng.randint(-2, 2) for _ in m.topes] for _ in range(10)]
    for p in range(m.rank + 2):
        pairing = heaviside_pairing(m, p)
        subsets = list(combinations(range(m.n), p))
        assert len(pairing) == len(subsets)
        for s, topes in zip(subsets, pairing):
            smask = mask_from_bits(s)
            assert topes == tuple(i for i, t in enumerate(m.topes) if smask & ~t.plus == 0)
        for gamma in chains:
            assert pair_chain(m, gamma, p) == [heaviside_eval(m, s, gamma) for s in subsets]
        for row in vg_lower(m, p).basis:
            assert tilde_a(m, row, p) == tilde_a_dense(m, row, p)


def test_tilde_a_rejects_nonmembers():
    m = load("u23")
    single = [0] * len(m.topes)
    single[0] = 1
    with pytest.raises(ValueError):
        tilde_a(m, single, 1)


# -- the asymptotic filtration ----------------------------------------------


@pytest.mark.parametrize("name", ["u34", "a3"])
def test_kernel_lattices_are_already_canonical(name):
    # vg_lower, asymptotic and cordovil_dual keep the HNF basis of int_kernel
    # as it is, without a second Hermite form
    m = load(name)
    for p in range(m.rank + 2):
        for lat in (vg_lower(m, p), asymptotic(m, p), cordovil_dual(m, p)):
            assert lat == LatticeZ.from_generators(lat.ambient_dim, lat.basis)


@pytest.mark.parametrize("name", ["u34", "a3", "gen3_6", "gen4_6"])
def test_asymptotic_rows_match_the_tuple_oracle(name, monkeypatch):
    # each degree cuts the one below by its new equations only: those of
    # degrees <= p are the oracle's rows, no support comes twice, and past
    # the first zero piece no equation is built
    m = fresh(name)
    added = []
    real = filtrations.kernel_within
    monkeypatch.setattr(filtrations, "kernel_within",
                        lambda basis, supports, ncols: added.append(supports) or real(basis, supports, ncols))
    for p in range(1, m.rank + 2):
        asymptotic(m, p)
        assert len(added) == p
        rows = [s for new in added for s in new]
        assert len(set(rows)) == len(rows), p
        supports = [tuple(i for i, x in enumerate(row) if x) for row in asymptotic_rows_by_tuples(m, p)]
        assert sorted(rows) == sorted(supports), p
    assert asymptotic(m, m.rank + 2).rank == 0 and len(added) == m.rank + 1


def test_asymptotic_degree_is_rebuilt_after_a_failed_cut(monkeypatch):
    # a cut that raises leaves the ladder and its supports as they were
    m = fresh("a3")
    real = filtrations.kernel_within

    def failing(basis, supports, ncols):
        raise RuntimeError("planted")

    asymptotic(m, 2)
    monkeypatch.setattr(filtrations, "kernel_within", failing)
    with pytest.raises(RuntimeError, match="planted"):
        asymptotic(m, 3)
    monkeypatch.setattr(filtrations, "kernel_within", real)
    rows = asymptotic_rows_by_tuples(m, 3)
    assert asymptotic(m, 3) == int_kernel_dense(rows, len(m.topes))


@pytest.mark.parametrize("name", ["a3", "b3", "gen4_6"])
def test_asymptotic_releases_its_supports_at_the_zero_degree(name):
    # no degree past the first zero piece cuts anything, so the supports met
    # so far are dropped once the ladder reaches it; every degree stays the
    # same lattice, the dense oracle's
    m = fresh(name)
    nt = len(m.topes)
    below = [asymptotic(m, p) for p in range(m.rank + 1)]
    assert below[-1].rank and m.memo("asymptotic_supports", dict)
    assert asymptotic(m, m.rank + 2).rank == 0
    assert m.memo("asymptotic_supports", dict) == {}
    lattices = [asymptotic(m, p) for p in range(m.rank + 3)]
    assert lattices[:m.rank + 1] == below
    assert lattices == [int_kernel_dense(asymptotic_rows_by_tuples(m, p), nt) for p in range(m.rank + 3)]


@pytest.mark.parametrize("name", [*names(), "gen3_6", "b3", "gen4_6", "gen4_6_cov"])
def test_sparse_kernels_match_the_dense_path(name):
    # every ladder against its oracle in degrees 0..rank + 2: vg_lower and
    # asymptotic against dense kernels, the antipodal piece against the
    # intersection of the two lattices, the Quillen span against products
    # and against the recurrence over every generator; and cordovil_dual
    # against the kernel of its dense relation rows
    m = fresh(name)
    nt = len(m.topes)
    theta = antipodal_lattice(m)
    for p in range(m.rank + 3):
        assert vg_lower(m, p) == vg_lower_dense(m, p), p
        assert asymptotic(m, p) == int_kernel_dense(asymptotic_rows_by_tuples(m, p), nt), p
        assert _antipodal_lower(m, p) == intersect(theta, vg_lower_dense(m, p)), p
        if p:
            lattice = quillen_Z_lattice(m, p)
            assert lattice == quillen_Z_by_products(m, p) == quillen_Z_by_all_generators(m, p), p
        dim = len(subset_index(m.n, p))
        assert cordovil_dual(m, p) == int_kernel_dense(cordovil_relation_rows_dense(m, p), dim), p


@pytest.mark.parametrize("name", names() + ["gen3_6", "b3", "gen4_6"])
def test_cordovil_dual_matches_the_kernel_oracle_on_every_stalk(name):
    # the nbc dual basis against the kernel of the circuit relations, on
    # every distinct stalk of the fan and one degree past the rank
    m = fresh(name)
    stalks = {id(s): s for s in (stalk_matroid(m, cone.flag) for cone in fan_cones(m))}
    for mf in stalks.values():
        for p in range(mf.rank + 2):
            assert cordovil_dual(mf, p) == cordovil_dual_by_kernel(mf, p), p


def _flag_tope_set_mismatches(m):
    """The complete and proper flags whose tope set, order included, differs
    from the oracle's."""
    return [flag for flag in enumerate_flags(m) + enumerate_flags(m, complete=False)
            if tope_flag_set(m, flag) != tope_flag_set_by_sign_vectors(m, flag)]


@pytest.mark.parametrize("name", [*CORPUS, "gen3_6", "b3", "gen4_6"])
def test_flag_tope_sets_match_sign_vector_probes(name):
    assert _flag_tope_set_mismatches(fresh(name)) == []


def test_flag_tope_set_comparison_catches_a_dropped_flat_tope(monkeypatch):
    # drop one tope from one cached flat mask: exactly the flags through that
    # flat whose tope set held the tope must disagree with the oracle
    m = fresh("gen4_6")
    flag = enumerate_flags(m)[0]
    flat, tope = flag.flats[2], bits_of(tope_flag_mask(m, flag))[0]
    masks = m.memo("flat_tope_masks", dict)
    monkeypatch.setitem(masks, flat, masks[flat] & ~(1 << tope))
    want = [f for f in enumerate_flags(m) + enumerate_flags(m, complete=False)
            if flat in f.flats and m.topes[tope] in tope_flag_set_by_sign_vectors(m, f)]
    assert flag in want
    assert _flag_tope_set_mismatches(m) == want


def test_flag_tope_sets_take_one_probe_per_flat_and_tope():
    m = fresh("gen4_6")
    probes = []

    class CountingCodes(frozenset):
        def __contains__(self, code):
            probes.append(code)
            return frozenset.__contains__(self, code)

    codes = m.memo("covector_codes", lambda: CountingCodes(
        v.plus | v.minus << m.n for v in m.covectors))
    assert isinstance(codes, CountingCodes)
    for flag in enumerate_flags(m) + enumerate_flags(m, complete=False):
        tope_flag_set(m, flag)
    assert len(probes) == len(m.flats) * len(m.topes) == 43 * 52


def test_asymptotic_membership_goldens():
    m = load("u23")
    flag = u23_flag(m)
    a = sv("+++")
    single = [0] * len(m.topes)
    single[m.tope_index[a]] = 1
    assert not asymptotic_member(m, single, 1)
    assert asymptotic_member(m, prefix_chain(m, flag, a, 1), 1)


def test_asymptotic_equals_lower_filtration_on_corpus():
    # every corpus member comes from a rational arrangement
    for name in names():
        m = load(name)
        for p in range(m.rank + 2):
            lat = asymptotic(m, p)
            assert lattice_equal(lat, vg_lower(m, p))
            for row in lat.basis:
                assert asymptotic_member(m, list(row), p)


# -- projectivization -------------------------------------------------------


def antipodal_lattice(m) -> LatticeZ:
    """The span of e_i - e_j over each tope i and its negation j."""
    nt = len(m.topes)
    return LatticeZ.from_generators(nt, [
        [int(k == i) - int(k == m.tope_index[t.negate()]) for k in range(nt)]
        for i, t in enumerate(m.topes)])


@pytest.mark.parametrize("name", [*names(), "gen3_6", "b3", "a4"])
def test_antipodal_lower_rows_lie_in_both_lattices(name):
    # projectivize pairs the rows of theta ∩ vg_lower(m, p) with no membership
    # check: each lies in both lattices, and its pairing is the checked one
    # (`pairing_step` sums each over the Heaviside supports)
    m = fresh(name)
    theta = antipodal_lattice(m)
    for p in range(m.rank + 1):
        lower = vg_lower(m, p)
        for row in _antipodal_lower(m, p).basis:
            assert theta.contains(list(row)) and lower.contains(list(row)), p
            assert pair_chain(m, row, p) == sf_vector(tilde_a(m, row, p), m.n, p), p


@pytest.mark.parametrize("name", ["u34", "a3", "b3", "gen3_6", "gen4_6", "a4"])
def test_pairing_step_image_matches_the_plain_sums(name):
    # the image read off the antipodal ladder's step, expanded to one
    # coordinate per p-subset, against the Hermite form of the plain per-row
    # sums, on a matroid whose ladder took no pairing step; the step keeps
    # its cut as the next degree, so the ladder reaches rank + 2
    m, m_oracle = fresh(name), fresh(name)
    for p in range(m.rank + 2):
        kernel, image = pairing_step(m, "antipodal_lower", _antipodal_lower(m, p), p)
        assert image == antipodal_image_by_sums(m_oracle, p), p
        assert kernel is _antipodal_lower(m, p + 1), p
    assert len(m.memo("antipodal_lower", list)) == m.rank + 3


def test_projectivize_goldens_u23():
    m = load("u23")
    r0 = projectivize(m, 0)
    assert r0.ok and r0.parity == "even" and r0.rank_b == 0
    r1 = projectivize(m, 1)
    assert r1.ok and r1.parity == "odd" and r1.dim_projective == 2
    r2 = projectivize(m, 2)
    assert r2.ok and r2.parity == "even"


def test_projectivize_passes_on_corpus():
    for name in names():
        m = load(name)
        for p in range(m.rank + 1):
            assert projectivize(m, p).ok, (name, p)


@pytest.mark.parametrize("name", [*names(), "gen3_6", "b3", "gen4_6_cov", "a4"])
def test_projectivize_writes_the_antipodal_and_doubled_hermite_forms(name, monkeypatch):
    # projectivize cuts the antipodal lattice, written down in Hermite form,
    # by the lower pieces' equations degree by degree, and tests the doubled
    # Cordovil lattice, also written down, last for membership: both must be
    # the Hermite forms of the generators they stand for, and the antipodal
    # piece of each degree its intersection with the lower piece
    m = fresh(name)
    seen = []
    contains = LatticeZ.contains_lattice
    monkeypatch.setattr(LatticeZ, "contains_lattice",
                        lambda self, other: seen.append(other) or contains(self, other))
    theta = antipodal_lattice(m)
    for p in range(m.rank + 1):
        seen.clear()
        assert projectivize(m, p).ok, p
        assert _antipodal_lower(m, p) == intersect(theta, vg_lower(m, p)), p
        expect = []
        if p % 2:  # seen[0] is the antipodal image, tested inside A
            a = cordovil_dual(m, p)
            expect.append(LatticeZ.from_generators(
                a.ambient_dim, [[2 * x for x in row] for row in a.basis]))
        assert seen[1:] == expect, p
    assert _antipodal_lower(m, 0) == theta


@pytest.mark.parametrize("name", ["u23", "a3"])
def test_origin_outside_the_flag_tope_set_is_rejected(name):
    m = load(name)
    flag = enumerate_flags(m)[0]
    inside = tope_flag_mask(m, flag)
    outside = next(t for i, t in enumerate(m.topes) if not inside >> i & 1)
    non_tope = SignVector.zero(m.n)
    for v in (outside, non_tope):
        for call in (lambda: prefix_chain(m, flag, v, 1), lambda: epsilon(m, flag, v, 1)):
            with pytest.raises(ValueError, match="origin tope is not in the tope set"):
                call()


# -- the filtration comparison ----------------------------------------------


def test_theorem_A_reports_on_corpus():
    expected = {
        "u11": [2, 1, 0],
        "u22": [4, 3, 1, 0],
        "u23": [6, 5, 2, 0],
        "u34": [14, 13, 9, 3, 0],
        "a3": [24, 23, 17, 6, 0],
    }
    for name in names():
        m = load(name)
        report = verify_theorem_A(m)
        assert report.ok, report.discrepancy
        assert [row["quillen"] for row in report.dims] == expected[name]


def test_theorem_A_compares_pieces_of_one_type():
    """Value types compare as their field tuples, whatever their class (a
    zero lattice equals a zero GF(2) subspace), so the equalities Theorem A
    tests must be between three `SubspaceGF2` values."""
    assert LatticeZ(3, ()) == SubspaceGF2(3, ())
    for name in ("u11", "u23", "a3"):
        m = load(name)
        for p in range(m.rank + 2):
            pieces = (quillen_Q(m, p), vg_lower(m, p).mod2(), kalinin_K(m, p))
            assert {type(x) for x in pieces} == {SubspaceGF2}, (name, p)


def test_filtration_inclusions_hold_degreewise():
    for name in ("u22", "u23", "u34"):
        m = load(name)
        for p in range(m.rank + 2):
            q = quillen_Q(m, p)
            vb = vg_lower(m, p).mod2()
            k = kalinin_K(m, p)
            assert vb.contains_subspace(q)
            assert k.contains_subspace(vb)


# -- the map comparison -----------------------------------------------------


def test_cochain_values_match_wedge_coordinates_u23_degree_one():
    m = load("u23")
    flag = u23_flag(m)
    a = sv("+++")
    mask = chain_mod2(prefix_chain(m, flag, a, 1))
    rep, _ = viro_bv(m, mask, 1)
    sal = get_salvetti(m)
    values = {s: bz_cochain_eval(sal, s, 1, rep) for s in nbc_sets(m, 1)}
    assert values == {(0,): 1, (1,): 0, (2,): 0}
    idx = subset_index(m.n, 1)
    wedge = qbv(m, mask, 1)
    for s in nbc_sets(m, 1):
        assert (wedge >> idx[s]) & 1 == values[s]


@pytest.mark.parametrize("name", [*names(), "gen3_6", "b3", "gen4_6"])
def test_theorem_B_generators_are_the_mod2_prefix_chains(name, monkeypatch):
    # the generators, in the order they are checked, are the distinct
    # chain_mod2(prefix_chain(...)) over every flag, origin and degree
    m = fresh(name)
    checked = []
    real = filtrations.viro_bv

    def recording(m, gamma, p, rng=None):
        checked.append((p, gamma))
        return real(m, gamma, p, rng)

    monkeypatch.setattr(filtrations, "viro_bv", recording)
    assert verify_theorem_B(m).ok
    expect = []
    for p in range(m.rank + 1):
        masks = [chain_mod2(prefix_chain(m, flag, v, p))
                 for flag in enumerate_flags(m) for v in tope_flag_set(m, flag)]
        expect += [(p, mask) for mask in dict.fromkeys(masks)]
    assert checked == expect


def test_theorem_B_builds_no_fine_complex():
    m = om_from_arrangement(Arrangement(CORPUS["a3"].normals))
    (record,) = verify_checks(m, "thmB", "a3")
    assert record["pass"]
    assert not any(isinstance(v, FineComplex) for v in m._cache.values())


def test_theorem_B_reports_on_small_members():
    for name in ("u11", "u22", "u23"):
        m = load(name)
        report = verify_theorem_B(m)
        assert report.ok, report.failures[:3]
        assert [row["p"] for row in report.degrees] == list(range(m.rank + 1))
        assert all(row["checked"] == row["generators"] * row["subsets"]
                   for row in report.degrees)


# -- formatting -------------------------------------------------------------


def test_chain_formatting():
    m = load("u23")
    a = sv("+++")
    assert format_tope_mask(m, 0) == "0"
    assert "[+++]" in format_tope_mask(m, 1 << m.tope_index[a])
