"""Tests for the three filtrations, their generators, and the induced maps."""

import random
from itertools import combinations

import pytest
from oracles import (
    asymptotic_member,
    gf2_solve_project_by_kernel,
    heaviside_eval,
    tilde_a_dense,
    int_rank,
    lattice_saturated,
    quillen_Q_oracle,
    quillen_Z_by_products,
    vg_lower_by_prefix,
)
from test_om import moment_curve

from topespace import filtrations
from topespace.algebras import (
    cordovil_dual,
    epsilon,
    nbc_sets,
    projectivize,
    sf_vector,
    subset_index,
)
from topespace.cli import verify_checks
from topespace.corpus import CORPUS, load, names
from topespace.filtrations import (
    KalininCertificate,
    affine_coordinate_chain,
    asymptotic,
    brick,
    brick_certificate,
    chain_mod2,
    format_tope_mask,
    heaviside_pairing,
    kalinin_K,
    pair_chain,
    prefix_chain,
    qbv,
    quillen_Q,
    quillen_Z_demo,
    quillen_cosets,
    tilde_a,
    tope_vertex_chain,
    verify_theorem_A,
    verify_theorem_B,
    vg_lower,
    viro_bv,
    _ladder_solver,
    _quillen_solver,
    _quillen_Z_lattice,
)
from topespace.linalg import (
    GF2Matrix,
    GF2Solver,
    LatticeZ,
    SubspaceGF2,
    bits_of,
    gf2_solve_project,
    lattice_equal,
    mask_from_bits,
)
from topespace.om import (
    Arrangement,
    SignVector,
    enumerate_flags,
    make_flag,
    om_from_arrangement,
    tope_flag_set,
)
from topespace.salvetti import (
    FineComplex,
    bz_cochain_eval,
    get_salvetti,
    homology_mod2,
)


def sv(s: str) -> SignVector:
    return SignVector.from_str(s)


def fresh(name: str):
    """A newly built matroid with an empty memo: a corpus member, or gen3_6 /
    gen4_6 (generic hyperplanes on the moment curve in R^3 / R^4)."""
    if name in CORPUS:
        return om_from_arrangement(Arrangement(CORPUS[name].normals))
    d, n = {"gen3_6": (3, 6), "gen4_6": (4, 6)}[name]
    return om_from_arrangement(moment_curve(d, n))


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


def test_vg_lower_gf2_matches_integer_reduction():
    for name in names():
        m = load(name)
        for p in range(m.rank + 2):
            assert vg_lower(m, p, "z2") == vg_lower(m, p, "z").mod2()


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
    for name in ("u22", "u23", "u34"):
        m = load(name)
        for p in range(m.rank + 1):
            solver, cosets = _quillen_solver(m, p)
            for k in solver.kernel_basis():
                out = 0
                for j in bits_of(k):
                    out ^= cosets[j][1]
                assert out == 0


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
    m = fresh(name)
    assert quillen_Z_demo(m, 0) == quillen_Z_by_products(m, 0).rank
    for p in range(1, (top or m.rank + 1) + 1):
        lattice = _quillen_Z_lattice(m, p)
        assert lattice == quillen_Z_by_products(m, p), p
        assert quillen_Z_demo(m, p) == lattice.rank


def test_quillen_Z_rejects_negative_degree():
    with pytest.raises(ValueError):
        quillen_Z_demo(load("u22"), -1)


def test_quillen_Z_multiplies_a_basis_by_each_generator(monkeypatch):
    # gen4_6: 16 flag topes, so 15 generators and a rank-15 span per degree;
    # enumerating every multiset of 5 generators would pass 11,628 products
    m = fresh("gen4_6")
    counts = []
    original = LatticeZ.from_generators.__func__

    def counted(cls, ambient_dim, gens):
        gens = list(gens)
        counts.append(len(gens))
        return original(cls, ambient_dim, gens)

    monkeypatch.setattr(LatticeZ, "from_generators", classmethod(counted))
    assert quillen_Z_demo(m, 5) == 15
    assert len(counts) == 5 and max(counts) <= 15 * 15
    assert [quillen_Z_demo(m, p) for p in range(1, 6)] == [15] * 5
    assert len(counts) == 5


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


@pytest.mark.parametrize("name", [*names(), "gen3_6"])
def test_kalinin_projection_matches_kernel_oracle(name, monkeypatch):
    m = fresh(name)
    blocks = []

    def checked(system, free_block):
        got = gf2_solve_project(system, free_block)
        assert got == gf2_solve_project_by_kernel(system, free_block)
        blocks.append(free_block)
        return got

    monkeypatch.setattr(filtrations, "gf2_solve_project", checked)
    for p in range(m.rank + 2):
        kalinin_K(m, p)
    assert blocks == [(0, len(m.topes))] * (m.rank + 1)


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
            solvable = solver.solve(tope_vertex_chain(m, gamma)) is not None
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


def test_viro_degree_zero_is_vertex_inclusion():
    m = load("u23")
    hom = homology_mod2(get_salvetti(m))
    single = 1 << m.tope_index[sv("+++")]
    rep, cert = viro_bv(m, single, 0)
    assert cert.betas == ()
    assert rep == hom.class_of(0, tope_vertex_chain(m, single))


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
                cycles = GF2Solver(
                    GF2Matrix.from_rows(rows, sal.n_cells(d))
                ).kernel_basis()
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
    mask1 = brick(m, flag, a, 1, ring="z2")
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
                    assert symm == brick(m, flag, v, p, ring="z2")


def test_brick_represents_the_viro_value():
    for name in ("u22", "u23", "u34"):
        m = load(name)
        hom = homology_mod2(get_salvetti(m))
        for flag in enumerate_flags(m):
            for v in tope_flag_set(m, flag):
                for p in range(1, m.rank + 1):
                    mask = chain_mod2(prefix_chain(m, flag, v, p))
                    rep, _ = viro_bv(m, mask, p)
                    assert hom.class_of(p, brick(m, flag, v, p, "z2")) == rep


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
