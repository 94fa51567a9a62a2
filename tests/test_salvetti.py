"""Tests for the coarse and fine cell complexes and their homology."""

from fractions import Fraction
from itertools import combinations
from types import SimpleNamespace

import pytest
from oracles import bz_cochain_eval_by_simplex, coarse_to_fine, homology_Z_by_fine
from test_cosheaf import b3
from test_filtrations import fresh

from topespace.corpus import load, names
from topespace.linalg import bits_of
from topespace.om import Arrangement, SignVector, om_from_arrangement
from topespace.salvetti import (
    IncidenceError,
    bz_cochain_eval,
    face_le,
    get_fine,
    get_salvetti,
    homology_mod2,
    homology_Z,
    orient_boundary,
)

U11 = Arrangement(((Fraction(1),),))
U22 = Arrangement(((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1))))
U23 = Arrangement(
    (
        (Fraction(1), Fraction(0)),
        (Fraction(1), Fraction(1)),
        (Fraction(0), Fraction(1)),
    )
)


def sv(s: str) -> SignVector:
    return SignVector.from_str(s)


def popcount(x: int) -> int:
    return bin(x).count("1")


# -- coarse complex ----------------------------------------------------------


def test_u23_cell_counts():
    sal = get_salvetti(om_from_arrangement(U23))
    assert [sal.n_cells(d) for d in range(3)] == [6, 12, 6]


def test_u11_is_a_circle():
    m = om_from_arrangement(U11)
    sal = get_salvetti(m)
    assert [sal.n_cells(d) for d in range(2)] == [2, 2]
    h = homology_mod2(sal)
    assert h.dims() == [1, 1]


def test_vertices_align_with_topes():
    m = om_from_arrangement(U23)
    sal = get_salvetti(m)
    assert [key[1] for key in sal.cells[0]] == list(m.topes)
    assert [key[0] for key in sal.cells[0]] == list(m.topes)
    for i, t in enumerate(m.topes):
        assert sal.vertex_of_tope(t) == i


def test_boundary_squares_to_zero_mod2():
    for arr in (U11, U22, U23):
        sal = get_salvetti(om_from_arrangement(arr))
        for d in range(2, sal.dim + 1):
            for mask in sal.boundary_masks(d):
                assert sal.boundary_of(d - 1, mask) == 0


def test_u23_two_cells_are_hexagons():
    sal = get_salvetti(om_from_arrangement(U23))
    for mask in sal.boundary_masks(2):
        assert popcount(mask) == 6
    for mask in sal.boundary_masks(1):
        assert popcount(mask) == 2


def test_conjugation_is_involution_and_chain_map():
    sal = get_salvetti(om_from_arrangement(U23))
    for d in range(sal.dim + 1):
        perm = sal.conj_perm(d)
        assert sorted(perm) == list(range(sal.n_cells(d)))
        assert all(perm[perm[i]] == i for i in range(len(perm)))
    for d in range(1, sal.dim + 1):
        for i in range(sal.n_cells(d)):
            lhs = sal.conj_chain(d - 1, sal.boundary_masks(d)[i])
            rhs = sal.boundary_of(d, sal.conj_chain(d, 1 << i))
            assert lhs == rhs


def test_conjugation_fixes_exactly_the_vertices():
    sal = get_salvetti(om_from_arrangement(U23))
    fixed = []
    for d in range(sal.dim + 1):
        perm = sal.conj_perm(d)
        fixed.extend((d, i) for i in range(len(perm)) if perm[i] == i)
    assert fixed == [(0, i) for i in range(sal.n_cells(0))]


def test_coarse_homology_golden_dims():
    cases = {U11: [1, 1], U22: [1, 2, 1], U23: [1, 3, 2]}
    for arr, want in cases.items():
        m = om_from_arrangement(arr)
        h = homology_mod2(get_salvetti(m))
        assert h.dims() == want
        assert sum(h.dims()) == len(m.topes)


def test_class_of_reduces_modulo_boundaries():
    m = om_from_arrangement(U23)
    sal = get_salvetti(m)
    h = homology_mod2(sal)
    # two homologous cycles: boundary of any 2-cell is null-homologous
    b = sal.boundary_masks(2)[0]
    assert h.is_cycle(1, b)
    assert h.class_of(1, b) == 0
    with pytest.raises(ValueError):
        h.class_of(1, 1 << 0)  # a single edge is never a cycle here
    # vertices of one tope and another differ by an edge path, same class
    v0 = 1 << 0
    v1 = 1 << 1
    assert h.class_of(0, v0) == h.class_of(0, v1)


# -- fine complex ------------------------------------------------------------


def test_fine_counts_u23():
    fine = get_fine(om_from_arrangement(U23))
    assert [fine.n_simplices(p) for p in range(3)] == [24, 96, 72]


def test_face_relation_examples():
    a = (sv("+++"), sv("+++"))
    e = (sv("0++"), sv("+++"))
    f = (sv("000"), sv("+++"))
    assert face_le(a, e) and face_le(e, f) and face_le(a, f)
    assert not face_le(e, a)
    assert not face_le((sv("0--"), sv("---")), f)


def test_fine_boundary_squares_to_zero_over_z():
    fine = get_fine(om_from_arrangement(U23))
    for p in range(2, 3):
        up = fine.boundary_entries(p)
        down = fine.boundary_entries(p - 1)
        # compose the sparse matrices
        prod: dict = {}
        for (r1, c1), v1 in up.items():
            for (r0, c0), v0 in down.items():
                if c0 == r1:
                    prod[(r0, c1)] = prod.get((r0, c1), 0) + v0 * v1
        assert all(v == 0 for v in prod.values())


def test_subdivision_sizes():
    m = om_from_arrangement(U23)
    fine = get_fine(m)
    sal = fine.sal
    assert popcount(coarse_to_fine(fine, 2, 1)) == 12
    assert popcount(coarse_to_fine(fine, 1, 1)) == 2
    assert popcount(coarse_to_fine(fine, 0, 1)) == 1


def fine_boundary_masks(fine, p):
    """Mod-2 boundary of the fine complex, one mask per p-simplex."""
    out = [0] * fine.n_simplices(p)
    for (row, col), v in fine.boundary_entries(p).items():
        if v % 2:
            out[col] ^= 1 << row
    return out


def test_subdivision_is_a_chain_map_mod2():
    for arr in (U22, U23):
        m = om_from_arrangement(arr)
        fine = get_fine(m)
        sal = fine.sal
        for d in range(1, sal.dim + 1):
            masks = fine_boundary_masks(fine, d)
            for i in range(sal.n_cells(d)):
                lhs = 0
                for j in bits_of(coarse_to_fine(fine, d, 1 << i)):
                    lhs ^= masks[j]
                rhs = coarse_to_fine(fine, d - 1, sal.boundary_masks(d)[i])
                assert lhs == rhs


def test_fine_integral_homology_matches_coarse_mod2():
    for arr in (U11, U22, U23):
        m = om_from_arrangement(arr)
        sal = get_salvetti(m)
        h2 = homology_mod2(sal)
        for hz in (homology_Z(sal), homology_Z_by_fine(get_fine(m))):
            assert hz.betti == h2.dims()
            assert all(not t for t in hz.torsion)


# -- signed coarse boundary --------------------------------------------------


@pytest.mark.parametrize("name", ["u11", "u22", "u23", "u34", "a3"])
def test_coarse_integral_homology_matches_fine_oracle(name):
    m = fresh(name)
    coarse = homology_Z(get_salvetti(m))
    fine = homology_Z_by_fine(get_fine(fresh(name)))
    assert (coarse.betti, coarse.torsion) == (fine.betti, fine.torsion)


@pytest.mark.parametrize("name", [*names(), "gen3_6", "b3", "gen4_6"])
def test_signed_boundary_is_a_differential_lifting_the_masks(name):
    sal = get_salvetti(b3() if name == "b3" else fresh(name))
    for d in range(sal.dim + 1):
        cols = sal.signed_boundary(d)
        assert len(cols) == sal.n_cells(d)
        assert all(v in (1, -1) for col in cols for v in col.values())
        assert [sum(1 << r for r in col) for col in cols] == sal.boundary_masks(d)
    # the augmentation (every vertex to 1) vanishes on edge boundaries
    assert all(sum(col.values()) == 0 for col in sal.signed_boundary(1))
    for d in range(2, sal.dim + 1):
        below = sal.signed_boundary(d - 1)
        for col in sal.signed_boundary(d):
            total: dict[int, int] = {}
            for f, v in col.items():
                for r, w in below[f].items():
                    total[r] = total.get(r, 0) + v * w
            assert not any(total.values())


def _complex(masks, below=None):
    """A duck-typed complex: mod-2 boundary masks per degree, oriented on
    demand, or given signed boundaries one degree down."""
    cx = SimpleNamespace(boundary_masks=lambda d: masks[d])
    cx.signed_boundary = ((lambda d: below) if below is not None
                          else (lambda d: orient_boundary(cx, d)))
    return cx


@pytest.mark.parametrize("cx, d, match", [
    # three edges from vertex 0 to vertex 1 bound one 2-cell, so each vertex
    # lies in three of its facets
    (_complex({1: [0b11, 0b11, 0b11], 2: [0b111]}), 2, "lies in 3 facets"),
    # two disjoint bigons bound one 2-cell
    (_complex({1: [0b0011, 0b0011, 0b1100, 0b1100], 2: [0b1111]}), 2,
     "not connected"),
    (_complex({1: [0b111]}), 1, "ridge -1 lies in 3 facets"),
    # two 2-cells share both their ridges, with incidences under which the
    # ridges demand opposite signs for the second facet
    (_complex({3: [0b11]}, below=[{0: 1, 1: -1}, {0: 1, 1: 1}]), 3, "both signs"),
], ids=["ridge-in-three-facets", "disconnected-facets", "edge-with-three-ends",
        "sign-forced-both-ways"])
def test_orientation_rejects_a_poset_that_is_not_regular_cw(cx, d, match):
    with pytest.raises(IncidenceError, match=match):
        orient_boundary(cx, d)


# -- cochains ----------------------------------------------------------------


def test_bz_cochains_vanish_on_boundaries():
    for m in (om_from_arrangement(U22), om_from_arrangement(U23), load("u34")):
        sal = get_salvetti(m)
        for p in range(0, sal.dim):
            for s in combinations(range(m.n), p):
                for mask in sal.boundary_masks(p + 1):
                    assert bz_cochain_eval(sal, s, p, mask) == 0


def _oracle_eval(fine, s, p, chain):
    """The per-simplex oracle on `chain`, run over just the chain's simplices.

    Relabelling the chain onto its own simplices leaves every per-simplex
    value unchanged and keeps the oracle's bit-by-bit shift loop as narrow as
    the chain's popcount.
    """
    picked = [fine.simplices[p][i] for i in bits_of(chain)]
    view = SimpleNamespace(simplices={p: picked}, elements=fine.elements)
    return bz_cochain_eval_by_simplex(view, s, p, (1 << len(picked)) - 1)


@pytest.mark.parametrize("build", [lambda: load("u22"), lambda: load("u23"),
                                   lambda: load("u34"), lambda: load("a3"), b3],
                         ids=["u22", "u23", "u34", "a3", "b3"])
def test_bz_cochain_masks_match_per_simplex_oracle(build):
    # the coarse cochain of every subset, on every single cell of every
    # degree, against the per-simplex oracle on the cell's subdivision
    m = build()
    sal = get_salvetti(m)
    fine = get_fine(m)
    for p in range(sal.dim + 1):
        cells = [coarse_to_fine(fine, p, 1 << i) for i in range(sal.n_cells(p))]
        for s in combinations(range(m.n), p):
            for i, cell in enumerate(cells):
                assert bz_cochain_eval(sal, s, p, 1 << i) == _oracle_eval(fine, s, p, cell)


def test_bz_cochain_degree_mismatch():
    sal = get_salvetti(om_from_arrangement(U23))
    with pytest.raises(ValueError):
        bz_cochain_eval(sal, (0, 1), 1, 0)


def test_bz_cochain_element_outside_ground_set():
    sal = get_salvetti(om_from_arrangement(U23))
    with pytest.raises(ValueError, match="ground set"):
        bz_cochain_eval(sal, (3,), 1, 1)

