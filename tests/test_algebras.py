"""Tests for circuits, NBC data, dual algebra lattices, and epsilon elements."""

from itertools import combinations

import pytest
from oracles import (
    cordovil_dual_by_kernel,
    cordovil_relation_rows,
    epsilon,
    lattice_saturated,
    nbc_flag,
    os_dual,
    rank_graded_chains,
    sf_mul,
    sf_vector,
    wedge_masks,
)
from test_filtrations import fresh

from topespace.algebras import (
    broken_circuits,
    circuits,
    cordovil_dual,
    nbc_sets,
    signed_circuits,
    subset_index,
)
from topespace.corpus import CORPUS, load, names
from topespace.linalg import LatticeZ, bits_of, int_kernel, lattice_equal, mask_from_bits
from topespace.om import (
    Arrangement,
    SignVector,
    enumerate_flags,
    make_flag,
    om_from_arrangement,
    tope_flag_set,
)


def sv(s: str) -> SignVector:
    return SignVector.from_str(s)


# -- circuits ---------------------------------------------------------------


def test_circuits_of_small_members():
    assert circuits(load("u11")) == ()
    assert circuits(load("u22")) == ()
    assert circuits(load("u23")) == (0b111,)
    assert circuits(load("u34")) == (0b1111,)


def test_circuits_built_once_per_matroid(monkeypatch):
    m = om_from_arrangement(Arrangement(CORPUS["a3"].normals))
    first = nbc_sets(m, 2)
    cs = circuits(m)

    def no_probe(mask):
        raise AssertionError("circuits rebuilt by subset-rank probes")

    # a second nbc_sets call reads the cached circuits, with no rank probe
    monkeypatch.setattr(m, "subset_rank", no_probe)
    assert nbc_sets(m, 2) == first
    assert circuits(m) is cs


def test_circuits_of_braid_arrangement():
    cs = circuits(load("a3"))
    assert len(cs) == 7
    sizes = sorted(bin(c).count("1") for c in cs)
    assert sizes == [3, 3, 3, 3, 4, 4, 4]


def test_circuits_are_minimal_dependent():
    for name in names():
        m = load(name)
        for c in circuits(m):
            size = bin(c).count("1")
            assert m.subset_rank(c) == size - 1
            for e in bits_of(c):
                sub = c & ~(1 << e)
                assert m.subset_rank(sub) == size - 1


def test_signed_circuit_golden():
    assert signed_circuits(load("u23")) == [sv("+-+")]


def test_signed_circuits_orthogonal_to_every_covector():
    for name in ("u23", "u34", "a3"):
        m = load(name)
        for c in signed_circuits(m):
            for v in m.covectors:
                agree = (c.plus & v.plus) | (c.minus & v.minus)
                disagree = (c.plus & v.minus) | (c.minus & v.plus)
                assert (agree != 0) == (disagree != 0)


def test_signed_circuits_match_rational_dependencies():
    # Independent oracle: a sign pattern on a circuit support must match the
    # one-dimensional rational dependency among the corresponding normals.
    for name in ("u23", "u34", "a3"):
        m = load(name)
        normals = CORPUS[name].normals
        d = len(normals[0])
        for c in signed_circuits(m):
            elems = bits_of(c.support)
            rows = [{k: int(normals[e][i]) for k, e in enumerate(elems)} for i in range(d)]
            kernel = int_kernel(rows, len(elems)).basis
            assert len(kernel) == 1
            lam = kernel[0]
            assert all(x != 0 for x in lam)
            if lam[0] < 0:
                lam = [-x for x in lam]
            for e, x in zip(elems, lam):
                assert c.sign(e) == (1 if x > 0 else -1)


# -- NBC sets ---------------------------------------------------------------


def test_broken_circuits_and_nbc_sets_golden():
    m = load("u23")
    assert broken_circuits(m) == [0b110]
    assert nbc_sets(m, 0) == [()]
    assert nbc_sets(m, 1) == [(0,), (1,), (2,)]
    assert nbc_sets(m, 2) == [(0, 1), (0, 2)]
    # reversing the ordering moves the removed element
    assert broken_circuits(m, order=(2, 1, 0)) == [0b011]
    assert nbc_sets(m, 2, order=(2, 1, 0)) == [(0, 2), (1, 2)]


def test_nbc_counts_match_betti_numbers():
    for name in names():
        m = load(name)
        betti = CORPUS[name].betti
        for p, b in enumerate(betti):
            assert len(nbc_sets(m, p)) == b
        assert sum(betti) == len(m.topes)


def test_nbc_flag_closes_prefixes():
    m = load("a3")
    for p in range(1, m.rank + 1):
        for s in nbc_sets(m, p):
            flag = nbc_flag(m, s)
            assert len(flag.flats) == m.rank + 1
            ordered = sorted(s, reverse=True)
            for k in range(1, p + 1):
                assert flag.flats[k] == m.closure(mask_from_bits(ordered[:k]))
    with pytest.raises(ValueError):
        nbc_flag(load("u23"), (0, 1, 2))


# -- wedge coordinates ------------------------------------------------------


def test_wedge_masks_signs_and_degeneracy():
    assert wedge_masks([0b01, 0b10], 2) == {(0, 1): 1}
    assert wedge_masks([0b10, 0b01], 2) == {(0, 1): -1}
    assert wedge_masks([0b11, 0b11], 2) == {}
    assert wedge_masks([], 2) == {(): 1}


def test_sf_mul_kills_repeated_variables():
    a = {(0,): 1, (1,): 1}
    # squares vanish but the ring is commutative, so cross terms add up
    assert sf_mul(a, a) == {(0, 1): 2}
    b = {(0,): 1, (1,): -1}
    assert sf_mul(a, b) == {}
    assert sf_mul({(0,): 1}, {(1,): 2, (0,): 5}) == {(0, 1): 2}


# -- dual Orlik-Solomon space ----------------------------------------------


def test_rank_graded_chains_u23():
    m = load("u23")
    assert rank_graded_chains(m, 1) == [(0b001,), (0b010,), (0b100,)]
    assert rank_graded_chains(m, 2) == [
        (0b001, 0b111),
        (0b010, 0b111),
        (0b100, 0b111),
    ]


def test_os_dual_rank_equals_nbc_count():
    for name in names():
        m = load(name)
        for p in range(m.rank + 1):
            b = len(nbc_sets(m, p))
            assert os_dual(m, p, ring="z").rank == b
            assert os_dual(m, p, ring="z2").dim == b


def test_os_dual_u23_degree_two_generators():
    lat = os_dual(load("u23"), 2, ring="z")
    # block wedges: e0^(e1+e2), e1^(e0+e2), e2^(e0+e1)
    expect = LatticeZ.from_generators(3, [[1, 1, 0], [-1, 0, 1], [0, -1, -1]])
    assert lattice_equal(lat, expect)


# -- Cordovil dual ----------------------------------------------------------


def test_cordovil_u23_golden():
    m = load("u23")
    a1 = cordovil_dual(m, 1)
    assert lattice_equal(a1, int_kernel([], 3))
    a2 = cordovil_dual(m, 2)
    assert lattice_equal(a2, LatticeZ.from_generators(3, [[1, 1, 0], [0, 1, 1]]))
    a3 = cordovil_dual(m, 3)
    assert a3.rank == 0


def test_cordovil_relation_rows_u23():
    # the lone signed circuit contributes one degree-2 row with signs +,-,+
    rows = cordovil_relation_rows(load("u23"), 2)
    assert rows == [{0: 1, 1: -1, 2: 1}]
    # degree-3 rows kill the single monomial one element at a time
    rows3 = cordovil_relation_rows(load("u23"), 3)
    assert sorted(rows3, key=lambda r: r[0]) == [{0: -1}, {0: 1}, {0: 1}]


@pytest.mark.parametrize("name", ["u34", "a3"])
def test_cordovil_dual_cached_per_matroid_and_degree(name):
    m = load(name)
    fresh = om_from_arrangement(Arrangement(CORPUS[name].normals))
    for p in range(m.rank + 1):
        lat = cordovil_dual(m, p)
        assert cordovil_dual(m, p) is lat
        assert lattice_equal(lat, cordovil_dual_by_kernel(fresh, p))


def test_cordovil_rank_equals_nbc_count_and_saturated():
    for name in names():
        m = load(name)
        for p in range(m.rank + 1):
            lat = cordovil_dual(m, p)
            assert lat.rank == len(nbc_sets(m, p))
            assert lattice_saturated(lat)


# -- epsilon elements -------------------------------------------------------


def test_epsilon_golden_values():
    m = load("u23")
    flag = make_flag(m, [0b001])
    a = sv("+++")
    assert epsilon(m, flag, a, 0) == {(): 1}
    assert epsilon(m, flag, a, 1) == {(0,): 1}
    assert epsilon(m, flag, a, 2) == {(0, 1): 1, (0, 2): 1}
    d = sv("---")
    assert epsilon(m, flag, d, 2) == {(0, 1): 1, (0, 2): 1}
    b = sv("-++")
    assert epsilon(m, flag, b, 2) == {(0, 1): -1, (0, 2): -1}
    with pytest.raises(ValueError):
        epsilon(m, flag, sv("--+"), 1)


def test_epsilon_rejects_degrees_outside_the_flag():
    m = load("u34")
    for flag in enumerate_flags(m):
        v = tope_flag_set(m, flag)[0]
        for p in (-1, -flag.length, flag.length + 1):
            with pytest.raises(ValueError, match="outside"):
                epsilon(m, flag, v, p)


@pytest.mark.parametrize("name", [*names(), "gen3_6", "b3"])
def test_epsilon_is_the_product_of_the_signed_block_forms(name):
    # the transversal signs against the oracle product of the block forms,
    # on complete and partial flags, every tope of the flag and every degree
    m = fresh(name)
    flags = enumerate_flags(m) + enumerate_flags(m, complete=False)
    for flag in flags:
        for v in tope_flag_set(m, flag):
            forms = [{(j,): v.sign(j) for j in bits_of(block)} for block in flag.blocks()]
            expect = {(): 1}
            for p in range(flag.length + 1):
                assert epsilon(m, flag, v, p) == expect, (flag, v, p)
                if p < flag.length:
                    expect = sf_mul(expect, forms[p])


def test_epsilon_lies_in_cordovil_dual():
    for name in names():
        m = load(name)
        duals = {p: cordovil_dual(m, p) for p in range(m.rank + 1)}
        for flag in enumerate_flags(m, complete=True):
            for v in tope_flag_set(m, flag):
                for p in range(m.rank + 1):
                    vec = sf_vector(epsilon(m, flag, v, p), m.n, p)
                    assert duals[p].contains(vec)


def test_epsilon_pairs_diagonally_with_nbc_monomials():
    for name in ("u23", "u34", "a3"):
        m = load(name)
        for p in range(1, m.rank + 1):
            sets = nbc_sets(m, p)
            for s in sets:
                flag = nbc_flag(m, s)
                v = tope_flag_set(m, flag)[0]
                eps = epsilon(m, flag, v, p)
                for s2 in sets:
                    coeff = eps.get(s2, 0)
                    assert abs(coeff) == (1 if s2 == s else 0)


# -- coordinate chart sanity ------------------------------------------------


def test_subset_chart_is_lexicographic():
    assert list(combinations(range(3), 2)) == [(0, 1), (0, 2), (1, 2)]
    idx = subset_index(4, 2)
    assert idx[(0, 1)] == 0 and idx[(2, 3)] == len(idx) - 1
    with pytest.raises(ValueError):
        sf_vector({(0,): 1, (0, 1): 1}, 3, 2)
