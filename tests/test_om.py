"""Tests for sign vectors, covector axioms, and arrangement ingestion."""

import hashlib
import random
from fractions import Fraction
from functools import lru_cache
from itertools import product

import pytest
from oracles import check_covector_axioms_by_scan, maximal_covector_not_tope_by_scan
from test_cosheaf import b3

from topespace.corpus import CORPUS, load, names
from topespace.om import (
    Arrangement,
    Flag,
    NotCovectors,
    OrientedMatroid,
    ParseError,
    SignVector,
    check_covector_axioms,
    compose,
    enumerate_flags,
    initial_matroid,
    is_complete_flag,
    make_flag,
    om_from_arrangement,
    om_from_covectors,
    parse_arrangement,
    parse_covector_lines,
    tope_flag_members,
    tope_flag_set,
    zero_out,
)

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


def mask(*bits: int) -> int:
    out = 0
    for b in bits:
        out |= 1 << b
    return out


# -- sign vector basics ------------------------------------------------------


def test_sign_vector_roundtrip_and_accessors():
    v = sv("+-0+")
    assert v.to_str() == "+-0+"
    assert v.sign(0) == 1 and v.sign(1) == -1 and v.sign(2) == 0
    assert v.support == mask(0, 1, 3)
    assert v.zero_set == mask(2)
    assert v.negate() == sv("-+0-")
    with pytest.raises(ValueError):
        SignVector(2, 0b01, 0b01)


def test_compose_matches_componentwise_rule():
    for a, b in product("+-0", repeat=2):
        l, k = sv(a), sv(b)
        got = compose(l, k).to_str()
        assert got == (a if a != "0" else b)
    l, k = sv("+0-0"), sv("-+-+")
    assert compose(l, k) == sv("++-+")
    assert compose(k, l) == k


def test_conformal_order_and_separator():
    assert sv("0+0").le(sv("-++"))
    assert not sv("0-0").le(sv("-++"))
    assert sv("+-0").separator(sv("-m0".replace("m", "-"))) == mask(0)
    assert sv("++").separator(sv("--")) == mask(0, 1)


def test_zero_out():
    assert zero_out(sv("+-+"), mask(1)) == sv("+0+")
    assert zero_out(sv("+-+"), 0) == sv("+-+")


# -- covector axioms ---------------------------------------------------------


def test_axioms_hold_for_full_sign_cube():
    vecs = [sv("".join(p)) for p in product("+-0", repeat=2)]
    assert check_covector_axioms(vecs).ok


def test_axioms_catch_missing_negation():
    report = check_covector_axioms([sv("0"), sv("+")])
    assert not report.ok
    assert report.axiom == "negation"
    assert report.witness == (sv("+"),)


def test_axioms_catch_missing_zero():
    report = check_covector_axioms([sv("+"), sv("-")])
    assert report.axiom == "zero"


def test_axioms_catch_composition_gap():
    vecs = [sv(s) for s in ["000", "0++", "0--", "-0+", "+0-", "--0", "++0",
                            "+++", "-++", "---", "+--"]]  # drop the pair ++-, --+
    report = check_covector_axioms(vecs)
    assert not report.ok
    assert report.axiom == "composition"
    l, k = report.witness
    assert compose(l, k) not in set(vecs)


def test_axioms_reject_mixed_ground_sets():
    with pytest.raises(ValueError, match="ground set mismatch"):
        check_covector_axioms([sv("0"), sv("00")])


def test_axioms_catch_elimination_gap():
    vecs = [sv(s) for s in ["00", "++", "--", "+-", "-+"]]
    report = check_covector_axioms(vecs)
    assert not report.ok
    assert report.axiom == "elimination"
    l, k, e = report.witness
    assert (l.separator(k) >> e) & 1
    keep = ~l.separator(k)
    lk = compose(l, k)
    for z in vecs:
        if z.sign(e) == 0:
            assert (z.plus & keep, z.minus & keep) != (lk.plus & keep, lk.minus & keep)


def moment_curve(d: int, n: int) -> Arrangement:
    """n generic hyperplanes in R^d: the normals (1, i, ..., i^(d-1)), i = 1..n."""
    return Arrangement(tuple(
        tuple(Fraction(i ** j) for j in range(d)) for i in range(1, n + 1)
    ))


@lru_cache(maxsize=None)
def covector_sets() -> dict[str, tuple[SignVector, ...]]:
    out = {name: load(name).covectors for name in names()}
    out["gen3_6"] = om_from_arrangement(moment_curve(3, 6)).covectors
    out["gen4_6"] = om_from_arrangement(moment_curve(4, 6)).covectors
    return out


def mutate(vecs: list[SignVector], rng: random.Random) -> list[SignVector]:
    """Drop one covector, drop a +- pair, zero one coordinate of one covector,
    add a random sign vector, or keep the closure under composition of zero
    and a few random +- pairs (which can only fail elimination); then
    shuffle."""
    vecs = list(vecs)
    n = vecs[0].n
    kind = rng.randrange(5)
    v = rng.choice(vecs)
    if kind == 0:
        vecs.remove(v)
    elif kind == 1:
        vecs = [w for w in vecs if w not in (v, v.negate())]
    elif kind == 2:
        vecs[vecs.index(v)] = zero_out(v, 1 << rng.randrange(n))
    elif kind == 3:
        plus = rng.getrandbits(n)
        vecs.append(SignVector(n, plus, rng.getrandbits(n) & ~plus))
    else:
        kept = {SignVector.zero(n)}
        for w in rng.sample(vecs, 3):
            kept |= {w, w.negate()}
        while more := {compose(a, b) for a in kept for b in kept} - kept:
            kept |= more
        vecs = list(kept)
    rng.shuffle(vecs)
    return vecs


def test_axiom_check_matches_scan_oracle():
    rng = random.Random(20261018)
    sets = covector_sets()
    # gen4_6 takes the oracle over a second per full scan, so it gets fewer draws
    cases = [list(vecs) for vecs in sets.values()]
    for name, vecs in sets.items():
        for _ in range(4 if name == "gen4_6" else 20):
            cases.append(mutate(vecs, rng))
    assert len(cases) >= 100 + len(sets)
    seen = set()
    for vecs in cases:
        report = check_covector_axioms(vecs)
        assert report == check_covector_axioms_by_scan(vecs)
        seen.add(report.axiom)
    assert seen >= {None, "negation", "composition", "elimination"}


def test_maximal_covector_not_tope_is_rejected():
    with pytest.raises(NotCovectors, match="a maximal covector is not a tope"):
        OrientedMatroid([sv("00"), sv("++"), sv("-0")])


def test_maximal_covector_check_matches_le_scan():
    rng = random.Random(7)
    outcomes = set()
    for name in ("u22", "u23", "u34", "a3"):
        covs = load(name).covectors
        for _ in range(25):
            # covs[0] is the zero vector, which every subset keeps
            sub = [covs[0]] + [v for v in covs[1:] if rng.random() < 0.7]
            try:
                OrientedMatroid(sub)
                error = None
            except NotCovectors as e:
                error = str(e)
            if error in (None, "a maximal covector is not a tope"):
                expected = maximal_covector_not_tope_by_scan(sub)
                assert (error is not None) == expected
                outcomes.add(expected)
    assert outcomes == {False, True}


# covector count and sha256 prefix of the canonical covector list, one
# sign string per line
COVECTOR_DIGESTS = {
    "u11": (3, "6662da1d072a8349"),
    "u22": (9, "d7d9f7f32779e1e7"),
    "u23": (13, "a5d7faea5a2b76dc"),
    "u34": (51, "8947def45fc82022"),
    "a3": (75, "1f42333e8c12b417"),
    "gen3_6": (123, "3125809b3fb98846"),
    "b3": (147, "607ada7639e365f1"),
}


@pytest.mark.parametrize("name", list(COVECTOR_DIGESTS))
def test_arrangement_covector_sets_unchanged(name):
    if name == "gen3_6":
        m = om_from_arrangement(moment_curve(3, 6))
    elif name == "b3":
        m = b3()
    else:
        m = om_from_arrangement(Arrangement(CORPUS[name].normals))
    text = "\n".join(v.to_str() for v in m.covectors)
    digest = hashlib.sha256(text.encode()).hexdigest()[:16]
    assert (len(m.covectors), digest) == COVECTOR_DIGESTS[name]


# -- the two rank-2 reference fans ------------------------------------------


def test_u22_covectors_are_the_full_sign_cube():
    m = om_from_arrangement(U22)
    assert m.n == 2 and m.rank == 2
    assert len(m.covectors) == 9
    assert len(m.topes) == 4
    assert set(m.flats) == {0, mask(0), mask(1), mask(0, 1)}


def test_u23_matches_hand_enumerated_fan():
    m = om_from_arrangement(U23)
    assert m.n == 3 and m.rank == 2
    assert len(m.covectors) == 13
    topes = {t.to_str() for t in m.topes}
    assert topes == {"+++", "-++", "--+", "---", "+--", "++-"}
    rays = {v.to_str() for v in m.covectors if v.support not in (0, m.full_mask)}
    assert rays == {"0++", "-0+", "--0", "0--", "+0-", "++0"}
    assert m.flats == {
        0: 0,
        mask(0): 1,
        mask(1): 1,
        mask(2): 1,
        mask(0, 1, 2): 2,
    }
    # walking counterclockwise from +++ each step crosses one line
    order = ["+++", "-++", "--+", "---", "+--", "++-"]
    for a, b in zip(order, order[1:] + order[:1]):
        assert bin(sv(a).separator(sv(b))).count("1") == 1


def test_u23_dim_of_covectors():
    m = om_from_arrangement(U23)
    assert all(m.dim_of[t] == 0 for t in m.topes)
    assert m.dim_of[SignVector.zero(3)] == 2
    assert m.dim_of[sv("0++")] == 1


def test_arrangement_ingestion_validates_axioms():
    m = om_from_arrangement(U23)
    assert check_covector_axioms(m.covectors).ok


def test_covector_order_is_canonical():
    a = om_from_arrangement(U23)
    b = OrientedMatroid(reversed(a.covectors))
    assert a.covectors == b.covectors
    assert a.topes == b.topes


def test_closure_and_subset_rank():
    m = om_from_arrangement(U23)
    assert m.closure(0) == 0
    assert m.closure(mask(0)) == mask(0)
    assert m.closure(mask(0, 1)) == m.full_mask
    assert m.subset_rank(mask(0, 2)) == 2


def test_closure_raises_when_flats_miss_an_intersection():
    # unvalidated: zero sets {0,1} and {1,2} are flats, their meet {1} is not
    topes = [sv("".join(t)) for t in product("+-", repeat=3)]
    m = OrientedMatroid(topes + [sv("000"), sv("00+"), sv("+00")])
    with pytest.raises(RuntimeError, match="closed under intersection"):
        m.closure(mask(1))


def test_rejects_loops_and_non_topes():
    with pytest.raises(NotCovectors):
        OrientedMatroid([sv("00"), sv("+0"), sv("-0")])  # element 1 is a loop
    with pytest.raises(NotCovectors):
        om_from_covectors([sv("0"), sv("+")])


# -- flags -------------------------------------------------------------------


def test_make_flag_normalizes_and_validates():
    m = om_from_arrangement(U23)
    f = make_flag(m, [mask(0)])
    assert f.flats == (0, mask(0), m.full_mask)
    assert f.blocks() == [mask(0), mask(1, 2)]
    with pytest.raises(ValueError):
        make_flag(m, [mask(0, 1)])  # not a flat
    with pytest.raises(ValueError):
        make_flag(m, [mask(1), mask(0)])  # not increasing


def test_enumerate_complete_flags_u23():
    m = om_from_arrangement(U23)
    flags = enumerate_flags(m)
    assert len(flags) == 3
    assert all(is_complete_flag(m, f) for f in flags)
    assert {f.flats[1] for f in flags} == {mask(0), mask(1), mask(2)}


def test_enumerate_proper_flags_u23():
    m = om_from_arrangement(U23)
    cones = enumerate_flags(m, complete=False)
    # trivial chain plus one per line
    assert len(cones) == 4
    assert Flag((0, m.full_mask)) in cones


def test_subflag_relation():
    m = om_from_arrangement(U23)
    small = make_flag(m, [])
    big = make_flag(m, [mask(1)])
    assert small.is_subflag_of(big)
    assert not big.is_subflag_of(small)


# -- tope flag sets and initial matroids ------------------------------------


def test_tope_flag_set_u23_golden():
    m = om_from_arrangement(U23)
    f = make_flag(m, [mask(0)])
    ts = {t.to_str() for t in tope_flag_set(m, f)}
    assert ts == {"+++", "-++", "---", "+--"}


def test_tope_flag_set_is_affine_over_gf2():
    # for a complete flag the minus masks form a coset of the span of the
    # block indicator vectors
    for arr in (U22, U23):
        m = om_from_arrangement(arr)
        for f in enumerate_flags(m):
            ts = tope_flag_set(m, f)
            assert len(ts) == 1 << m.rank
            base = ts[0].minus
            diffs = {t.minus ^ base for t in ts}
            span = {0}
            for d in f.blocks():
                span |= {s ^ d for s in span}
            assert diffs == span


@pytest.mark.parametrize("name", ["u34", "a3"])
def test_tope_flag_set_is_cached_and_copied(name):
    m = load(name)
    for f in enumerate_flags(m) + enumerate_flags(m, complete=False):
        direct = [t for t in m.topes
                  if all(zero_out(t, g) in m.covector_set for g in f.flats)]
        got = tope_flag_set(m, f)
        assert got == direct
        assert tope_flag_members(m, f) == frozenset(direct)
        got.clear()
        got.append(m.topes[0])
        assert tope_flag_set(m, f) == direct
        assert tope_flag_set(m, f) is not tope_flag_set(m, f)


def test_initial_matroid_blocks_against_restriction_contraction():
    m = om_from_arrangement(U23)
    f = make_flag(m, [mask(0)])
    mf = initial_matroid(m, f)
    assert check_covector_axioms(mf.covectors).ok
    assert mf.rank == m.rank
    got = {v.to_str() for v in mf.covectors}
    want = {a + bc for a in "0+-" for bc in ["00", "++", "--"]}
    assert got == want
    # its topes are exactly the tope flag set
    assert set(mf.topes) == set(tope_flag_set(m, f))


def test_initial_matroid_second_block_needs_no_flat_support():
    # the rank-one piece on block {1,2} has zero set {0} u {1,2}; the block
    # support {1,2} itself is not a flat of the original fan, which is why
    # restriction of contracted covectors (not support containment) defines it
    m = om_from_arrangement(U23)
    assert mask(1, 2) not in m.flats
    f = make_flag(m, [mask(0)])
    mf = initial_matroid(m, f)
    assert sv("0++") in mf.covector_set
    assert sv("+++") in mf.covector_set


def test_initial_matroid_trivial_flag_is_identity():
    m = om_from_arrangement(U23)
    f = make_flag(m, [])
    mf = initial_matroid(m, f)
    assert mf.covectors == m.covectors


def test_initial_matroid_topes_for_all_complete_flags():
    for arr in (U22, U23):
        m = om_from_arrangement(arr)
        for f in enumerate_flags(m):
            mf = initial_matroid(m, f)
            assert check_covector_axioms(mf.covectors).ok
            assert set(mf.topes) == set(tope_flag_set(m, f))
            assert mf.rank == m.rank


# -- parsers -----------------------------------------------------------------


def test_parse_arrangement_roundtrip():
    text = "3 2\n1 0\n1 1\n0 1\n"
    arr = parse_arrangement(text)
    assert arr == U23
    withcomments = "# demo\n3 2\n\n1 0\n1/1 2/2\n0 1\n"
    assert parse_arrangement(withcomments) == U23


def test_parse_arrangement_rationals():
    arr = parse_arrangement("1 2\n1/3 -2/5\n")
    assert arr.normals == ((Fraction(1, 3), Fraction(-2, 5)),)


def test_parse_arrangement_errors_carry_line_numbers():
    with pytest.raises(ParseError) as e:
        parse_arrangement("2 2\n1 0\n1\n")
    assert e.value.line == 3
    with pytest.raises(ParseError) as e:
        parse_arrangement("2 2\n1 0\nx y\n")
    assert e.value.line == 3
    with pytest.raises(ParseError):
        parse_arrangement("2 2\n1 0\n")
    with pytest.raises(ParseError):
        parse_arrangement("2 2\n1 0\n0 0\n")
    with pytest.raises(ParseError):
        parse_arrangement("")


def test_parse_covector_lines():
    vecs = parse_covector_lines("# fan\n+++\n0++\n")
    assert vecs == [sv("+++"), sv("0++")]
    with pytest.raises(ParseError) as e:
        parse_covector_lines("+++\n++\n")
    assert e.value.line == 2
    with pytest.raises(ParseError):
        parse_covector_lines("+x+\n")
    with pytest.raises(ParseError):
        parse_covector_lines("# nothing\n")


# -- braid-style sanity ------------------------------------------------------


def braid(k: int) -> Arrangement:
    """The braid arrangement: normals e_i - e_j, 0 <= i < j < k, in R^k."""
    normals = []
    for i in range(k):
        for j in range(i + 1, k):
            v = [Fraction(0)] * k
            v[i] = Fraction(1)
            v[j] = Fraction(-1)
            normals.append(tuple(v))
    return Arrangement(tuple(normals))


def test_braid_arrangement_counts():
    m = om_from_arrangement(braid(4))
    assert m.n == 6
    assert m.rank == 3
    assert len(m.topes) == 24
    assert len(m.covectors) == 75
    assert len(m.flats_by_rank[1]) == 6
    assert len(m.flats_by_rank[2]) == 7
    assert len(enumerate_flags(m)) == 18
