"""Tests for the fan cosheaves: stalks, maps, exactness, and the obstruction."""

import oracles
import pytest
from closed_forms import braid, moment_curve, type_b
from oracles import (
    initial_covectors,
    initial_matroid,
    lower_included_by_rows,
    naturality_square_by_rows,
    proper_subflags_by_scan,
    verify_naturality_dense,
    verify_theorem_C_dense,
)

from topespace import cosheaf, filtrations, linalg
from topespace.algebras import circuits, cordovil_dual, nbc_sets
from topespace.corpus import CORPUS, load, names
from topespace.cosheaf import (
    fan_cones,
    flag_lift,
    impossibility_check,
    stalk_matroid,
    verify_naturality,
    verify_ses,
    verify_theorem_C,
)
from topespace.filtrations import vg_lower
from topespace.linalg import LatticeZ
from topespace.om import (
    Arrangement,
    Flag,
    enumerate_flags,
    is_complete_flag,
    make_flag,
    om_from_arrangement,
)


def proper_flag_count(m) -> int:
    # independent chain count in the poset of proper nonempty flats
    proper = sorted(f for f in m.flats if f and f != m.full_mask)

    def extensions(last: int) -> int:
        total = 1
        for f in proper:
            if f != last and last & ~f == 0:
                total += extensions(f)
        return total

    return extensions(0)


# -- the fan ----------------------------------------------------------------


def test_fan_cone_counts():
    assert len(fan_cones(load("u11"))) == 1
    assert len(fan_cones(load("u23"))) == 4
    assert len(fan_cones(load("u22"))) == 3
    for name in names():
        m = load(name)
        assert len(fan_cones(m)) == proper_flag_count(m)


def test_fan_cone_fields():
    m = load("u23")
    cones = fan_cones(m)
    assert [c.flag for c in cones] == enumerate_flags(m, complete=False)
    for cone in cones:
        assert cone.generators == cone.flag.interior
        assert cone.lineality == m.full_mask
        assert cone.dim == len(cone.generators) + 1


def test_stalk_matroid_trivial_flag_is_identity():
    m = load("u23")
    assert stalk_matroid(m, make_flag(m, [])) is m
    mf = stalk_matroid(m, make_flag(m, [0b001]))
    assert len(mf.topes) == 4
    assert mf.rank == 2


@pytest.mark.parametrize("name, cones, distinct", [("u34", 23, 11), ("a3", 32, 26)])
def test_one_stalk_object_per_covector_set(name, cones, distinct):
    m = load(name)
    flags = [cone.flag for cone in fan_cones(m)]
    stalks = [stalk_matroid(m, flag) for flag in flags]
    assert len(stalks) == cones
    assert len({s.covector_set for s in stalks}) == distinct
    assert len({id(s) for s in stalks}) == distinct
    assert all(stalk_matroid(m, f) is s for f, s in zip(flags, stalks))


# -- stalk maps -------------------------------------------------------------


def test_sign_map_embeds_stalk_topes():
    m = load("u23")
    mf = stalk_matroid(m, make_flag(m, [0b001]))
    idx = cosheaf._tope_map(stalk_matroid(m, make_flag(m, [])), mf)
    assert len(idx) == len(mf.topes) == 4
    assert len(set(idx)) == 4 and all(0 <= i < 6 for i in idx)
    assert [m.topes[i] for i in idx] == list(mf.topes)


def test_identity_pair_gives_identity_matrix():
    # as an index map, the identity matrix is the identity tuple
    m = load("u23")
    mf = stalk_matroid(m, make_flag(m, [0b001]))
    assert cosheaf._tope_map(mf, mf) == (0, 1, 2, 3)


def test_map_rejects_non_subflags():
    m = load("u23")
    sub, sup = make_flag(m, [0b001]), make_flag(m, [0b010])
    rep = verify_naturality(m, sub, sup, 1)
    assert not rep.ok and rep.detail == "first flag is not a subflag of the second"
    assert rep == verify_naturality_dense(m, sub, sup, 1)
    # the two stalks' tope sets are not nested either
    with pytest.raises(ValueError, match="not nested"):
        cosheaf._tope_map(stalk_matroid(m, sub), stalk_matroid(m, sup))


def test_filtered_and_algebra_kinds(monkeypatch):
    # the stalk map respects the lower pieces and the dual-algebra pieces
    m = load("u23")
    mf = stalk_matroid(m, make_flag(m, [0b001]))
    idx = cosheaf._tope_map(m, mf)
    for p in (1, 2):
        assert cosheaf._lower_included(m, mf, p)
        for row in vg_lower(mf, p).basis:
            out = cosheaf._scatter(idx, row, len(m.topes))
            assert [out[i] for i in idx] == list(row)
            assert vg_lower(m, p).contains(out)
        assert cordovil_dual(m, p).contains_lattice(cordovil_dual(mf, p))
    # with the target's degree-1 piece shrunk to its degree-2 piece, the
    # verdict is false, and it is cached per pair and degree
    m = fresh("u23")
    mf = stalk_matroid(m, make_flag(m, [0b001]))
    monkeypatch.setattr(cosheaf, "vg_lower",
                        lambda mm, p: vg_lower(mm, 2 if (mm is m and p == 1) else p))
    assert not cosheaf._lower_included(m, mf, 1)
    monkeypatch.setattr(cosheaf, "vg_lower", vg_lower)
    assert not cosheaf._lower_included(m, mf, 1)


def test_sign_map_composition():
    m = load("u34")
    mid = stalk_matroid(m, make_flag(m, [0b0001]))
    sup = stalk_matroid(m, make_flag(m, [0b0001, 0b0011]))
    direct = cosheaf._tope_map(m, sup)
    first, second = cosheaf._tope_map(m, mid), cosheaf._tope_map(mid, sup)
    assert direct == tuple(first[j] for j in second)
    assert cosheaf._composes(m, mid, sup)


# -- stalk exactness --------------------------------------------------------


def test_trivial_stalk_sequence_matches_global_data():
    m = load("u23")
    trivial = make_flag(m, [])
    for p in range(3):
        rep = verify_ses(m, trivial, p)
        assert rep.ok
        assert rep.rank_p == vg_lower(m, p).rank
        assert rep.rank_next == vg_lower(m, p + 1).rank
        assert rep.rank_a == cordovil_dual(m, p).rank


def test_stalk_sequences_exact_on_u23():
    m = load("u23")
    for cone in fan_cones(m):
        for p in range(m.rank + 1):
            rep = verify_ses(m, cone.flag, p)
            assert rep.ok, (cone.flag.flats, p)


def test_top_degree_stalk_rank_counts_broken_circuit_free_sets():
    m = load("u34")
    for cone in fan_cones(m):
        mf = stalk_matroid(m, cone.flag)
        rep = verify_ses(m, cone.flag, m.rank)
        assert rep.rank_a == len(nbc_sets(mf, m.rank))


def test_ses_runs_one_hermite_form_per_stalk_and_degree(monkeypatch):
    # the exactness check of a stalk and degree p and the step of its lower
    # ladder from degree p to p + 1 are one Hermite form: one
    # int_image_and_relations per distinct stalk and degree 0..rank, across
    # verify_ses and vg_lower together, ladders built to rank + 1 included
    m = fresh("a3")
    calls = []
    real = linalg.int_image_and_relations

    def counting(rows, w, width):
        calls.append(1)
        return real(rows, w, width)

    monkeypatch.setattr(linalg, "int_image_and_relations", counting)
    cones = fan_cones(m)
    reports = [verify_ses(m, cone.flag, p) for cone in cones for p in range(m.rank + 1)]
    stalks = {id(s): s for s in (stalk_matroid(m, cone.flag) for cone in cones)}
    assert [vg_lower(mf, q).rank for mf in stalks.values() for q in (m.rank + 1, m.rank + 2)] == [0] * (
        2 * len(stalks))
    assert len(stalks) < len(cones)
    assert len(calls) == len(stalks) * (m.rank + 1)
    assert [r.flag for r in reports] == [c.flag.flats for c in cones for _ in range(m.rank + 1)]
    assert all(r.ok for r in reports)


def test_naturality_pushes_each_lower_piece_once(monkeypatch):
    m = fresh("u34")
    calls, reduced = [], []
    real, coords_of = LatticeZ.contains_all, LatticeZ.coords_of

    def counting(self, rows, idx=None):
        if idx is not None:
            calls.append((self, len(rows)))
        return real(self, rows, idx)

    def recording(self, v):
        reduced.append(self)
        return coords_of(self, v)

    monkeypatch.setattr(LatticeZ, "contains_all", counting)
    monkeypatch.setattr(LatticeZ, "coords_of", recording)
    monkeypatch.setattr(cosheaf, "_scatter", None)  # no chain is pushed one by one
    report = verify_theorem_C(m)
    assert report.ok
    flags = [cone.flag for cone in fan_cones(m)]
    pairs = [(sub, sup) for sup in flags for sub in flags
             if sub != sup and sub.is_subflag_of(sup)]
    assert len(report.naturality) == len(pairs) * (m.rank + 1)
    # once per distinct pair of stalks, the inclusion tests hand the basis of
    # each degree 0..rank+1 to a target piece other than Z^n in one call,
    # which holds 240 rows of 608 untested; a pair of one stalk with itself
    # is the identity map and tests nothing (72 rows); every target has unit
    # pivots, so each call reduces all its rows once, on packed lanes, where
    # the row-by-row test reduced the other 296 one by one; the pairing
    # square compares subset masks and pushes no chain
    stalk_pairs = {(stalk_matroid(m, sub), stalk_matroid(m, sup)) for sub, sup in pairs}
    assert len(stalk_pairs) < len(pairs)
    inclusions = [(m_sub is m_sup, vg_lower(m_sub, q), len(vg_lower(m_sup, q).basis))
                  for m_sub, m_sup in stalk_pairs for q in range(m.rank + 2)
                  if vg_lower(m_sub, q).rank < len(m_sub.topes)]
    assert sum(k for _, _, k in inclusions) == 368
    tested = sorted((id(t), k) for same, t, k in inclusions if not same)
    assert sorted((id(t), k) for t, k in calls) == tested
    assert len(calls) == 88 and sum(k for _, k in calls) == 296
    assert all(pivot == 1 for t, _ in calls for _, pivot, _ in t._reducers)
    lower = {id(t) for t, _ in calls}
    assert sum(id(t) in lower for t in reduced) == sum(1 for _, k in calls if k)


def test_theorem_C_tests_no_row_against_all_of_z_n(monkeypatch):
    # a lower piece or Cordovil dual of full rank is Z^n, which holds every
    # vector of its length, so neither inclusion test reduces a row against
    # one; every other target has unit pivots, so each test reduces its
    # rows once, on packed lanes, and a pair of one stalk with itself tests
    # nothing: 539 reductions on a3 and gen3_6, where the row-by-row tests
    # made 3,920 - 1,583
    targets = []
    coords_of = LatticeZ.coords_of

    def recording(self, v):
        targets.append(self)
        return coords_of(self, v)

    monkeypatch.setattr(LatticeZ, "coords_of", recording)
    for m in (fresh("a3"), gen3_6()):
        assert verify_theorem_C(m).ok
        # the skip is sound: every such lattice met is Z^n, its basis the identity
        for mf in {id(s): s for s in (stalk_matroid(m, c.flag) for c in fan_cones(m))}.values():
            for lat in [vg_lower(mf, q) for q in range(m.rank + 2)] + [
                    cordovil_dual(mf, p) for p in range(m.rank + 1)]:
                if lat.rank == lat.ambient_dim:
                    assert all(row[i] == 1 for i, row in enumerate(lat.basis))
    assert all(t.rank < t.ambient_dim for t in targets)
    assert all(pivot == 1 for t in targets for _, pivot, _ in t._reducers)
    assert len(targets) == 539


@pytest.mark.parametrize("name", ["u34", "a3"])
def test_stalk_pair_caches_hold_no_chains(name):
    # what is cached per pair of stalks are index maps and verdicts: no entry
    # keyed by another stalk holds a list of pushed rows, and no stalk keeps
    # the pairing images of its lower bases
    m = fresh(name)
    assert verify_theorem_C(m).ok
    stalks = {id(s): s for s in (stalk_matroid(m, c.flag) for c in fan_cones(m))}
    pair_entries = [(key, value) for s in stalks.values() for key, value in s._cache.items()
                    if isinstance(key, tuple) and any(id(k) in stalks for k in key[1:])]
    assert {key[0] for key, _ in pair_entries} == {
        "tope_map", "lower_included", "naturality", "composes"}
    assert not any(isinstance(value, list) for _, value in pair_entries)
    assert not any(isinstance(key, tuple) and key[0] == "lower_images"
                   for s in stalks.values() for key in s._cache)


@pytest.mark.parametrize("name", [*names(), "gen3_6", "b3", "a4"])
def test_proper_subflags_match_the_pairwise_scan(name):
    builders = {"gen3_6": gen3_6, "b3": b3, "a4": a4}
    m = builders[name]() if name in builders else load(name)
    flags = [cone.flag for cone in fan_cones(m)]
    assert cosheaf._proper_subflags(flags) == proper_subflags_by_scan(flags)



def gen4_6():
    return om_from_arrangement(moment_curve(4, 6))


STALK_INPUTS = ("u34", "a3", "b3", "gen3_6", "gen4_6", "a4")


def stalk_input(name):
    return {"b3": b3, "gen3_6": gen3_6, "gen4_6": gen4_6, "a4": a4}.get(name, lambda: fresh(name))()


@pytest.mark.parametrize("name", STALK_INPUTS)
def test_stalks_from_interval_minors_match_initial_covectors(name):
    # every stalk built from interval minors has the initial covector set of
    # its flag and the circuits that rank probes find on a matroid built
    # afresh from that set; flags share a stalk exactly when the sets agree
    m = stalk_input(name)
    by_covectors = {}
    for cone in fan_cones(m):
        mf, oracle = stalk_matroid(m, cone.flag), initial_matroid(m, cone.flag)
        assert mf.covector_set == oracle.covector_set == initial_covectors(m, cone.flag)
        assert circuits(mf) == circuits(oracle)
        assert by_covectors.setdefault(mf.covector_set, mf) is mf
    assert stalk_matroid(m, fan_cones(m)[0].flag) is m


@pytest.mark.parametrize("name", STALK_INPUTS)
def test_lower_inclusion_matches_the_row_by_row_oracle(name):
    # the one-sweep inclusion test on every stalk pair and degree against
    # the row-by-row reduction, on separate matroids
    m, m_oracle = stalk_input(name), stalk_input(name)
    flags = [cone.flag for cone in fan_cones(m)]
    pairs = {}
    for sup, subs in cosheaf._proper_subflags(flags).items():
        for sub in subs:
            pairs.setdefault((stalk_matroid(m, sub), stalk_matroid(m, sup)), (sub, sup))
    for (m_sub, m_sup), (sub, sup) in pairs.items():
        o_sub, o_sup = stalk_matroid(m_oracle, sub), stalk_matroid(m_oracle, sup)
        for q in range(m.rank + 2):
            assert cosheaf._lower_included(m_sub, m_sup, q) == lower_included_by_rows(o_sub, o_sup, q)


def test_lower_inclusion_falls_back_for_a_pivot_other_than_1(monkeypatch):
    # the trivial flag's degree-1 piece is replaced by the lattice with its
    # first basis row doubled, an HNF basis with pivot 2: no packed test, the
    # rows are reduced one by one, and the verdicts match the dense oracle
    m, m_dense = fresh("u34"), fresh("u34")
    planted = {}

    def wrong(mm, p):
        lat = vg_lower(mm, p)
        if mm in (m, m_dense) and p == 1:
            first, *rest = lat.basis
            lat = planted.setdefault(id(mm), LatticeZ(lat.ambient_dim, (tuple(2 * x for x in first), *rest)))
        return lat

    monkeypatch.setattr(cosheaf, "vg_lower", wrong)
    monkeypatch.setattr(oracles, "vg_lower", wrong)
    reduced = []
    coords_of = LatticeZ.coords_of

    def recording(self, v):
        reduced.append((self, sum(map(abs, v))))
        return coords_of(self, v)

    monkeypatch.setattr(LatticeZ, "coords_of", recording)
    sup = make_flag(m, [0b0001])
    rep = verify_naturality(m, make_flag(m, []), sup, 1)
    assert rep == verify_naturality_dense(m_dense, make_flag(m_dense, []), sup, 1)
    assert not rep.ok and rep.detail == "inclusion does not respect the degree-1 lower piece"
    target = planted[id(m)]
    assert target._lane_scale == 0
    # each reduced vector is one scattered row, never a packed one
    rows = {sum(map(abs, r)) for r in vg_lower(stalk_matroid(m, sup), 1).basis}
    assert [n for t, n in reduced if t is target] and all(n in rows for t, n in reduced if t is target)
    report = verify_theorem_C(m)
    assert report == verify_theorem_C_dense(m_dense)
    assert not report.ok


# -- naturality -------------------------------------------------------------


def test_naturality_identity_pair():
    m = load("u23")
    flag = make_flag(m, [0b001])
    rep = verify_naturality(m, flag, flag, 1)
    assert rep.ok


def test_naturality_u23_pair():
    m = load("u23")
    rep = verify_naturality(m, make_flag(m, []), make_flag(m, [0b001]), 1)
    assert rep.ok
    assert rep.checked == 3


def test_naturality_all_pairs_u23():
    m = load("u23")
    flags = [c.flag for c in fan_cones(m)]
    for sup in flags:
        for sub in flags:
            if not sub.is_subflag_of(sup):
                continue
            for p in range(m.rank + 1):
                assert verify_naturality(m, sub, sup, p).ok


# -- flag lifting -----------------------------------------------------------


def test_flag_lift_trivial_base():
    m = load("u23")
    trivial = make_flag(m, [])
    g = make_flag(m, [0b010])
    assert flag_lift(m, trivial, g) == g


def test_flag_lift_u23_goldens():
    m = load("u23")
    flag = make_flag(m, [0b001])
    mf = stalk_matroid(m, flag)
    g1 = make_flag(mf, [0b001])
    assert flag_lift(m, flag, g1) == make_flag(m, [0b001])
    # the other complete flag of the stalk lifts to the same base flag but
    # contributes its blocks in the opposite order
    g2 = make_flag(mf, [0b110])
    lifted = flag_lift(m, flag, g2)
    assert lifted == make_flag(m, [0b001])
    assert sorted(g2.blocks()) == sorted(lifted.blocks())


def test_flag_lift_rejects_foreign_flags():
    m = load("u23")
    flag = make_flag(m, [0b001])
    with pytest.raises(ValueError):
        flag_lift(m, flag, Flag((0, 0b010, 0b111)))


def test_flag_lift_preserves_difference_multisets_on_corpus():
    for name in names():
        m = load(name)
        for cone in fan_cones(m):
            mf = stalk_matroid(m, cone.flag)
            for g in enumerate_flags(mf):
                lifted = flag_lift(m, cone.flag, g)
                assert is_complete_flag(m, lifted)
                assert sorted(g.blocks()) == sorted(lifted.blocks())


# -- the fan-wide verification ----------------------------------------------


def test_theorem_C_u23():
    m = load("u23")
    report = verify_theorem_C(m)
    assert report.ok, report.failures[:3]
    assert report.cones == 4
    assert len(report.ses) == 4 * 3
    assert len(report.naturality) == 3 * 3
    assert report.compositions == 0


def test_theorem_C_u34():
    m = load("u34")
    report = verify_theorem_C(m)
    assert report.ok, report.failures[:3]
    assert report.cones == 23
    assert report.compositions == 24
    assert all(row.ok for row in report.ses)
    assert all(row.ok for row in report.naturality)


def b3():
    return om_from_arrangement(type_b(3).arrangement)


def gen3_6():
    # six generic planes in R^3, normals on the moment curve
    return om_from_arrangement(moment_curve(3, 6))


def a4():
    # the braid arrangement A4: normals e_i - e_j in R^5
    return om_from_arrangement(braid(5))


def fresh(name):
    return om_from_arrangement(Arrangement(CORPUS[name].normals))


@pytest.mark.parametrize("build", [lambda: fresh("u34"), lambda: fresh("a3"), b3,
                                   gen3_6],
                         ids=["u34", "a3", "b3", "gen3_6"])
def test_theorem_C_matches_dense_oracle(build):
    # separate matroids, so neither path reads what the other cached
    report, oracle = verify_theorem_C(build()), verify_theorem_C_dense(build())
    assert report.cones == oracle.cones
    assert report.ses == oracle.ses
    assert report.naturality == oracle.naturality
    assert report.compositions == oracle.compositions
    assert report.failures == oracle.failures
    assert report.ok == oracle.ok
    assert report.ok


def test_naturality_matches_dense_oracle_when_a_lower_piece_is_wrong(monkeypatch):
    # the trivial flag's degree-1 piece is replaced by its degree-2 piece, so
    # the inclusion of the degree-1 piece of the superflag's stalk must fail
    m, m_dense = fresh("u23"), fresh("u23")
    sub, sup = make_flag(m, []), make_flag(m, [0b001])
    real = vg_lower

    def wrong(mm, p):
        return real(mm, 2 if (mm in (m, m_dense) and p == 1) else p)

    monkeypatch.setattr(cosheaf, "vg_lower", wrong)
    monkeypatch.setattr(oracles, "vg_lower", wrong)
    for p in (0, 1):
        rep = verify_naturality(m, sub, sup, p)
        assert rep == verify_naturality_dense(m, sub, sup, p)
        assert not rep.ok and not rep.inclusions_ok and rep.checked == 0
        assert rep.detail == "inclusion does not respect the degree-1 lower piece"
    assert verify_naturality(m, sub, sup, 2) == verify_naturality_dense(m, sub, sup, 2)
    assert verify_naturality(m, sub, sup, 2).ok
    # and the whole report, every pair below the trivial flag included
    report = verify_theorem_C(m)
    assert report == verify_theorem_C_dense(m_dense)
    assert not report.ok


def stalk_pair_reports(m, m_oracle):
    """For one nested pair of flags per distinct pair of stalks of m, and each
    degree, the naturality report on m and the row-by-row oracle's on
    m_oracle, which shares no cache with m."""
    flags = [cone.flag for cone in fan_cones(m)]
    pairs = {}
    for sup, subs in cosheaf._proper_subflags(flags).items():
        for sub in subs:
            pairs.setdefault((stalk_matroid(m, sub), stalk_matroid(m, sup)), (sub, sup))
    return [(cosheaf._naturality(sub, sup, p, m_sub, m_sup),
             naturality_square_by_rows(sub, sup, p, stalk_matroid(m_oracle, sub),
                                       stalk_matroid(m_oracle, sup)))
            for (m_sub, m_sup), (sub, sup) in pairs.items() for p in range(m.rank + 1)]


@pytest.mark.parametrize("build", [lambda: fresh("u34"), lambda: fresh("a3"), b3, gen3_6],
                         ids=["u34", "a3", "b3", "gen3_6"])
def test_pairing_square_on_supports_matches_the_row_by_row_square(build):
    reports = stalk_pair_reports(build(), build())
    assert [new for new, _ in reports] == [old for _, old in reports]
    assert all(new.ok for new, _ in reports)


def test_pairing_square_on_supports_catches_a_dropped_tope(monkeypatch):
    # the lowest tope is dropped from the support of the third 3-subset on
    # the trivial flag's stalk, m itself; the top degree feeds only the zero
    # piece of degree 4, so every inclusion still holds and the square fails,
    # on the second basis row for some stalk pairs
    m, m_oracle = fresh("u34"), fresh("u34")
    real = filtrations.heaviside_pairing

    def planted(mm, p):
        supports = real(mm, p)
        if mm in (m, m_oracle) and p == 3:
            supports = (*supports[:2], supports[2][1:], *supports[3:])
        return supports

    monkeypatch.setattr(filtrations, "heaviside_pairing", planted)
    monkeypatch.setattr(cosheaf, "heaviside_pairing", planted)
    reports = stalk_pair_reports(m, m_oracle)
    assert [new for new, _ in reports] == [old for _, old in reports]
    failing = [new for new, _ in reports if not new.ok]
    assert failing and all(r.inclusions_ok and not r.square_ok and r.p == 3 for r in failing)
    assert {r.detail for r in failing} == {"pairing square fails on a degree-3 basis chain"}
    assert any(r.checked > 1 for r in failing)
    report = verify_theorem_C(m)
    assert not report.ok
    assert any("naturality fails" in f for f in report.failures)


def test_theorem_C_matches_dense_oracle_when_a_shared_stalk_is_wrong(monkeypatch):
    # a stalk shared by several cones gets its degree-0 piece in place of its
    # degree-1 piece, so pushing it into a subflag's stalk fails; the outcome
    # is cached per pair of stalks and must show on every pair of flags with
    # those stalks, as the dense oracle finds it pair by pair
    flag = Flag((0, 0b0001, 0b0011, 0b1111))
    m, m_dense = fresh("u34"), fresh("u34")
    targets = {stalk_matroid(m, flag), stalk_matroid(m_dense, flag)}
    real = vg_lower

    def wrong(mm, p):
        return real(mm, 0 if (mm in targets and p == 1) else p)

    monkeypatch.setattr(cosheaf, "vg_lower", wrong)
    monkeypatch.setattr(oracles, "vg_lower", wrong)
    report, oracle = verify_theorem_C(m), verify_theorem_C_dense(m_dense)
    assert report == oracle
    assert not report.ok and not all(r.ok for r in report.ses)
    failing = [(stalk_matroid(m, Flag(r.sub)), stalk_matroid(m, Flag(r.sup)), r.p)
               for r in report.naturality if not r.ok]
    assert len(failing) == 10 and len(set(failing)) == 6


# -- the integral lifting obstruction ---------------------------------------


def test_integral_lift_is_infeasible_but_mod2_consistent():
    m = load("u23")
    report = impossibility_check(m)
    assert not report.feasible
    assert report.mod2_consistent
    assert report.unknowns == 15
    assert report.equations > 0


def test_integral_lift_exists_without_a_triangle():
    # two crossing lines carry no parity obstruction, so the same system is
    # solvable; this guards the encoding against being trivially infeasible
    report = impossibility_check(load("u22"))
    assert report.feasible
    assert report.mod2_consistent


def test_integral_lift_guard():
    with pytest.raises(ValueError):
        impossibility_check(load("u34"))
