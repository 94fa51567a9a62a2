"""End-to-end acceptance checks.

Each test covers one shipped guarantee and prints a single verdict line
straight to the terminal, bypassing capture, so a plain pytest run shows
the scorecard.  Every comparison is exact: integer or GF(2) arithmetic,
no tolerances.
"""

import random
from time import perf_counter

from closed_forms import braid
from oracles import epsilon, quillen_Q_oracle, tilde_a
from test_cosheaf import b3

from topespace.algebras import nbc_sets, projectivize
from topespace.cli import describe_check
from topespace.corpus import CORPUS, load, names
from topespace.cosheaf import impossibility_check, verify_theorem_C
from topespace.filtrations import (
    asymptotic,
    brick,
    chain_mod2,
    kalinin_K,
    prefix_chain,
    quillen_Q,
    quillen_Z_demo,
    verify_theorem_A,
    verify_theorem_B,
    vg_lower,
    viro_bv,
)
from topespace.linalg import lattice_equal, mask_from_bits
from topespace.om import (
    Arrangement,
    SignVector,
    enumerate_flags,
    make_flag,
    om_from_arrangement,
    tope_flag_set,
)
from topespace.salvetti import get_salvetti, homology_mod2, homology_Z


def sv(s: str) -> SignVector:
    return SignVector.from_str(s)


def chain_by_str(m, chain) -> dict:
    return {t.to_str(): c for t, c in zip(m.topes, chain) if c}


def announce(capsys, number: int, label: str, problems: list) -> None:
    verdict = "PASS" if not problems else "FAIL"
    with capsys.disabled():
        print(f"[{verdict}] criterion {number:2d}: {label}")
    assert not problems, "; ".join(problems)


def test_01_three_line_goldens(capsys):
    problems = []
    t0 = perf_counter()
    m = load("u23")
    sal = get_salvetti(m)
    hom = homology_mod2(sal)
    integral = homology_Z(sal)
    if len(m.covectors) != 13:
        problems.append(f"covectors {len(m.covectors)} != 13")
    if len(m.topes) != 6:
        problems.append(f"topes {len(m.topes)} != 6")
    cells = [sal.n_cells(d) for d in range(sal.dim + 1)]
    if cells != [6, 12, 6]:
        problems.append(f"cells {cells} != [6, 12, 6]")
    if hom.dims() != [1, 3, 2]:
        problems.append(f"mod-2 betti {hom.dims()} != [1, 3, 2]")
    if integral.betti != [1, 3, 2]:
        problems.append(f"integral betti {integral.betti} != [1, 3, 2]")
    if any(t for t in integral.torsion):
        problems.append(f"unexpected torsion {integral.torsion}")
    if sum(hom.dims()) != len(m.topes):
        problems.append("homology total != tope count")
    elapsed = perf_counter() - t0
    if elapsed >= 1.0:
        problems.append(f"took {elapsed:.2f} s, limit 1 s")
    announce(capsys, 1, "three-line arrangement golden data (< 1 s)", problems)


def test_02_filtrations_coincide_mod2(capsys):
    problems = []
    worst = 0.0
    for name in names():
        t0 = perf_counter()
        report = verify_theorem_A(load(name))
        worst = max(worst, perf_counter() - t0)
        if not report.ok:
            problems.append(f"{name}: {report.discrepancy}")
    if worst >= 120.0:
        problems.append(f"slowest member took {worst:.1f} s, limit 120 s")
    announce(capsys, 2, "quillen = reduced lower = kalinin on the whole corpus",
             problems)


def test_03_cochain_route_matches_wedge_route(capsys):
    problems = []
    for name in names():
        report = verify_theorem_B(load(name))
        if not report.ok:
            problems.append(f"{name}: {report.failures[:3]}")
        if sum(row["checked"] for row in report.degrees) == 0:
            problems.append(f"{name}: nothing checked")
    announce(capsys, 3, "cochain evaluation agrees with wedge coordinates",
             problems)


def test_04_dimension_bookkeeping(capsys):
    problems = []
    for name in names():
        m = load(name)
        hom = homology_mod2(get_salvetti(m))
        q = [quillen_Q(m, p).dim for p in range(m.rank + 2)]
        k = [kalinin_K(m, p).dim for p in range(m.rank + 2)]
        r = [vg_lower(m, p).rank for p in range(m.rank + 2)]
        for p in range(m.rank + 1):
            steps = (q[p] - q[p + 1], k[p] - k[p + 1], r[p] - r[p + 1])
            expected = len(nbc_sets(m, p))
            if set(steps) != {expected} or hom.dim(p) != expected:
                problems.append(
                    f"{name} p={p}: steps {steps}, nbc {expected}, "
                    f"homology {hom.dim(p)}"
                )
    announce(capsys, 4, "filtration steps = nbc count = homology dimension",
             problems)


def test_05_homology_total_is_tope_count(capsys):
    problems = []
    for name in names():
        m = load(name)
        hom = homology_mod2(get_salvetti(m))
        if sum(hom.dims()) != len(m.topes):
            problems.append(
                f"{name}: total {sum(hom.dims())} != {len(m.topes)} topes"
            )
    announce(capsys, 5, "mod-2 homology total equals the tope count", problems)


def test_06_worked_values_bit_exact(capsys):
    problems = []
    m = load("u23")
    flag = make_flag(m, [0b001])
    sal = get_salvetti(m)
    hom = homology_mod2(sal)
    a, b, d, e = sv("+++"), sv("-++"), sv("---"), sv("+--")
    alpha, zero = sv("0++"), SignVector.zero(m.n)

    if chain_by_str(m, prefix_chain(m, flag, a, 1)) != {"+++": 1, "-++": -1}:
        problems.append("degree-1 prefix chain wrong")
    want2 = {"+++": 1, "-++": -1, "---": 1, "+--": -1}
    if chain_by_str(m, prefix_chain(m, flag, a, 2)) != want2:
        problems.append("degree-2 prefix chain wrong")
    flipped = {t: -c for t, c in want2.items()}
    if chain_by_str(m, prefix_chain(m, flag, e, 2)) != flipped:
        problems.append("origin change did not flip the sign")

    mask_ab = mask_from_bits(m.tope_index[t] for t in (a, b))
    rep1, cert1 = viro_bv(m, mask_ab, 1)
    want_cycle1 = sal.cell_bit(alpha, a)[1] | sal.cell_bit(alpha, b)[1]
    if rep1 != hom.class_of(1, want_cycle1):
        problems.append("degree-1 homology value wrong")
    if not cert1.verify(m):
        problems.append("degree-1 certificate broken")

    mask4 = mask_from_bits(m.tope_index[t] for t in (a, b, d, e))
    rep2, cert2 = viro_bv(m, mask4, 2)
    want_cycle2 = 0
    for t in (a, b, d, e):
        want_cycle2 |= sal.cell_bit(zero, t)[1]
    if rep2 != hom.class_of(2, want_cycle2):
        problems.append("degree-2 homology value wrong")
    if not cert2.verify(m):
        problems.append("degree-2 certificate broken")

    if chain_mod2(brick(m, flag, a, 1)) != want_cycle1:
        problems.append("degree-1 brick wrong mod 2")
    if chain_mod2(brick(m, flag, a, 2)) != want_cycle2:
        problems.append("degree-2 brick wrong mod 2")

    announce(capsys, 6, "worked prefix chains, homology values, and bricks",
             problems)


def test_07_integral_quillen_rank_grows(capsys):
    problems = []
    rank = quillen_Z_demo(load("u22"), 2)
    if rank != 3:
        problems.append(f"degree-2 product span has rank {rank}, expected 3")
    announce(capsys, 7, "two-line degree-2 integral product span has rank 3",
             problems)


def test_08_stalk_sequences_exact_and_natural(capsys):
    problems = []
    t0 = perf_counter()
    for name in ("u23", "u34"):
        report = verify_theorem_C(load(name))
        if not report.ok:
            bad = [r for r in report.ses if not r.ok]
            bad_nat = [r for r in report.naturality if not r.ok]
            problems.append(f"{name}: {len(bad)} bad sequences, "
                            f"{len(bad_nat)} bad squares")
    elapsed = perf_counter() - t0
    if elapsed >= 60.0:
        problems.append(f"took {elapsed:.1f} s, limit 60 s")
    announce(capsys, 8, "stalk sequences exact over Z, squares commute (< 60 s)",
             problems)


def test_09_projective_parity_dichotomy(capsys):
    problems = []
    for name in names():
        m = load(name)
        for p in range(m.rank + 1):
            r = projectivize(m, p)
            if not r.ok:
                problems.append(f"{name} p={p}: {r.detail}")
                continue
            if p % 2 == 0:
                if r.rank_b != 0 or r.dim_projective != len(nbc_sets(m, p)):
                    problems.append(f"{name} p={p}: even case mismatch")
            else:
                avoiding = len([s for s in nbc_sets(m, p) if 0 not in s])
                if r.dim_projective != avoiding:
                    problems.append(
                        f"{name} p={p}: dim {r.dim_projective} != {avoiding}"
                    )
    announce(capsys, 9, "projective quotients follow the parity dichotomy",
             problems)


def test_10_property_suites(capsys):
    problems = []

    # homology values do not depend on how the certificate ladder is solved
    for name in names():
        m = load(name)
        flag = enumerate_flags(m)[0]
        origins = tope_flag_set(m, flag)[:2]
        data = [(v, p) for v in origins for p in range(1, m.rank + 1)]
        baseline = {}
        for v, p in data:
            mask = chain_mod2(prefix_chain(m, flag, v, p))
            baseline[(v, p)] = viro_bv(m, mask, p)[0]
        for seed in range(20):
            rng = random.Random(seed)
            for v, p in data:
                mask = chain_mod2(prefix_chain(m, flag, v, p))
                if viro_bv(m, mask, p, rng)[0] != baseline[(v, p)]:
                    problems.append(f"{name} seed {seed}: value changed")

    # reduced generating set vs exhaustive affine-subspace oracle
    for name in ("u22", "u23"):
        m = load(name)
        for p in range(m.rank + 2):
            if quillen_Q(m, p) != quillen_Q_oracle(m, p):
                problems.append(f"{name} p={p}: oracle disagrees")

    # pairing formula vs the generator-image values on all prefix data
    for name in names():
        m = load(name)
        for flag in enumerate_flags(m):
            for v in tope_flag_set(m, flag):
                for p in range(m.rank + 1):
                    got = tilde_a(m, prefix_chain(m, flag, v, p), p)
                    if got != epsilon(m, flag, v, p):
                        problems.append(f"{name} pairing mismatch at p={p}")

    # the limit filtration coincides with the lower filtration
    for name in names():
        m = load(name)
        for p in range(m.rank + 2):
            if not lattice_equal(asymptotic(m, p), vg_lower(m, p)):
                problems.append(f"{name} p={p}: limit != lower")

    # negative control: no integral lift exists over the triangle
    report = impossibility_check(load("u23"))
    if report.feasible:
        problems.append("obstruction system unexpectedly solvable")
    if not report.mod2_consistent:
        problems.append("obstruction system not even consistent mod 2")

    announce(capsys, 10, "randomized, oracle, and negative-control suites",
             problems)


def test_11_describe_reaches_b3_and_a4(capsys):
    # integral homology on the coarse complex: the Poincare polynomials of
    # B3 and A4 are (1+t)(1+3t)(1+5t) and (1+t)(1+2t)(1+3t)(1+4t)
    problems = []
    for name, build, want, limit in (("b3", b3, [1, 9, 23, 15], 5.0),
                                     ("a4", lambda: om_from_arrangement(braid(5)),
                                      [1, 10, 35, 50, 24], 10.0)):
        m = build()
        t0 = perf_counter()
        record = describe_check(m, name, None, "z")
        elapsed = perf_counter() - t0
        data = record["data"]
        if data["betti_int"] != want:
            problems.append(f"{name}: betti_int {data['betti_int']} != {want}")
        if any(data["torsion"]):
            problems.append(f"{name}: unexpected torsion {data['torsion']}")
        if not record["pass"]:
            problems.append(f"{name}: describe did not pass")
        if elapsed >= limit:
            problems.append(f"{name}: describe took {elapsed:.2f} s, limit {limit} s")
    m = om_from_arrangement(Arrangement(CORPUS["a3"].normals))
    describe_check(m, "a3", None, "z")
    if "fine" in m._cache:
        problems.append("a3: describe built the fine complex")
    announce(capsys, 11, "describe reaches b3 and a4 on the coarse complex", problems)
