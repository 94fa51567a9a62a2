"""Tests for the exact GF(2)/Z linear algebra kernel."""

from __future__ import annotations

import random
from itertools import product
from math import gcd

import pytest
from closed_forms import generic, type_b
from oracles import (
    gf2_rref_by_rescan,
    gf2_solver_by_scan,
    hermite_normal_form_dense,
    int_identity,
    int_kernel_dense,
    intersect,
    int_rank,
    lattice_saturated,
    mat_mul,
    mat_vec,
    rank_mod,
    smith_normal_form_by_pivots,
)

from topespace import linalg
from topespace.corpus import load
from topespace.linalg import (
    GF2Solver,
    LatticeZ,
    SubspaceGF2,
    bits_of,
    gf2_kernel,
    gf2_rref,
    hermite_normal_form,
    int_image_and_relations,
    int_kernel,
    kernel_within,
    lattice_equal,
    mask_from_bits,
    parity,
    smith_normal_form,
    snf_diagonal_sparse,
    solve_diophantine,
    xor_span,
)
from topespace.om import om_from_arrangement
from topespace.salvetti import get_fine, get_salvetti


def brute_kernel_gf2(rows, ncols):
    """Oracle: enumerate all vectors and keep those killed by every row."""
    out = set()
    for bits in product([0, 1], repeat=ncols):
        v = sum(b << i for i, b in enumerate(bits))
        if all(parity(r & v) == 0 for r in rows):
            out.add(v)
    return out


def span_gf2(gens):
    out = {0}
    for g in gens:
        out |= {x ^ g for x in out}
    return out


def test_kernel_of_all_ones_row_is_even_weight_vectors():
    kern = gf2_kernel([0b1111], 4)
    expected = brute_kernel_gf2([0b1111], 4)
    assert span_gf2(kern.rows) == expected
    assert kern.dim == 3


def test_kernel_random_matrices_match_enumeration_oracle():
    rng = random.Random(7)
    for _ in range(40):
        ncols = rng.randrange(1, 7)
        rows = [rng.getrandbits(ncols) for _ in range(rng.randrange(0, 5))]
        kern = gf2_kernel(rows, ncols)
        assert span_gf2(kern.rows) == brute_kernel_gf2(rows, ncols)


def test_rank_nullity():
    rng = random.Random(21)
    for _ in range(40):
        ncols = rng.randrange(1, 10)
        rows = [rng.getrandbits(ncols) for _ in range(rng.randrange(0, 8))]
        assert len(gf2_rref(rows)[0]) + gf2_kernel(rows, ncols).dim == ncols


def test_rref_is_canonical_under_row_shuffling():
    rng = random.Random(3)
    rows = [0b1101, 0b0110, 0b1011]
    ref, _ = gf2_rref(rows)
    for _ in range(10):
        shuffled = rows[:]
        rng.shuffle(shuffled)
        mixed = [shuffled[0] ^ shuffled[1], shuffled[1], shuffled[2] ^ shuffled[0]]
        assert gf2_rref(mixed)[0] == ref


def test_gf2_rref_matches_the_rescan_reference():
    # the echelon pass and one back-reduction sweep against reducing every
    # earlier pivot row at each new pivot: random row sets, half of them
    # with dependent rows, then the mod-2 boundaries of every Salvetti
    # complex of the corpus and of b3
    rng = random.Random(31)
    for _ in range(300):
        ncols, nrows = rng.randrange(1, 90), rng.randrange(0, 60)
        rows = [rng.getrandbits(ncols) for _ in range(nrows)]
        if nrows and rng.random() < 0.5:
            rows += [rows[rng.randrange(nrows)] ^ rows[rng.randrange(nrows)]
                     for _ in range(nrows // 2)]
        assert gf2_rref(rows) == gf2_rref_by_rescan(rows)
    for m in [load(name) for name in ("u11", "u22", "u23", "u34", "a3")] + [
            om_from_arrangement(type_b(3).arrangement)]:
        sal = get_salvetti(m)
        for d in range(1, sal.dim + 1):
            rows = sal.boundary_masks(d)
            assert gf2_rref(rows) == gf2_rref_by_rescan(rows), d


def _reduce_naive(v, basis):
    """Reduce v against a dict {lowest bit: row}, built by plain elimination."""
    while v:
        low = v & -v
        if low not in basis:
            return v
        v ^= basis[low]
    return 0


def _naive_basis(rows):
    basis = {}
    for row in rows:
        row = _reduce_naive(row, basis)
        if row:
            basis[row & -row] = row
    return basis


def test_rref_and_solver_on_random_systems():
    rng = random.Random(29)
    for _ in range(40):
        ncols = rng.randrange(1, 70)
        nrows = rng.randrange(1, 50)
        rows = [rng.getrandbits(ncols) for _ in range(nrows)]
        if rng.random() < 0.5:  # dependent rows
            rows += [rows[rng.randrange(nrows)] ^ rows[rng.randrange(nrows)]
                     for _ in range(nrows // 2)]
        rr, pivots = gf2_rref(rows)
        assert pivots == sorted(set(pivots))
        for piv, row in zip(pivots, rr):
            assert (row & -row) == 1 << piv
            assert all(not (other >> piv) & 1 for other in rr if other != row)
        # the output spans exactly the input
        from_input, from_output = _naive_basis(rows), _naive_basis(rr)
        assert len(from_output) == len(rr) == len(from_input)
        assert all(_reduce_naive(r, from_output) == 0 for r in rows)
        assert all(_reduce_naive(r, from_input) == 0 for r in rr)

        def apply(x):
            return mask_from_bits(i for i, r in enumerate(rows) if parity(r & x))

        solver = GF2Solver(rows, ncols)
        b = apply(rng.getrandbits(ncols))
        assert apply(solver.solve(b)) == b
        assert apply(solver.solve(b, rng=random.Random(7))) == b
        kernel = solver.kernel_basis()
        assert len(kernel) == ncols - len(rr)
        assert all(apply(k) == 0 for k in kernel)
        assert len(_naive_basis(kernel)) == len(kernel)
        # the zero combinations are a basis of the relations among the rows
        combos = solver.zero_combos
        assert len(combos) == len(rows) - len(rr)
        assert len(_naive_basis(combos)) == len(combos)
        for combo in combos:
            total = 0
            for i in bits_of(combo):
                total ^= rows[i]
            assert total == 0


def test_solver_factorization_matches_the_scanning_elimination():
    # the pivot lookup gives the pivot rows, combinations and zero combos of
    # testing every earlier pivot in turn, in the same order
    rng = random.Random(73)
    for _ in range(150):
        nrows, ncols = rng.randrange(0, 30), rng.randrange(1, 40)
        rows = [rng.getrandbits(ncols) & rng.getrandbits(ncols) for _ in range(nrows)]
        for i in range(nrows):
            if i >= 2 and rng.random() < 0.3:
                rows[i] = rows[rng.randrange(i)] ^ rows[rng.randrange(i)]
        solver = GF2Solver(rows, ncols)
        assert (solver.pivot_rows, solver.zero_combos) == gf2_solver_by_scan(rows)


def test_solver_solutions_relations_and_prefixes_on_random_systems():
    # every solution solves the system, every zero combination is a relation
    # among the rows, and a prefix is the fresh factorization of the leading
    # rows over the leading columns, pivot row for pivot row
    rng = random.Random(97)
    for _ in range(80):
        nrows, ncols = rng.randrange(1, 40), rng.randrange(1, 50)
        c, k = rng.randrange(1, ncols + 1), rng.randrange(0, nrows + 1)
        rows = [rng.getrandbits(c) if i < k else rng.getrandbits(ncols) for i in range(nrows)]
        for i in range(2, nrows):
            if rng.random() < 0.3:  # a dependent row, leading if its sources are
                rows[i] = rows[rng.randrange(i)] ^ rows[rng.randrange(i)]
        solver = GF2Solver(rows, ncols)

        def apply(x):
            return mask_from_bits(i for i, r in enumerate(rows) if parity(r & x))

        for b in (apply(rng.getrandbits(ncols)), rng.getrandbits(nrows)):
            for x in (solver.solve(b), solver.solve(b, rng=random.Random(5))):
                assert x is None or (x >> ncols == 0 and apply(x) == b)
        for combo in solver.zero_combos:
            total = 0
            for i in bits_of(combo):
                total ^= rows[i]
            assert combo and total == 0
        pre, own = solver.prefix(k, c), GF2Solver(rows[:k], c)
        assert (pre.ncols, pre.pivot_rows, pre.zero_combos) == (own.ncols, own.pivot_rows, own.zero_combos)
        assert pre.free_cols == own.free_cols and pre.kernel_basis() == own.kernel_basis()


def test_prefix_is_the_factorization_of_the_leading_equations():
    rng = random.Random(31)
    for _ in range(60):
        ncols = rng.randrange(1, 60)
        c = rng.randrange(1, ncols + 1)
        k = rng.randrange(0, 30)
        # the leading equations meet only the first c columns
        lead = [rng.getrandbits(c) for _ in range(k)]
        if k and rng.random() < 0.5:  # dependent leading rows
            lead += [lead[rng.randrange(k)] ^ lead[rng.randrange(k)] for _ in range(k // 2)]
            k = len(lead)
        rows = lead + [rng.getrandbits(ncols) for _ in range(rng.randrange(0, 30))]
        pre = GF2Solver(rows, ncols).prefix(k, c)
        own = GF2Solver(lead, c)
        assert sorted(p for p, _, _ in pre.pivot_rows) == sorted(p for p, _, _ in own.pivot_rows)
        assert (SubspaceGF2.from_generators(k, pre.zero_combos)
                == SubspaceGF2.from_generators(k, own.zero_combos))
        assert (SubspaceGF2.from_generators(c, pre.kernel_basis())
                == SubspaceGF2.from_generators(c, own.kernel_basis()))

        def apply(x):
            return mask_from_bits(i for i in range(k) if parity(lead[i] & x))

        for b in (apply(rng.getrandbits(c)), rng.getrandbits(k) if k else 0):
            x = pre.solve(b)
            assert (x is None) == (own.solve(b) is None)
            if x is not None:
                assert x >> c == 0 and apply(x) == b
                y = pre.solve(b, rng=random.Random(3))
                assert y >> c == 0 and apply(y) == b
        if k:
            bad = list(rows)
            bad[rng.randrange(k)] |= 1 << c  # a bit above the first c columns
            with pytest.raises(ValueError):
                GF2Solver(bad, ncols + 1).prefix(k, c)


def test_subspace_membership_and_equality():
    s = SubspaceGF2.from_generators(4, [0b0011, 0b1100])
    assert s.contains(0b1111)
    assert not s.contains(0b0001)
    t = SubspaceGF2.from_generators(4, [0b1111, 0b0011])
    assert s == t
    assert s.contains_subspace(t)


def test_solver_agrees_with_brute_force():
    rng = random.Random(11)
    for _ in range(30):
        ncols = rng.randrange(1, 6)
        nrows = rng.randrange(1, 5)
        rows = [rng.getrandbits(ncols) for _ in range(nrows)]
        solver = GF2Solver(rows, ncols)
        b = rng.getrandbits(nrows)
        sols = [
            v
            for v in range(1 << ncols)
            if all(parity(rows[i] & v) == ((b >> i) & 1) for i in range(nrows))
        ]
        got = solver.solve(b)
        if sols:
            assert got in sols
            # randomized solves stay inside the solution set
            got2 = solver.solve(b, rng=random.Random(5))
            assert got2 in sols
            assert span_gf2(solver.kernel_basis()) == {s ^ sols[0] for s in sols}
        else:
            assert got is None


# ---------------------------------------------------------------------------
# integer side


def minor_gcds(a, k):
    """Oracle: gcd of all k x k minors (0 when none is nonzero)."""
    from itertools import combinations

    m, n = len(a), len(a[0])
    g = 0
    for rows in combinations(range(m), k):
        for cols in combinations(range(n), k):
            g = gcd(g, det([[a[i][j] for j in cols] for i in rows]))
    return g


def det(a):
    n = len(a)
    if n == 1:
        return a[0][0]
    total = 0
    for j in range(n):
        sub = [row[:j] + row[j + 1 :] for row in a[1:]]
        total += (-1) ** j * a[0][j] * det(sub)
    return total


def test_smith_normal_form_small_golden():
    a = [[2, 4], [6, 8]]
    diag = smith_normal_form(a)
    # oracle: d1 = gcd of entries, d1*d2 = gcd of 2x2 minors = |det|
    d1 = minor_gcds(a, 1)
    d2 = minor_gcds(a, 2) // d1
    assert diag == (d1, d2) == (2, 4)


def test_smith_normal_form_identity_and_zero():
    assert smith_normal_form([[1, 0], [0, 1]]) == (1, 1)
    assert smith_normal_form([[0, 0], [0, 0]]) == ()


def test_smith_normal_form_random_against_minor_gcd_oracle():
    rng = random.Random(13)
    for _ in range(25):
        m = rng.randrange(1, 4)
        n = rng.randrange(1, 4)
        a = [[rng.randrange(-6, 7) for _ in range(n)] for _ in range(m)]
        diag = smith_normal_form(a)
        assert smith_normal_form_by_pivots(a) == diag
        prev = 0
        for k in range(1, min(m, n) + 1):
            g = minor_gcds(a, k)
            if k <= len(diag):
                expect = g // prev if prev else g
                assert diag[k - 1] == expect
                prev = g
            else:
                assert g == 0


def sparse(a):
    """The equations of a dense matrix as sparse rows {col: value}."""
    return [{j: x for j, x in enumerate(row) if x} for row in a]


def test_int_kernel_annihilates_and_is_saturated():
    a = [[1, 2, 3], [2, 4, 6]]
    lat = int_kernel(sparse(a), 3)
    assert lat.rank == 2
    for x in lat.basis:
        assert mat_vec(a, list(x)) == [0, 0]
    # the basis is the canonical HNF one
    assert lat == LatticeZ.from_generators(3, lat.basis)
    # saturation: reducing the kernel basis mod 2 keeps full rank
    assert lat.mod2().dim == 2


def test_int_kernel_of_no_equations_is_everything():
    for n in range(5):
        assert int_kernel([], n) == LatticeZ.from_generators(n, int_identity(n))
        assert int_kernel([{}], n) == int_kernel([], n)
        assert int_kernel([dict.fromkeys(range(n), 0)], n) == int_kernel([], n)


def test_int_rank_matches_snf():
    rng = random.Random(5)
    for _ in range(20):
        m = rng.randrange(1, 5)
        n = rng.randrange(1, 5)
        a = [[rng.randrange(-5, 6) for _ in range(n)] for _ in range(m)]
        assert int_rank(a) == len(smith_normal_form(a))


def test_hnf_canonical_and_idempotent():
    rng = random.Random(17)
    for _ in range(25):
        n = rng.randrange(1, 5)
        gens = [[rng.randrange(-8, 9) for _ in range(n)] for _ in range(rng.randrange(1, 5))]
        h = hermite_normal_form(gens, n)
        assert hermite_normal_form(h, n) == h
        # unimodular-ish mixing of generators leaves the HNF unchanged
        mixed = [list(g) for g in gens]
        if len(mixed) >= 2:
            mixed[0] = [x + 3 * y for x, y in zip(mixed[0], mixed[1])]
            mixed.append([-x for x in mixed[1]])
        assert hermite_normal_form(mixed, n) == h


def _hnf_draws(rng: random.Random):
    """Seeded Hermite-form inputs: small matrices with entries in ±3, zero
    rows and negative leading entries, then the `[Aᵀ | I]` shape of
    `int_kernel` for wide 0/1 rows A."""
    for _ in range(200):
        nrows, ncols = rng.randrange(0, 9), rng.randrange(1, 9)
        rows = [[rng.randrange(-3, 4) for _ in range(ncols)] for _ in range(nrows)]
        for r in rows:
            if rng.random() < 0.15:
                r[:] = [0] * ncols
            elif r[0] > 0 and rng.random() < 0.5:
                r[0] = -r[0]
        yield rows, ncols
    for _ in range(40):
        m, n = rng.randrange(1, 12), rng.randrange(10, 50)
        a = [[int(rng.random() < 0.4) for _ in range(n)] for _ in range(m)]
        yield [[a[i][j] for i in range(m)] + [int(k == j) for k in range(n)]
               for j in range(n)], m + n


def test_hnf_matches_the_dense_oracle():
    for rows, ncols in _hnf_draws(random.Random(71)):
        assert hermite_normal_form(rows, ncols) == hermite_normal_form_dense(rows, ncols)


def test_hnf_rejects_rows_of_the_wrong_length():
    with pytest.raises(ValueError, match="length 2"):
        hermite_normal_form([[1, 0, 0], [1, 2]], 3)


def test_lattice_membership_and_equality():
    lat = LatticeZ.from_generators(2, [[2, 0], [0, 3]])
    assert lat.contains([4, 3])
    assert not lat.contains([1, 0])
    other = LatticeZ.from_generators(2, [[2, 3], [2, -3], [2, 0]])
    # spans differ from lat: [2,3]-[2,-3] = [0,6], gcd gives [0,3]? check directly
    assert lattice_equal(lat, other) == (lat.basis == other.basis)
    same = LatticeZ.from_generators(2, [[2, 3], [0, 3]])
    assert lattice_equal(lat, same)
    with pytest.raises(ValueError):
        lattice_equal(lat, LatticeZ.from_generators(3, [[1, 0, 0]]))


def test_lattice_membership_equivalent_to_solvability():
    rng = random.Random(29)
    for _ in range(20):
        n = rng.randrange(1, 4)
        gens = [[rng.randrange(-4, 5) for _ in range(n)] for _ in range(rng.randrange(1, 4))]
        lat = LatticeZ.from_generators(n, gens)
        v = [rng.randrange(-6, 7) for _ in range(n)]
        # oracle: v in lattice iff y·G = v has an integer solution
        transpose = [[g[i] for g in gens] for i in range(n)]
        assert lat.contains(v) == (solve_diophantine(transpose, v) is not None)


def test_lattice_intersection():
    a = LatticeZ.from_generators(2, [[2, 0], [0, 1]])
    b = LatticeZ.from_generators(2, [[3, 0], [0, 1]])
    got = intersect(a, b)
    assert lattice_equal(got, LatticeZ.from_generators(2, [[6, 0], [0, 1]]))
    full = int_kernel([], 3)
    assert lattice_equal(intersect(full, LatticeZ.zero(3)), LatticeZ.zero(3))


def test_solve_diophantine():
    assert solve_diophantine([[2, 0], [0, 2]], [2, 4]) == [1, 2]
    assert solve_diophantine([[2, 0], [0, 2]], [1, 0]) is None
    assert solve_diophantine([[1, 1]], [5]) is not None
    # inconsistent overdetermined system
    assert solve_diophantine([[1, 0], [1, 0]], [0, 1]) is None


def random_int_matrix(rng, m, n, per_row):
    """An m×n matrix whose rows hold rng.choice(per_row) entries from {±1, ±2, 3}."""
    a = [[0] * n for _ in range(m)]
    for row in a:
        for j in rng.sample(range(n), min(n, rng.choice(per_row))):
            row[j] = rng.choice((1, -1, 2, -2, 3))
    return a


def test_int_kernel_random_differential():
    rng = random.Random(43)
    cases = [random_int_matrix(rng, rng.randint(1, 20), rng.randint(1, 25), (1, 2, 3))
             for _ in range(40)]
    # 20x25 with three entries per row.  A kernel read from the Smith
    # transform V reached 53-bit entries on seed 1 and did not finish within
    # 25 s on seed 3; the Hermite form keeps them under 15 bits.
    cases += [random_int_matrix(random.Random(seed), 20, 25, (3,)) for seed in (1, 2, 3)]
    for a in cases:
        n = len(a[0])
        lat = int_kernel(sparse(a), n)
        kern = [list(x) for x in lat.basis]
        for x in kern:
            assert mat_vec(a, x) == [0] * len(a)
        assert len(kern) == n - int_rank(a)
        assert lattice_saturated(lat)
        assert max((abs(v) for x in kern for v in x), default=0).bit_length() < 64


def test_int_kernel_check_rejects_a_wrong_row(monkeypatch):
    a = [{0: 1, 1: 1}, {1: 1, 2: 1}]
    assert int_kernel(a, 3).basis == ((1, -1, 1),)
    # a Hermite row with a label pivot (column >= 2, the number of
    # equations) whose label part (1, -1, 0) misses the second equation
    monkeypatch.setattr(linalg, "_hermite_rows", lambda rows, ncols: [(2, {2: 1, 3: -1})])
    with pytest.raises(RuntimeError, match="a·x != 0"):
        int_kernel(a, 3)


def test_int_image_and_relations_matches_separate_forms():
    rng = random.Random(53)
    for _ in range(40):
        k, w, lw = rng.randint(1, 12), rng.randint(1, 10), rng.randint(1, 8)
        images = random_int_matrix(rng, k, w, (0, 1, 2, 3))
        labels = random_int_matrix(rng, k, lw, (1, 2))
        rows = [{j: x for j, x in enumerate([*v, *t]) if x} for v, t in zip(images, labels)]
        image, relations = int_image_and_relations(rows, w, lw)
        assert image == hermite_normal_form(images, w)
        assert LatticeZ.from_generators(w, images).basis == tuple(map(tuple, image))
        # relations as the parent computed them: the kernel of the
        # transposed images, recombined over the labels
        combos = int_kernel(sparse(zip(*images)), k).basis
        recombined = [[sum(c * row[j] for c, row in zip(x, labels)) for j in range(lw)]
                      for x in combos]
        assert relations == hermite_normal_form(recombined, lw)
    assert int_image_and_relations([], 0, 0) == ([], [])
    assert int_image_and_relations([{0: 2}, {0: 1, 1: 1}], 0, 2) == ([], [[1, 1], [0, 2]])


def test_lattice_intersection_against_box_membership():
    rng = random.Random(47)
    for _ in range(40):
        n = rng.randint(1, 3)
        lats = [LatticeZ.from_generators(
            n, [[rng.randrange(-4, 5) for _ in range(n)] for _ in range(rng.randint(1, 3))])
            for _ in range(2)]
        got = intersect(lats[0], lats[1])
        assert hermite_normal_form(got.basis, n) == [list(r) for r in got.basis]
        assert lats[0].contains_lattice(got) and lats[1].contains_lattice(got)
        for v in product(range(-4, 5), repeat=n):
            assert got.contains(v) == (lats[0].contains(v) and lats[1].contains(v))


def test_solve_diophantine_random_differential():
    rng = random.Random(53)
    feasible = 0
    for _ in range(60):
        m, n = rng.randint(1, 6), rng.randint(1, 6)
        a = [[rng.randrange(-4, 5) for _ in range(n)] for _ in range(m)]
        if rng.random() < 0.5:
            b = mat_vec(a, [rng.randrange(-3, 4) for _ in range(n)])
        else:
            b = [rng.randrange(-6, 7) for _ in range(m)]
        columns = [[row[j] for row in a] for j in range(n)]
        x = solve_diophantine(a, b)
        assert (x is not None) == LatticeZ.from_generators(m, columns).contains(b)
        if x is not None:
            assert mat_vec(a, x) == b
            feasible += 1
    assert 0 < feasible < 60


@pytest.mark.parametrize("n", [2, 50, 720])
def test_all_ones_equation_takes_at_most_n_row_operations(n, monkeypatch):
    # a tie at the first column goes to the row reaching furthest, so no
    # staircase forms: each label row is reduced once
    calls = []
    sub = linalg._sub_multiple
    monkeypatch.setattr(linalg, "_sub_multiple", lambda *a: calls.append(1) or sub(*a))
    kern = int_kernel([dict.fromkeys(range(n), 1)], n)
    assert kern.rank == n - 1
    assert len(calls) <= n


def test_int_kernel_rejects_columns_out_of_range_and_solve_ragged_matrices():
    with pytest.raises(ValueError, match="column 2, outside 0..1"):
        int_kernel([{0: 1}, {2: 3}], 2)
    with pytest.raises(ValueError, match="column -1"):
        int_kernel([{-1: 1}], 3)
    with pytest.raises(ValueError, match="outside 0..-1"):
        int_kernel([{0: 1}], 0)
    with pytest.raises(ValueError, match="ragged"):
        solve_diophantine([[1, 2], [3]], [0, 0])
    with pytest.raises(ValueError, match="right-hand side"):
        solve_diophantine([[1, 2], [3, 4]], [0])


def _sparse_kernel_draws(rng: random.Random):
    """Seeded equations with zero rows, empty columns, negated and repeated
    rows, and no rows at all, each as dense rows and their width."""
    for _ in range(120):
        nrows, ncols = rng.randrange(0, 10), rng.randrange(0, 12)
        empty = set(rng.sample(range(ncols), rng.randrange(0, ncols + 1) // 2))
        rows = [[0 if j in empty or rng.random() < 0.6 else rng.choice((1, -1, 2, -3))
                 for j in range(ncols)] for _ in range(nrows)]
        for r in list(rows):
            roll = rng.random()
            if roll < 0.15:
                rows.append([0] * ncols)
            elif roll < 0.3:
                rows.append([-x for x in r])
            elif roll < 0.45:
                rows.append(list(r))
        rng.shuffle(rows)
        yield rows, ncols


def test_int_kernel_matches_the_dense_oracle():
    for rows, ncols in _sparse_kernel_draws(random.Random(61)):
        assert int_kernel(sparse(rows), ncols) == int_kernel_dense(rows, ncols)


def test_kernel_prefixes_match_the_dense_oracle():
    # the kernel of a prefix of the equations, cut by 0/1 equations, is the
    # kernel of the longer system; cutting in two steps gives it as well
    rng = random.Random(71)
    for rows, ncols in _sparse_kernel_draws(random.Random(73)):
        k = rng.randrange(len(rows) + 1)
        supports = [sorted(rng.sample(range(ncols), rng.randrange(ncols + 1)))
                    for _ in range(rng.randrange(4))]
        supports += supports[:1]  # a repeated column
        dense = [[int(j in s) for j in range(ncols)] for s in supports]
        want = int_kernel_dense(rows[:k] + dense, ncols)
        basis = int_kernel_dense(rows[:k], ncols).basis
        kernel, image, where = kernel_within(basis, supports, ncols)
        assert kernel == want
        # the image half, over the distinct pairing columns, read at each
        # support's column is the Hermite form of the pairings
        pairings = [[sum(b[j] for j in s) for s in supports] for b in basis]
        expanded = tuple(tuple(row[k] if k >= 0 else 0 for k in where) for row in image)
        assert expanded == LatticeZ.from_generators(len(supports), pairings).basis
        half = len(supports) // 2
        first = kernel_within(basis, supports[:half], ncols)[0]
        assert kernel_within(first.basis, supports[half:], ncols)[0] == want


def test_kernel_within_reads_wide_lanes():
    # the lattice need not be saturated: the result is span B ∩ ker E in
    # HNF, with entries in every lane width, the widest past 8 bytes
    rng = random.Random(79)
    for scale in (1, 1 << 10, 1 << 20, 1 << 40, 1 << 80):
        for _ in range(12):
            n = rng.randint(1, 5)
            gens = [[rng.randrange(-3, 4) * scale + rng.randrange(-2, 3) for _ in range(n)]
                    for _ in range(rng.randint(1, 3))]
            lat = LatticeZ.from_generators(n, gens)
            supports = [sorted(rng.sample(range(n), rng.randint(1, n))) for _ in range(2)]
            dense = [[int(j in s) for j in range(n)] for s in supports]
            assert kernel_within(lat.basis, supports, n)[0] == intersect(lat, int_kernel_dense(dense, n))
    # a pairing at the edge of a lane, 127 or 128, next to a lane that a
    # carry out of it would corrupt
    for k in (127, 128):
        lat = LatticeZ(k + 1, (tuple([1] * k + [0]), tuple([0] * k + [1])))
        assert kernel_within(lat.basis, [list(range(k))], k + 1)[0] == LatticeZ(k + 1, lat.basis[1:])


def test_contains_all_matches_row_by_row_membership():
    # unit pivots take the packed test, other pivots reduce row by row; rows
    # of members and near-members, with entries up to 2^70, in both
    rng = random.Random(83)
    unit = 0
    for rows, ncols in _sparse_kernel_draws(random.Random(89)):
        for lat in (int_kernel_dense(rows, ncols),
                    LatticeZ.from_generators(ncols, [[2 * x for x in r] for r in rows[:2]])):
            unit += all(pivot == 1 for _, pivot, _ in lat._reducers)
            for _ in range(6):
                scale = 1 << rng.choice((0, 5, 70))
                members = [[sum(rng.randrange(-2, 3) * scale * b[j] for b in lat.basis)
                            for j in range(ncols)] for _ in range(rng.randint(1, 3))]
                if rng.random() < 0.5 and ncols:
                    members[-1][rng.randrange(ncols)] += rng.choice((-1, 1, scale))
                assert lat.contains_all(members) == all(lat.contains(v) for v in members)
    assert unit
    # lanes sized by the rows alone would hold -256 and 1 at column 1, whose
    # packed sum -256 + 1·2^8 is 0: neither row is a member
    lat = LatticeZ(2, ((1, 128),))
    assert not lat.contains_all([(2, 0), (0, 1)])
    assert lat.contains_all([(1, 128), (-3, -384)], idx=(0, 1))
    assert not LatticeZ(3, ((1, 0, 128),)).contains_all([(2, 0), (0, 1)], idx=(0, 2))


def test_kernel_prefixes_check_each_prefix(monkeypatch):
    # drop the first image column, one new equation, from the Hermite form
    # inside kernel_within: a returned row misses that equation, and the
    # check on the new equations raises
    real = linalg._hermite_rows

    def dropping(rows, ncols):
        for row in rows:
            row.pop(0, None)
        return real(rows, ncols)

    basis, supports = int_kernel([], 3).basis, [[0, 1], [1, 2]]
    assert kernel_within(basis, supports, 3)[0] == LatticeZ(3, ((1, -1, 1),))
    monkeypatch.setattr(linalg, "_hermite_rows", dropping)
    with pytest.raises(RuntimeError, match="a·x != 0"):
        kernel_within(basis, supports, 3)


def test_intersect_and_solve_on_sparse_draws():
    rng = random.Random(67)
    for rows, ncols in _sparse_kernel_draws(rng):
        # the kernel of all the equations is the meet of the kernels of two
        # halves; a basis that is empty meets anything in zero
        half = len(rows) // 2
        whole = int_kernel_dense(rows, ncols)
        low, high = int_kernel_dense(rows[:half], ncols), int_kernel_dense(rows[half:], ncols)
        assert intersect(low, high) == whole
        assert intersect(whole, LatticeZ.zero(ncols)) == LatticeZ.zero(ncols)
        assert intersect(LatticeZ.zero(ncols), whole) == LatticeZ.zero(ncols)
        b = [rng.randrange(-3, 4) for _ in rows]
        x = solve_diophantine(rows, b)
        columns = LatticeZ.from_generators(len(rows), list(zip(*rows)))
        assert (x is not None) == columns.contains(b)
        if x is not None:
            assert mat_vec(rows, x) == b


def test_snf_diagonal_sparse_matches_dense():
    rng = random.Random(31)
    for _ in range(20):
        m = rng.randrange(1, 6)
        n = rng.randrange(1, 6)
        a = [[rng.choice([0, 0, 1, -1, 2]) for _ in range(n)] for _ in range(m)]
        entries = {(i, j): a[i][j] for i in range(m) for j in range(n) if a[i][j]}
        assert snf_diagonal_sparse(entries, m, n) == list(smith_normal_form(a))


def sparse_entries(a):
    return {(i, j): v for i, row in enumerate(a) for j, v in enumerate(row) if v}


@pytest.fixture
def dense_calls(monkeypatch):
    """Shapes of the remainders snf_diagonal_sparse hands to the dense routine."""
    shapes = []

    def counting(a):
        shapes.append((len(a), len(a[0])))
        return smith_normal_form(a)

    monkeypatch.setattr(linalg, "smith_normal_form", counting)
    return shapes


def three_per_row_draw(rng, m, n):
    """An m x n matrix with three entries per row from {+-1, +-2, 3}."""
    a = [[0] * n for _ in range(m)]
    for row in a:
        for j in rng.sample(range(n), min(3, n)):
            row[j] = rng.choice((1, -1, 2, -2, 3))
    return a


def assert_factors_match_ranks(a, diag):
    """Rank over Q and over GF(2), GF(3), GF(5) against the invariant factors."""
    assert all(d > 0 for d in diag)
    assert all(diag[k] % diag[k - 1] == 0 for k in range(1, len(diag)))
    assert len(diag) == int_rank(a)
    for p in (2, 3, 5):
        assert rank_mod(a, p) == sum(1 for d in diag if d % p)


def test_snf_diagonal_sparse_random_differential(dense_calls):
    rng = random.Random(41)
    remainders = 0
    for _ in range(80):
        m, n = rng.randint(1, 30), rng.randint(1, 30)
        a = three_per_row_draw(rng, m, n)
        before = len(dense_calls)
        diag = snf_diagonal_sparse(sparse_entries(a), m, n)
        remainders += len(dense_calls) > before
        assert diag == list(smith_normal_form(a))
        assert_factors_match_ranks(a, diag)
    # both paths ran: unit elimination alone, and with a dense remainder
    assert 0 < remainders < 80


def test_snf_diagonal_sparse_seeded_draws():
    # One draw per seed, 12-30 x 10-30; with the pivoting form for the dense
    # remainder, 60 of them did not finish within 3 s.
    for seed in range(300):
        rng = random.Random(seed)
        m, n = rng.randint(12, 30), rng.randint(10, 30)
        a = three_per_row_draw(rng, m, n)
        assert_factors_match_ranks(a, snf_diagonal_sparse(sparse_entries(a), m, n))


def test_smith_normal_form_matches_pivoting_oracle_on_sparse_draws():
    # At most two entries per row, where the pivoting oracle finishes.
    rng = random.Random(41)
    for _ in range(80):
        m, n = rng.randint(1, 30), rng.randint(1, 30)
        a = [[0] * n for _ in range(m)]
        for row in a:
            for _ in range(rng.choice((1, 2))):
                row[rng.randrange(n)] = rng.choice((0, 1, -1, 2, -2, 3))
        expected = list(smith_normal_form_by_pivots(a))
        assert snf_diagonal_sparse(sparse_entries(a), m, n) == expected
        assert list(smith_normal_form(a)) == expected


def test_snf_of_a_draw_the_pivoting_form_does_not_finish():
    rng = random.Random(26)
    a = three_per_row_draw(rng, rng.randint(12, 30), rng.randint(10, 30))
    assert (len(a), len(a[0])) == (18, 16)
    expected = [1] * 14 + [6, 6]
    assert snf_diagonal_sparse(sparse_entries(a), 18, 16) == expected
    assert list(smith_normal_form(a)) == expected
    assert int_rank(a) == 16
    assert [rank_mod(a, p) for p in (2, 3, 5)] == [14, 14, 16]


@pytest.mark.parametrize("a", [[[1, 2], [1, 3]], [[2, 1], [3, 1]]])
def test_snf_diagonal_sparse_finds_units_made_by_fill_in(dense_calls, a):
    # The column of 2 and 3 gets its unit pivot only from reducing the two
    # rows against each other: after the other column's pivot in the first
    # matrix, and as the leading column itself in the second.
    assert snf_diagonal_sparse(sparse_entries(a), 2, 2) == list(smith_normal_form(a)) == [1, 1]
    assert dense_calls == []


@pytest.mark.parametrize("a, expected, remainder", [
    ([[2, 3]], [1], (1, 2)),  # the pivot is 2, but there is no torsion
    ([[2, 4]], [2], (1, 2)),
    ([[1, 3], [0, 2]], [1, 2], (1, 1)),  # a unit row splits off above a row led by 2
    ([[2, 1], [0, 1]], [1, 2], (1, 1)),  # only back-reduction clears the 1 above a unit
])
def test_snf_diagonal_sparse_falls_back_past_a_non_unit_pivot(dense_calls, a, expected, remainder):
    assert snf_diagonal_sparse(sparse_entries(a), len(a), len(a[0])) == expected
    assert list(smith_normal_form_by_pivots(a)) == expected
    assert dense_calls == [remainder]


def fine_boundaries(m):
    fine = get_fine(m)
    for p in range(1, fine.sal.dim + 1):
        yield fine.boundary_entries(p), fine.n_simplices(p - 1), fine.n_simplices(p)


def coarse_boundaries(m):
    sal = get_salvetti(m)
    for d in range(1, sal.dim + 1):
        entries = {(r, c): v for c, col in enumerate(sal.signed_boundary(d))
                   for r, v in col.items()}
        yield entries, sal.n_cells(d - 1), sal.n_cells(d)


BOUNDARIES = {
    "u22": lambda: fine_boundaries(load("u22")),
    "u23": lambda: fine_boundaries(load("u23")),
    "u34": lambda: coarse_boundaries(load("u34")),
    "a3": lambda: coarse_boundaries(load("a3")),
    "gen3_6": lambda: coarse_boundaries(om_from_arrangement(generic(3, 6).arrangement)),
    "b3": lambda: coarse_boundaries(om_from_arrangement(type_b(3).arrangement)),
}


@pytest.mark.parametrize("name", BOUNDARIES)
def test_snf_diagonal_sparse_fine_boundaries(dense_calls, name):
    # The fine boundaries of u22 and u23 and the coarse signed boundaries of
    # the rest: every echelon pivot is 1, so no remainder reaches the dense
    # form, whose own diagonal takes at most a few ms here.
    for entries, nrows, ncols in BOUNDARIES[name]():
        a = [[0] * ncols for _ in range(nrows)]
        for (i, j), v in entries.items():
            a[i][j] = v
        assert snf_diagonal_sparse(entries, nrows, ncols) == list(smith_normal_form(a))
    assert dense_calls == []


@pytest.mark.parametrize("key", [(2, 0), (0, 3), (-1, 0), (0, -1)])
def test_snf_diagonal_sparse_rejects_entries_outside_shape(key):
    with pytest.raises(ValueError, match="outside a 2x3 matrix"):
        snf_diagonal_sparse({(0, 0): 1, key: 1}, 2, 3)


def test_mat_mul_rejects_mismatched_shapes():
    with pytest.raises(ValueError, match="shape mismatch"):
        mat_mul([[1]], [[1], [2]])


def test_mask_helpers():
    assert mask_from_bits([0, 2]) == 0b101
    assert parity(0b1011) == 1


def test_xor_span_matches_a_bit_pattern_loop():
    rng = random.Random(59)
    cases = [[], [0b1], [0b110, 0b110], [0b1, 0b10, 0b100]]
    cases += [[rng.getrandbits(8) for _ in range(rng.randint(1, 6))] for _ in range(30)]
    for masks in cases:
        expect, sizes = [], []
        for pattern in range(1 << len(masks)):
            x = size = 0
            for k, d in enumerate(masks):
                if pattern >> k & 1:
                    x ^= d
                    size += 1
            expect.append(x)
            sizes.append(size)
        span = xor_span(masks)
        assert span == expect
        assert [parity(k) for k in range(len(span))] == [size & 1 for size in sizes]
    assert xor_span([]) == [0]
    # on disjoint single bits a point's popcount is the size of its subset
    singles = [1 << e for e in (0, 3, 4, 7)]
    assert [parity(x) for x in xor_span(singles)] == [parity(k) for k in range(16)]
