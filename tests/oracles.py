"""Slow reference implementations that fast paths in the package are tested against."""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, combinations_with_replacement, product
from math import prod
from typing import Iterable, Optional, Sequence

from topespace.algebras import (
    _order_positions,
    cordovil_dual,
    signed_circuits,
    subset_index,
)
from topespace.cosheaf import (
    NaturalityReport,
    SESReport,
    TheoremCReport,
    _scatter,
    _tope_map,
    fan_cones,
    stalk_matroid,
)
from topespace import filtrations
from topespace.filtrations import (
    IntChain,
    _complete_flag_data,
    _ladder_rows,
    heaviside_pairing,
    prefix_chain,
    quillen_cosets,
    vg_lower,
)
from topespace.linalg import (
    GF2Solver,
    IntMatrix,
    LatticeZ,
    SubspaceGF2,
    bits_of,
    gf2_kernel,
    hermite_normal_form,
    int_kernel,
    lattice_equal,
    mask_from_bits,
    smith_normal_form,
    snf_diagonal_sparse,
    xor_span,
    _dense,
    _hermite_rows,
    _sparse,
)
from topespace.om import (
    Arrangement,
    AxiomReport,
    Flag,
    OrientedMatroid,
    SignVector,
    compose,
    enumerate_flags,
    om_from_covectors,
    tope_flag_mask,
    tope_flag_set,
    zero_out,
)
from topespace.salvetti import FineComplex, IntegralHomology, get_salvetti

# A square-free polynomial: sorted index tuple -> integer coefficient.
SFPoly = dict


def coarse_to_fine(fine: FineComplex, d: int, chain: int) -> int:
    """Subdivision of a coarse mod-2 d-chain into fine d-simplices.

    Each coarse cell maps to the sum of its full flags of faces, every
    flag sharing the cell's tope component.
    """
    m = fine.sal.m
    out = 0
    for i in bits_of(chain):
        out ^= m.memo(("c2f", d, i), lambda: _subdivide_cell(fine, d, i))
    return out


def _subdivide_cell(fine: FineComplex, d: int, i: int) -> int:
    l, t = fine.sal.cells[d][i]
    m = fine.sal.m
    # descending covector chains l0 > l1 > ... > ld = l, dims 0..d
    levels: list[list[SignVector]] = []
    for dim in range(d):
        levels.append(
            [v for v in m.covectors if m.dim_of[v] == dim and l.le(v)]
        )
    levels.append([l])
    out = 0
    idx = fine.sim_index[d]

    def grow(pos: int, chain: list[SignVector]):
        nonlocal out
        if pos < 0:
            simplex = tuple(
                fine.el_index[(v, compose(v, t))] for v in reversed(chain)
            )
            out ^= 1 << idx[simplex]
            return
        for v in levels[pos]:
            if chain and not chain[-1].le(v):
                continue
            grow(pos - 1, chain + [v])

    grow(d, [])
    return out


def bz_cochain_eval_by_simplex(fine: FineComplex, s: Iterable[int], p: int, chain: int) -> int:
    """Evaluate the cochain indexed by a p-subset of the ground set.

    On a p-simplex with ascending cells (L_0,T_0) < ... < (L_p,T_p) and the
    subset ordered decreasingly as i_1 > ... > i_p, the value is 1 when every
    L_s is positive at i_t for s < t, and zero at i_t with T_s positive there
    for s >= t; the result is the mod-2 sum over the chain.
    """
    ss = sorted(set(s), reverse=True)
    if len(ss) != p:
        raise ValueError("subset size must match the degree")
    total = 0
    i = 0
    work = chain
    while work:
        if work & 1:
            simplex = fine.simplices[p][i]
            good = True
            for t_pos, e in enumerate(ss, start=1):
                for s_pos in range(p + 1):
                    l, t = fine.elements[simplex[s_pos]]
                    if s_pos < t_pos:
                        if l.sign(e) != 1:
                            good = False
                            break
                    else:
                        if l.sign(e) != 0 or t.sign(e) != 1:
                            good = False
                            break
                if not good:
                    break
            if good:
                total ^= 1
        work >>= 1
        i += 1
    return total


def homology_Z_by_fine(fine: FineComplex) -> IntegralHomology:
    """Integral homology of the fine complex via Smith normal forms of its
    simplicial boundaries; not memoized."""
    top = fine.sal.dim
    diags: list[list[int]] = [[] for _ in range(top + 2)]
    for p in range(1, top + 1):
        diags[p] = snf_diagonal_sparse(
            fine.boundary_entries(p), fine.n_simplices(p - 1), fine.n_simplices(p)
        )
    betti = []
    torsion = []
    for p in range(top + 1):
        betti.append(fine.n_simplices(p) - len(diags[p]) - len(diags[p + 1]))
        torsion.append([x for x in diags[p + 1] if abs(x) > 1])
    return IntegralHomology(betti, torsion)


def check_covector_axioms_by_index(vectors: Iterable[SignVector]) -> AxiomReport:
    """The covector axioms over every pair of covectors, with a witness for
    a failure.

    Checks, in this order: zero vector present, closure under negation,
    closure under composition, and elimination over every ordered pair and
    every separating element.  The first failure is reported with the pair
    (l, k) that comes first in `product(vectors, repeat=2)` order and, for
    elimination, the smallest failing element e.

    Each sign vector is one int `code = plus | minus << n`, so the zero,
    negation and composition tests are probes into one set of codes.
    Elimination for (l, k, e) asks for a covector zero at e that agrees with
    l∘k off the separator S of the pair, so it depends only on S and on
    `want`, the code of l∘k masked off S.  For each S met, an index maps
    the code masked off S of every covector zero somewhere in S to the union
    of the zero sets of the covectors with that masked code; it is built on
    the first pair with separator S.  One probe then tests a pair for every
    e in S at once: the failing elements are `S & ~index[S][want]`.
    """
    vecs = list(dict.fromkeys(vectors))
    if not vecs:
        return AxiomReport(False, "zero", ())
    n = vecs[0].n
    if any(v.n != n for v in vecs):
        raise ValueError("ground set mismatch")
    full = (1 << n) - 1
    codes = [v.plus | v.minus << n for v in vecs]
    code_set = set(codes)
    if 0 not in code_set:
        return AxiomReport(False, "zero", ())
    for v, c in zip(vecs, codes):
        if c >> n | (c & full) << n not in code_set:
            return AxiomReport(False, "negation", (v,))
    zeros = [~(c | c >> n) & full for c in codes]
    # `off[i]` clears the support of vecs[i] from a code: l∘k = l | k & off
    off = [z | z << n for z in zeros]
    for i, lc in enumerate(codes):
        keep = off[i]
        for j, kc in enumerate(codes):
            if lc | (kc & keep) not in code_set:
                return AxiomReport(False, "composition", (vecs[i], vecs[j]))
    index: dict[int, dict[int, int]] = {}
    for i, lc in enumerate(codes):
        lp, lm, keep = lc & full, lc >> n, off[i]
        for j, kc in enumerate(codes):
            sep = (lp & kc >> n) | (lm & kc & full)
            if not sep:
                continue
            clear = ~(sep | sep << n)
            zero_at = index.get(sep)
            if zero_at is None:
                zero_at = index[sep] = {}
                for c, z in zip(codes, zeros):
                    if z & sep:
                        w = c & clear
                        zero_at[w] = zero_at.get(w, 0) | z
            missing = sep & ~zero_at.get((lc | (kc & keep)) & clear, 0)
            if missing:
                e = (missing & -missing).bit_length() - 1
                return AxiomReport(False, "elimination", (vecs[i], vecs[j], e))
    return AxiomReport(True)


def check_covector_axioms_by_scan(vectors: Iterable[SignVector]) -> AxiomReport:
    """The covector axioms by direct scan: every composition is built as a
    `SignVector`, and elimination scans every covector zero at e for every
    ordered pair and every separating element e."""
    vecs = list(dict.fromkeys(vectors))
    if not vecs:
        return AxiomReport(False, "zero", ())
    n = vecs[0].n
    vset = set(vecs)
    if SignVector.zero(n) not in vset:
        return AxiomReport(False, "zero", ())
    for v in vecs:
        if v.negate() not in vset:
            return AxiomReport(False, "negation", (v,))
    for l, k in product(vecs, repeat=2):
        if compose(l, k) not in vset:
            return AxiomReport(False, "composition", (l, k))
    by_zero_at: dict[int, list[SignVector]] = {e: [] for e in range(n)}
    for v in vecs:
        z = v.zero_set
        for e in range(n):
            if (z >> e) & 1:
                by_zero_at[e].append(v)
    for l, k in product(vecs, repeat=2):
        sep = l.separator(k)
        if not sep:
            continue
        lk = compose(l, k)
        keep = ((1 << n) - 1) ^ sep
        for e in range(n):
            if not (sep >> e) & 1:
                continue
            want_plus = lk.plus & keep
            want_minus = lk.minus & keep
            if not any(
                z.plus & keep == want_plus and z.minus & keep == want_minus
                for z in by_zero_at[e]
            ):
                return AxiomReport(False, "elimination", (l, k, e))
    return AxiomReport(True)


def maximal_covector_not_tope_by_scan(covectors: Iterable[SignVector]) -> bool:
    """Whether some covector with no other covector conformally above it
    (a maximal one, by scanning every pair with `le`) misses full support."""
    covs = list(set(covectors))
    full = (1 << covs[0].n) - 1
    maximal = [v for v in covs if not any(v is not w and v.le(w) for w in covs)]
    return any(v.support != full for v in maximal)


def salvetti_cells_by_scan(m: OrientedMatroid) -> list[list[tuple[SignVector, SignVector]]]:
    """The cells (L, T) of the coarse complex per dimension, by composing
    every covector with every tope, in (L, T) mask order."""
    cells: list[list[tuple[SignVector, SignVector]]] = [[] for _ in range(m.rank + 1)]
    for l in m.covectors:
        for t in m.topes:
            if compose(l, t) == t:
                cells[m.dim_of[l]].append((l, t))
    return [sorted(cs, key=lambda c: (c[0].plus, c[0].minus, c[1].plus, c[1].minus))
            for cs in cells]


def boundary_masks_by_scan(m: OrientedMatroid, d: int) -> list[int]:
    """Mod-2 boundary of each coarse d-cell (L, T): for every (d-1)-dimensional
    covector L2 above L, the cell (L2, L2∘T)."""
    sal = get_salvetti(m)
    if d == 0:
        return [0] * sal.n_cells(0)
    index = {key: i for i, key in enumerate(sal.cells[d - 1])}
    lower = [v for v in m.covectors if m.dim_of[v] == d - 1]
    out = []
    for l, t in sal.cells[d]:
        mask = 0
        for l2 in lower:
            if l.le(l2) and l != l2:
                mask |= 1 << index[(l2, compose(l2, t))]
        out.append(mask)
    return out


def kalinin_K_by_projection(m: OrientedMatroid, p: int) -> SubspaceGF2:
    """Degree-p chain-level piece as a projection: the ladder system with
    gamma moved to the unknowns, (gamma, beta_1, ..., beta_p), is homogeneous,
    and the piece is the gamma block of a basis of its whole kernel."""
    nt = len(m.topes)
    if p <= 0:
        return SubspaceGF2.full(nt)
    sal = get_salvetti(m)
    ladder, row_off, col_off = _ladder_rows(m)
    # the degree-p unknowns are the last col_off[p] columns
    rows = [row >> (col_off[-1] - col_off[p]) << nt for row in ladder[:row_off[p + 1]]]
    for j, t in enumerate(m.topes):
        rows[sal.index[0][(t, t)]] ^= 1 << j
    kern = gf2_kernel(rows, nt + col_off[p])
    return SubspaceGF2.from_generators(nt, [v & ((1 << nt) - 1) for v in kern.rows])


def hermite_normal_form_dense(rows, ncols: int) -> IntMatrix:
    """Canonical row-style HNF by dense row updates: each column's rows are
    found by scanning every working row, and every update and back-reduction
    step rewrites whole rows."""
    work = [list(r) for r in rows if any(r)]
    basis: list[tuple[int, list[int]]] = []  # (pivot col, row)
    for c in range(ncols):
        idx = [i for i, r in enumerate(work) if r[c]]
        if not idx:
            continue
        while len(idx) > 1:
            idx.sort(key=lambda i: abs(work[i][c]))
            i0 = idx[0]
            for i in idx[1:]:
                q = work[i][c] // work[i0][c]
                if q:
                    work[i] = [x - q * y for x, y in zip(work[i], work[i0])]
            idx = [i for i in idx if work[i][c]]
        row = work.pop(idx[0])
        if row[c] < 0:
            row = [-x for x in row]
        basis.append((c, row))
    for k in range(len(basis)):
        c, row = basis[k]
        for j in range(k):
            cj, rj = basis[j]
            q = rj[c] // row[c]
            if q:
                basis[j] = (cj, [x - q * y for x, y in zip(rj, row)])
    return [row for _, row in basis]


def gf2_rref_by_rescan(rows: Iterable[int]) -> tuple[list[int], list[int]]:
    """`gf2_rref`'s (rows, pivot_cols), keeping the basis reduced as it
    grows: each new pivot row is cleared at the pivots found before it and
    then cleared out of every earlier pivot row that meets its pivot."""
    by_pivot: dict[int, int] = {}  # pivot bit -> row
    pivot_mask = 0
    for row in rows:
        while hit := row & pivot_mask:
            row ^= by_pivot[hit & -hit]
        if row:
            low = row & -row
            for b, r in by_pivot.items():
                if r & low:
                    by_pivot[b] = r ^ row
            by_pivot[low] = row
            pivot_mask |= low
    out = sorted(by_pivot.items())
    return [r for _, r in out], [b.bit_length() - 1 for b, _ in out]


def gf2_solver_by_scan(rows: Iterable[int]) -> tuple[list[tuple[int, int, int]], list[int]]:
    """`GF2Solver`'s (pivot_rows, zero_combos), clearing each new row by
    testing every earlier pivot in the order the pivots were found."""
    pivot_rows: list[tuple[int, int, int]] = []
    zero_combos: list[int] = []
    for i, row in enumerate(rows):
        combo = 1 << i
        for piv, prow, pcombo in pivot_rows:
            if (row >> piv) & 1:
                row ^= prow
                combo ^= pcombo
        if row:
            pivot_rows.append(((row & -row).bit_length() - 1, row, combo))
        else:
            zero_combos.append(combo)
    return pivot_rows, zero_combos


def int_identity(n: int) -> IntMatrix:
    return [[int(i == j) for j in range(n)] for i in range(n)]


def mat_vec(a: IntMatrix, x: list[int]) -> list[int]:
    return [sum(v * xv for v, xv in zip(row, x)) for row in a]


def int_relations_dense(images: Sequence, labels: Sequence) -> IntMatrix:
    """HNF basis of {sum c_k·labels[k] : sum c_k·images[k] = 0}: the label
    parts of the Hermite rows of the dense rows images[k] + labels[k] whose
    image part is zero."""
    w = len(images[0]) if images else 0
    lw = len(labels[0]) if labels else 0
    h = hermite_normal_form([list(v) + list(t) for v, t in zip(images, labels)], w + lw)
    return [row[w:] for row in h if not any(row[:w])]


def int_kernel_dense(rows: IntMatrix, ncols: int) -> LatticeZ:
    """The integer kernel of dense equations: the transposed rows labelled
    by a dense identity block, then the a·x = 0 check on every kernel row."""
    if any(len(r) != ncols for r in rows):
        raise ValueError(f"ragged matrix: an equation has other than {ncols} entries")
    cols = [[r[j] for r in rows] for j in range(ncols)]
    kern = int_relations_dense(cols, int_identity(ncols))
    for x in kern:
        if any(mat_vec(rows, x)):
            raise RuntimeError("int_kernel_dense check failed: a·x != 0 for a returned row")
    return LatticeZ(ncols, tuple(map(tuple, kern)))


def intersect(a: LatticeZ, b: LatticeZ) -> LatticeZ:
    """The intersection of two lattices in its canonical HNF basis: the
    relations among both bases, each row of `a` labelled by itself and each
    row of `b` by nothing, have label parts spanning it."""
    w = a.ambient_dim
    if w != b.ambient_dim:
        raise ValueError("ambient dimension mismatch")
    rows = [{**_sparse(r), **_sparse(r, w)} for r in a.basis]
    rows += [_sparse(r) for r in b.basis]
    gens = [_dense(row, w, w) for c, row in _hermite_rows(rows, 2 * w) if c >= w]
    return LatticeZ(w, tuple(map(tuple, gens)))


def vg_lower_dense(m: OrientedMatroid, p: int) -> LatticeZ:
    """The degree-p lower piece as the kernel of dense 0/1 Heaviside rows."""
    rows = [[int(mask_from_bits(s) & ~t.plus == 0) for t in m.topes]
            for q in range(p) for s in combinations(range(m.n), q)]
    return int_kernel_dense(rows, len(m.topes))


def vg_lower_mod2(m: OrientedMatroid, p: int) -> SubspaceGF2:
    """The degree-p lower piece over GF(2): the kernel of the Heaviside
    equations of degree < p reduced mod 2."""
    return gf2_kernel((mask_from_bits(topes) for q in range(p)
                       for topes in heaviside_pairing(m, q)), len(m.topes))


def cordovil_relation_rows(m: OrientedMatroid, p: int) -> list[dict[int, int]]:
    """Degree-p relation rows m0 * dC over signed circuits C and square-free
    monomials m0, as sparse rows in p-subset coordinates.

    dC drops one circuit element at a time with its sign; multiplication is
    commutative and a term dies when the monomial meets the remaining
    support.  The surviving terms of one row are distinct monomials.
    """
    index = subset_index(m.n, p)
    rows: list[dict[int, int]] = []
    for c in signed_circuits(m):
        support = bits_of(c.support)
        extra = p - len(support) + 1
        if extra < 0:
            continue
        for mono in combinations(range(m.n), extra):
            mono_mask = mask_from_bits(mono)
            row = {}
            for e in support:
                rest = c.support & ~(1 << e)
                if not mono_mask & rest:
                    row[index[tuple(sorted(mono + tuple(bits_of(rest))))]] = c.sign(e)
            if row:
                rows.append(row)
    return rows


def cordovil_dual_by_kernel(m: OrientedMatroid, p: int) -> LatticeZ:
    """The degree-p Cordovil dual as the integer kernel of the relation rows."""
    return int_kernel(cordovil_relation_rows(m, p), len(subset_index(m.n, p)))


def cordovil_relation_rows_dense(m: OrientedMatroid, p: int) -> IntMatrix:
    """The degree-p relation rows m0 * dC as dense rows, a term added per
    dropped circuit element, keeping the rows that are not zero."""
    index = subset_index(m.n, p)
    rows: IntMatrix = []
    for c in signed_circuits(m):
        support = bits_of(c.support)
        extra = p - len(support) + 1
        for mono in combinations(range(m.n), extra) if extra >= 0 else ():
            row = [0] * len(index)
            for e in support:
                rest = c.support & ~(1 << e)
                if not mask_from_bits(mono) & rest:
                    row[index[tuple(sorted(mono + tuple(bits_of(rest))))]] += c.sign(e)
            if any(row):
                rows.append(row)
    return rows


def int_rank(a: IntMatrix) -> int:
    """Rank over Q, computed exactly (fraction-free elimination)."""
    A = [list(r) for r in a]
    m = len(A)
    n = len(A[0]) if m else 0
    rank = 0
    r = 0
    for c in range(n):
        piv = None
        for i in range(r, m):
            if A[i][c]:
                piv = i
                break
        if piv is None:
            continue
        A[r], A[piv] = A[piv], A[r]
        for i in range(r + 1, m):
            if A[i][c]:
                p, q = A[r][c], A[i][c]
                A[i] = [p * x - q * y for x, y in zip(A[i], A[r])]
        rank += 1
        r += 1
    return rank


def rank_mod(a: IntMatrix, p: int) -> int:
    """Rank over GF(p) for a prime p, by Gauss-Jordan elimination mod p."""
    A = [[x % p for x in row] for row in a]
    n = len(A[0]) if A else 0
    rank = 0
    for c in range(n):
        piv = next((i for i in range(rank, len(A)) if A[i][c]), None)
        if piv is None:
            continue
        A[rank], A[piv] = A[piv], A[rank]
        inv = pow(A[rank][c], -1, p)
        A[rank] = [x * inv % p for x in A[rank]]
        for i in range(len(A)):
            if i != rank and A[i][c]:
                f = A[i][c]
                A[i] = [(x - f * y) % p for x, y in zip(A[i], A[rank])]
        rank += 1
    return rank


def smith_normal_form_by_pivots(a: IntMatrix) -> tuple[int, ...]:
    """Invariant factors by row and column operations on the whole matrix.

    Pivots are chosen by minimal absolute value, and a pivot that does not
    divide the rest of the matrix absorbs an offending row.  The entries of
    the working matrix can grow without bound, so this finishes only on
    small or very sparse matrices.
    """
    m = len(a)
    n = len(a[0]) if m else 0
    if m and any(len(r) != n for r in a):
        raise ValueError("ragged matrix")
    A = [list(r) for r in a]

    def row_sub(i, j, q):  # A[i] -= q*A[j]
        Ai, Aj = A[i], A[j]
        for k in range(n):
            Ai[k] -= q * Aj[k]

    def col_sub(j, i, q):  # col j -= q*col i
        for r in A:
            r[j] -= q * r[i]

    def row_swap(i, j):
        A[i], A[j] = A[j], A[i]

    def col_swap(i, j):
        for r in A:
            r[i], r[j] = r[j], r[i]

    def row_neg(i):
        A[i] = [-x for x in A[i]]

    t = 0
    while t < min(m, n):
        best = None
        for i in range(t, m):
            row = A[i]
            for j in range(t, n):
                v = row[j]
                if v and (best is None or abs(v) < best[0]):
                    best = (abs(v), i, j)
        if best is None:
            break
        _, bi, bj = best
        if bi != t:
            row_swap(t, bi)
        if bj != t:
            col_swap(t, bj)
        if A[t][t] < 0:
            row_neg(t)
        while True:
            dirty = False
            for i in range(t + 1, m):
                if A[i][t]:
                    q = A[i][t] // A[t][t]
                    if q:
                        row_sub(i, t, q)
                    if A[i][t]:
                        row_swap(t, i)
                        dirty = True
            for j in range(t + 1, n):
                if A[t][j]:
                    q = A[t][j] // A[t][t]
                    if q:
                        col_sub(j, t, q)
                    if A[t][j]:
                        col_swap(t, j)
                        dirty = True
            if A[t][t] < 0:
                row_neg(t)
            if not dirty:
                break
        # make the pivot divide everything that is left
        p = A[t][t]
        offender = None
        for i in range(t + 1, m):
            row = A[i]
            for j in range(t + 1, n):
                if row[j] % p:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            row_sub(t, offender, -1)
            continue
        t += 1

    diag = tuple(A[i][i] for i in range(min(m, n)) if A[i][i])
    for k in range(1, len(diag)):
        if diag[k] % diag[k - 1]:
            raise RuntimeError(
                f"smith normal form divisibility chain broken: {diag[k - 1]} does not divide {diag[k]}"
            )
    return diag


def wedge_masks(masks: Sequence[int], n: int) -> SFPoly:
    """Exterior-power coordinates of the wedge of 0/1 vectors given as masks.

    Keys are sorted index tuples; each new factor is inserted in sorted
    position with the transposition parity applied to the coefficient.  The
    reference for the transversal wedges of `quillen_cosets`.
    """
    coeffs: SFPoly = {(): 1}
    for mask in masks:
        nxt: SFPoly = {}
        for subset, c in coeffs.items():
            for j in bits_of(mask):
                if j in subset:
                    continue
                pos = sum(1 for x in subset if x < j)
                sign = -1 if (len(subset) - pos) & 1 else 1
                key = subset[:pos] + (j,) + subset[pos:]
                v = nxt.get(key, 0) + sign * c
                if v:
                    nxt[key] = v
                elif key in nxt:
                    del nxt[key]
        coeffs = nxt
    return coeffs


def sf_mul(a: SFPoly, b: SFPoly) -> SFPoly:
    """Product in Z[x_i]/(x_i^2): terms with overlapping support vanish.  The
    reference for the transversal products of `epsilon`."""
    out: SFPoly = {}
    for s, c in a.items():
        sm = mask_from_bits(s)
        for t, d in b.items():
            if sm & mask_from_bits(t):
                continue
            key = tuple(sorted(s + t))
            v = out.get(key, 0) + c * d
            if v:
                out[key] = v
            elif key in out:
                del out[key]
    return out


def sf_vector(poly: SFPoly, n: int, p: int) -> list[int]:
    """Coordinate row of a homogeneous degree-p square-free polynomial."""
    index = subset_index(n, p)
    row = [0] * len(index)
    for s, c in poly.items():
        if len(s) != p:
            raise ValueError("polynomial is not homogeneous of the requested degree")
        row[index[s]] = c
    return row


def rank_graded_chains(m: OrientedMatroid, p: int) -> list[tuple[int, ...]]:
    """Chains F_1 < ... < F_p of flats with rank(F_i) = i, as mask tuples."""
    chains: list[tuple[int, ...]] = [()]
    for r in range(1, p + 1):
        if r > m.rank:
            return []
        nxt = []
        for chain in chains:
            below = chain[-1] if chain else 0
            for f in m.flats_by_rank[r]:
                if below & ~f == 0 and f != below:
                    nxt.append(chain + (f,))
        chains = nxt
    return chains


def os_dual(m: OrientedMatroid, p: int, ring: str = "z"):
    """Span of the block wedges e_{F_1} ^ e_{F_2-F_1} ^ ... over rank-graded
    chains of flats, as a lattice (ring="z") or GF(2) subspace (ring="z2")."""
    index = subset_index(m.n, p)
    dim = len(index)
    gens = []
    for chain in rank_graded_chains(m, p):
        blocks = []
        below = 0
        for f in chain:
            blocks.append(f & ~below)
            below = f
        row = [0] * dim
        for s, c in wedge_masks(blocks, m.n).items():
            row[index[s]] = c
        gens.append(row)
    if ring == "z":
        return LatticeZ.from_generators(dim, gens)
    if ring == "z2":
        return SubspaceGF2.from_generators(
            dim, [mask_from_bits(i for i, x in enumerate(row) if x & 1) for row in gens]
        )
    raise ValueError(f"unknown ring {ring!r}")


def lattice_saturated(lat: LatticeZ) -> bool:
    """Whether the lattice is a direct summand of its ambient Z^n."""
    if not lat.basis:
        return True
    diag = smith_normal_form([list(r) for r in lat.basis])
    return all(abs(d) == 1 for d in diag)


def vg_lower_by_prefix(m: OrientedMatroid, p: int) -> LatticeZ:
    """Lattice spanned by every degree-p prefix chain over all complete flags."""
    gens = []
    for flag in enumerate_flags(m):
        for v in tope_flag_set(m, flag):
            gens.append(prefix_chain(m, flag, v, p))
    return LatticeZ.from_generators(len(m.topes), gens)


def quillen_Q_oracle(m: OrientedMatroid, p: int) -> SubspaceGF2:
    """Exhaustive regeneration of the degree-p piece from every p-dimensional
    affine subspace of every complete flag's tope set, coordinate or not.

    Intended as a small-instance cross-check for quillen_Q; enumeration is
    exponential in the rank.
    """
    gens: set[int] = set()
    for flag in enumerate_flags(m):
        blocks = flag.blocks()
        tf = tope_flag_set(m, flag)
        directions = []
        for bitspat in range(1, 1 << m.rank):
            d = 0
            for k in range(m.rank):
                if (bitspat >> k) & 1:
                    d ^= blocks[k]
            directions.append(d)
        subspaces: set[frozenset[int]] = set()
        for combo in combinations(directions, p):
            span = {0}
            for d in combo:
                span |= {x ^ d for x in span}
            if len(span) == 1 << p:
                subspaces.add(frozenset(span))
        if p == 0:
            subspaces = {frozenset({0})}
        for span_f in subspaces:
            done: set[int] = set()
            for t in tf:
                if t.minus in done:
                    continue
                members = [t.minus ^ x for x in span_f]
                done.update(members)
                gens.add(mask_from_bits(m.tope_by_minus[mm] for mm in members))
    return SubspaceGF2.from_generators(len(m.topes), sorted(gens))


def quillen_cosets_by_flag(m: OrientedMatroid, p: int) -> list[tuple[int, int]]:
    """`quillen_cosets` without its memo, taking the wedge of the block
    directions afresh for every flag and block subset."""
    index = subset_index(m.n, p)
    out: list[tuple[int, int]] = []
    seen: set[int] = set()
    for flag in enumerate_flags(m):
        blocks = flag.blocks()
        tf = tope_flag_set(m, flag)
        for s in combinations(range(1, m.rank + 1), p):
            dmasks = [blocks[i - 1] for i in s]
            wedge = 0
            for mono, c in wedge_masks(dmasks, m.n).items():
                if c & 1:
                    wedge |= 1 << index[mono]
            span = xor_span(dmasks)
            done: set[int] = set()
            for t in tf:
                if t.minus in done:
                    continue
                members = [t.minus ^ x for x in span]
                done.update(members)
                cmask = mask_from_bits(m.tope_by_minus[mm] for mm in members)
                if cmask not in seen:
                    seen.add(cmask)
                    out.append((cmask, wedge))
    return out


def qbv_by_solver(m: OrientedMatroid, gamma: int, p: int) -> int:
    """`qbv` by a GF(2) solve: the chain is written as a sum of the
    `quillen_cosets` tope masks, over the system of tope rows by coset
    columns (factored once per matroid and degree), and the wedges of the
    cosets used are added up.  Raises ValueError off the degree-p piece."""

    def build():
        cosets = quillen_cosets(m, p)
        rows = [0] * len(m.topes)
        for j, (cmask, _) in enumerate(cosets):
            for i in bits_of(cmask):
                rows[i] |= 1 << j
        return GF2Solver(rows, len(cosets)), cosets

    solver, cosets = m.memo(("qbv_by_solver", p), build)
    x = solver.solve(gamma)
    if x is None:
        raise ValueError("chain is not in the degree-p group-algebra piece")
    out = 0
    for j in bits_of(x):
        out ^= cosets[j][1]
    return out


def quillen_Z_by_products(m: OrientedMatroid, p: int) -> LatticeZ:
    """Integer span of every p-fold product of the augmentation elements
    origin - t of the first complete flag's topes, in tope coordinates.

    Enumerates all C(|tf| + p - 2, p) products, each as a dense group-algebra
    multiplication; degree 0 gives the span of the flag topes.
    """
    flag = enumerate_flags(m)[0]
    tf = tope_flag_set(m, flag)
    nt = len(m.topes)
    if p == 0:
        return LatticeZ.from_generators(nt, [
            [int(k == m.tope_index[t]) for k in range(nt)] for t in tf])
    origin = tf[0]
    gens1: list[list[int]] = []
    for t in tf[1:]:
        row = [0] * nt
        row[m.tope_index[origin]] = 1
        row[m.tope_index[t]] = -1
        gens1.append(row)

    def mul(a: list[int], b: list[int]) -> list[int]:
        out = [0] * nt
        for i, c in enumerate(a):
            if not c:
                continue
            mi = m.topes[i].minus
            for j, d in enumerate(b):
                if not d:
                    continue
                k = m.tope_by_minus[mi ^ m.topes[j].minus ^ origin.minus]
                out[k] += c * d
        return out

    products = []
    for combo in combinations_with_replacement(range(len(gens1)), p):
        acc = gens1[combo[0]]
        for idx in combo[1:]:
            acc = mul(acc, gens1[idx])
        products.append(acc)
    return LatticeZ.from_generators(nt, products)


def quillen_Z_by_all_generators(m: OrientedMatroid, p: int) -> LatticeZ:
    """The integral Quillen span of degree p >= 1 built degree by degree from
    all |tf| - 1 generators origin - t of the first complete flag: an HNF
    basis b of degree q - 1 times each generator, b - b·t with b·t b permuted
    by t, spans degree q; below degree 1 stands the identity tope."""
    nt = len(m.topes)
    tf = tope_flag_set(m, enumerate_flags(m)[0])
    origin = tf[0].minus
    cols = [m.tope_index[t] for t in tf]
    # per generator origin - t, the index of k·t for each flag tope k
    shifts = [[m.tope_by_minus[m.topes[k].minus ^ t.minus ^ origin] for k in cols]
              for t in tf[1:]]
    lattice = LatticeZ(nt, (tuple(int(k == cols[0]) for k in range(nt)),))
    for _ in range(p):
        gens = []
        for b in lattice.basis:
            for shift in shifts:
                row = [0] * nt
                for k, kt in zip(cols, shift):
                    row[k] = b[k] - b[kt]
                gens.append(row)
        lattice = LatticeZ.from_generators(nt, gens)
    return lattice


def antipodal_image_by_sums(m: OrientedMatroid, p: int) -> LatticeZ:
    """The image of the degree-p antipodal piece under the degree-p pairing:
    each basis row summed over each Heaviside support, one coordinate per
    p-subset, put in Hermite form."""
    supports = heaviside_pairing(m, p)
    return LatticeZ.from_generators(len(supports), [[sum(g[i] for i in s) for s in supports]
                                                    for g in filtrations._antipodal_lower(m, p).basis])


def asymptotic_member(m: OrientedMatroid, gamma: IntChain, p: int) -> bool:
    """Whether every tope's difference polynomial of the chain starts in
    degree at least p.

    Against a reference tope, each support tope contributes the product of
    (1 + x_e) over their disagreement set; the coefficient of a square-free
    monomial is the signed count of support topes whose disagreement set
    contains it.
    """
    supp = [(c, m.topes[i]) for i, c in enumerate(gamma) if c]
    for t2 in m.topes:
        seps = [(c, t.separator(t2)) for c, t in supp]
        for q in range(p):
            for s in combinations(range(m.n), q):
                smask = mask_from_bits(s)
                if sum(c for c, sep in seps if smask & ~sep == 0):
                    return False
    return True


def asymptotic_rows_by_tuples(m: OrientedMatroid, p: int) -> list[list[int]]:
    """The equations of the degree-p asymptotic piece as 0/1 tuples, one per
    tope t2 and subset s of fewer than p elements, deduplicated and sorted."""
    rows: set[tuple[int, ...]] = set()
    for t2 in m.topes:
        seps = [t.separator(t2) for t in m.topes]
        for q in range(p):
            for s in combinations(range(m.n), q):
                smask = mask_from_bits(s)
                rows.add(tuple(1 if smask & ~sep == 0 else 0 for sep in seps))
    return [list(r) for r in sorted(rows)]


def initial_covectors(m: OrientedMatroid, flag: Flag) -> frozenset[SignVector]:
    """Covector set of the degeneration of m along a flag, on the same ground set.

    Block by block (consecutive flag differences), the covectors are the
    restrictions of covectors of m that vanish on the lower flat; the result
    is the direct sum of those pieces, realized as sign vectors on the full
    ground set.  The reference for `cosheaf.stalk_matroid`, which builds a
    stalk from its interval minors.
    """
    block_covs: list[set[tuple[int, int]]] = []
    for lo, hi in zip(flag.flats, flag.flats[1:]):
        block = hi & ~lo
        seen = set()
        for v in m.covectors:
            if v.support & lo == 0:
                seen.add((v.plus & block, v.minus & block))
        block_covs.append(seen)
    covs = []
    for pieces in product(*block_covs):
        plus = minus = 0
        for p, mi in pieces:
            plus |= p
            minus |= mi
        covs.append(SignVector(m.n, plus, minus))
    return frozenset(covs)


def initial_matroid(m: OrientedMatroid, flag: Flag) -> OrientedMatroid:
    """The initial matroid of m along a flag, built afresh from
    `initial_covectors` (`cosheaf.stalk_matroid` shares one per covector
    set); its `circuits` come from rank probes."""
    return OrientedMatroid(initial_covectors(m, flag))


def tope_flag_set_by_sign_vectors(m: OrientedMatroid, flag: Flag) -> list[SignVector]:
    """Topes whose restriction away from every flag flat is in the covector
    set, each restriction built as a SignVector."""
    return [t for t in m.topes
            if all(zero_out(t, f) in m.covector_set for f in flag.flats)]


def mat_mul(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    if not a:
        return []
    n = len(b)
    if any(len(row) != n for row in a):
        raise ValueError(f"mat_mul shape mismatch: the right factor has {n} rows")
    cols = len(b[0]) if b else 0
    out = []
    for row in a:
        acc = [0] * cols
        for k, v in enumerate(row):
            if v:
                brow = b[k]
                for j in range(cols):
                    acc[j] += v * brow[j]
        out.append(acc)
    return out


# ---------------------------------------------------------------------------
# Theorem C through dense stalk matrices and per-subset Heaviside sums


def heaviside_eval(m: OrientedMatroid, s: Iterable[int] | int, gamma: IntChain) -> int:
    """Evaluate the monomial of indicator functions of the subset s on a chain.

    Each factor is 1 on a tope exactly when the tope is positive there, so the
    monomial is 1 precisely on topes whose positive part contains s.
    """
    smask = s if isinstance(s, int) else mask_from_bits(s)
    return sum(c for c, t in zip(gamma, m.topes) if smask & ~t.plus == 0)


def tilde_a_dense(m: OrientedMatroid, gamma: IntChain, p: int) -> SFPoly:
    """The pairing of a degree-p lower chain, one Heaviside sum per subset."""
    g = list(gamma)
    if len(g) != len(m.topes):
        raise ValueError("chain length does not match the tope count")
    if not vg_lower(m, p).contains(g):
        raise ValueError("chain is not in the degree-p lower piece")
    out: SFPoly = {}
    for s in combinations(range(m.n), p):
        val = heaviside_eval(m, s, g)
        if val:
            out[s] = val
    return out


def pair_chain(m: OrientedMatroid, gamma: IntChain, p: int) -> list[int]:
    """Coordinates, by p-subset, of the Heaviside monomials evaluated on a
    chain, one sum per `heaviside_pairing` support, looked up in `filtrations`
    at each call; no membership check."""
    at = gamma.__getitem__
    return [sum(map(at, topes)) for topes in filtrations.heaviside_pairing(m, p)]


def tilde_a(m: OrientedMatroid, gamma: IntChain, p: int) -> SFPoly:
    """Degree-p square-free polynomial paired out of a lower-filtration chain.

    The coefficient of a p-subset is the evaluation of its Heaviside monomial
    on the chain; membership in the degree-p piece is checked first.
    """
    g = list(gamma)
    if len(g) != len(m.topes):
        raise ValueError("chain length does not match the tope count")
    if not vg_lower(m, p).contains(g):
        raise ValueError("chain is not in the degree-p lower piece")
    coords = pair_chain(m, g, p)
    return {s: c for s, c in zip(combinations(range(m.n), p), coords) if c}


def epsilon(m: OrientedMatroid, flag: Flag, v: SignVector, p: int) -> SFPoly:
    """Product over the first p flag blocks of the tope-signed linear forms.

    The i-th factor is the sum of sign(v_j) * x_j over j in the i-th block;
    blocks are disjoint, so the product is square-free of degree p, with the
    sign product on each transversal (one element from each block).
    """
    i = m.tope_index.get(v)
    if i is None or not tope_flag_mask(m, flag) >> i & 1:
        raise ValueError("origin tope is not in the tope set of the flag")
    if not 0 <= p <= flag.length:
        raise ValueError(f"degree {p} outside 0..{flag.length}")
    return {tuple(sorted(t)): prod(map(v.sign, t))
            for t in product(*map(bits_of, flag.blocks()[:p]))}


def cosheaf_map_dense(m: OrientedMatroid, sub: Flag, sup: Flag, kind: str = "sign",
                      p: int | None = None):
    """Dense 0/1 stalk matrix of a nested pair, with the P_p and A_p checks."""
    if not sub.is_subflag_of(sup):
        raise ValueError("first flag is not a subflag of the second")
    m_sub = stalk_matroid(m, sub)
    m_sup = stalk_matroid(m, sup)
    if kind in ("sign", "P_p"):
        mat = [[0] * len(m_sup.topes) for _ in range(len(m_sub.topes))]
        for j, t in enumerate(m_sup.topes):
            if t not in m_sub.tope_index:
                raise ValueError("tope sets of the stalks are not nested")
            mat[m_sub.tope_index[t]][j] = 1
        if kind == "P_p":
            if p is None:
                raise ValueError("kind P_p needs a degree")
            target = vg_lower(m_sub, p)
            for row in vg_lower(m_sup, p).basis:
                if not target.contains(mat_vec(mat, list(row))):
                    raise ValueError(
                        f"inclusion does not respect the degree-{p} lower piece"
                    )
        return mat
    if kind == "A_p":
        if p is None:
            raise ValueError("kind A_p needs a degree")
        if not cordovil_dual(m_sub, p).contains_lattice(cordovil_dual(m_sup, p)):
            raise ValueError(
                f"inclusion does not respect the degree-{p} dual-algebra piece"
            )
        return int_identity(len(subset_index(m.n, p)))
    raise ValueError(f"unknown kind {kind!r}")


def verify_ses_dense(m: OrientedMatroid, flag: Flag, p: int) -> SESReport:
    """Stalk exactness with the image lattice and the kernel from two
    separate Hermite forms."""
    mf = stalk_matroid(m, flag)
    lower = vg_lower(mf, p)
    nxt = vg_lower(mf, p + 1)
    a = cordovil_dual(mf, p)
    ncoords = len(subset_index(m.n, p))
    imgs = [sf_vector(tilde_a_dense(mf, list(row), p), m.n, p) for row in lower.basis]
    image = LatticeZ.from_generators(ncoords, imgs)
    surjective = lattice_equal(image, a)
    kernel = int_relations_dense(imgs, lower.basis)
    kernel_ok = lattice_equal(LatticeZ(len(mf.topes), tuple(tuple(r) for r in kernel)), nxt)
    return SESReport(
        flag.flats, p, lower.rank, nxt.rank, a.rank,
        surjective, kernel_ok, surjective and kernel_ok,
    )


def verify_naturality_dense(m: OrientedMatroid, sub: Flag, sup: Flag, p: int) -> NaturalityReport:
    """Naturality with every chain pushed through the dense sign matrix."""
    detail = ""
    try:
        sign = cosheaf_map_dense(m, sub, sup, "sign")
        cosheaf_map_dense(m, sub, sup, "P_p", p)
        cosheaf_map_dense(m, sub, sup, "P_p", p + 1)
        cosheaf_map_dense(m, sub, sup, "A_p", p)
        inclusions_ok = True
    except ValueError as e:
        return NaturalityReport(sub.flats, sup.flats, p, False, False, 0, str(e), False)
    m_sub = stalk_matroid(m, sub)
    m_sup = stalk_matroid(m, sup)
    square_ok = True
    checked = 0
    for row in vg_lower(m_sup, p).basis:
        direct = tilde_a_dense(m_sup, list(row), p)
        pushed = tilde_a_dense(m_sub, mat_vec(sign, list(row)), p)
        checked += 1
        if direct != pushed:
            square_ok = False
            detail = f"pairing square fails on a degree-{p} basis chain"
            break
    return NaturalityReport(
        sub.flats, sup.flats, p, inclusions_ok, square_ok, checked, detail,
        inclusions_ok and square_ok,
    )


def lower_included_by_rows(m_sub: OrientedMatroid, m_sup: OrientedMatroid, q: int) -> bool:
    """`cosheaf._lower_included` without its cache, row by row: each basis row
    of the superflag's degree-q piece is scattered through the tope index map
    and reduced alone by the target's `coords_of`."""
    idx, target = _tope_map(m_sub, m_sup), vg_lower(m_sub, q)
    return target.rank == target.ambient_dim or all(
        target.contains(_scatter(idx, row, len(m_sub.topes))) for row in vg_lower(m_sup, q).basis)


def naturality_square_by_rows(sub: Flag, sup: Flag, p: int, m_sub: OrientedMatroid,
                              m_sup: OrientedMatroid) -> NaturalityReport:
    """`cosheaf._naturality` without its cache, with the pairing square checked
    row by row: each basis row of the superflag's degree-p piece is scattered
    through the tope index map, and its pairing on the subflag's stalk is
    compared with its pairing on the superflag's, coordinate by coordinate."""

    def report(inclusions_ok, square_ok, checked, detail):
        return NaturalityReport(sub.flats, sup.flats, p, inclusions_ok, square_ok, checked,
                                detail, inclusions_ok and square_ok)

    try:
        idx = _tope_map(m_sub, m_sup)
    except ValueError as e:
        return report(False, False, 0, str(e))
    for q in (p, p + 1):
        if not lower_included_by_rows(m_sub, m_sup, q):
            return report(False, False, 0, f"inclusion does not respect the degree-{q} lower piece")
    if not cordovil_dual(m_sub, p).contains_lattice(cordovil_dual(m_sup, p)):
        return report(False, False, 0,
                      f"inclusion does not respect the degree-{p} dual-algebra piece")
    basis = vg_lower(m_sup, p).basis
    for checked, row in enumerate(basis, 1):
        if pair_chain(m_sup, row, p) != pair_chain(m_sub, _scatter(idx, row, len(m_sub.topes)), p):
            return report(True, False, checked, f"pairing square fails on a degree-{p} basis chain")
    return report(True, True, len(basis), "")


def proper_subflags_by_scan(flags: list[Flag]) -> dict[Flag, list[Flag]]:
    """The proper subflags of each flag, in the order of `flags`, by
    comparing every pair of flags as sets of flats."""
    flat_sets = {flag: frozenset(flag.flats) for flag in flags}
    return {sup: [sub for sub in flags if flat_sets[sub] < flat_sets[sup]] for sup in flags}


def verify_theorem_C_dense(m: OrientedMatroid) -> TheoremCReport:
    """`verify_theorem_C` on the dense path, with compositions as matrix
    products."""
    flags = [cone.flag for cone in fan_cones(m)]
    failures: list[str] = []
    ses = []
    for flag in flags:
        for p in range(m.rank + 1):
            rep = verify_ses_dense(m, flag, p)
            ses.append(rep)
            if not rep.ok:
                failures.append(f"exactness fails at flag {flag.flats} degree {p}")
    naturality = []
    for sup in flags:
        for sub in flags:
            if sub == sup or not sub.is_subflag_of(sup):
                continue
            for p in range(m.rank + 1):
                rep = verify_naturality_dense(m, sub, sup, p)
                naturality.append(rep)
                if not rep.ok:
                    failures.append(
                        f"naturality fails for {sub.flats} in {sup.flats} degree {p}"
                    )
    compositions = 0
    for sup in flags:
        subs = [f for f in flags if f.is_subflag_of(sup) and f != sup]
        for mid in subs:
            for sub in subs:
                if sub == mid or not sub.is_subflag_of(mid):
                    continue
                direct = cosheaf_map_dense(m, sub, sup)
                two_step = mat_mul(
                    cosheaf_map_dense(m, sub, mid), cosheaf_map_dense(m, mid, sup)
                )
                compositions += 1
                if direct != two_step:
                    failures.append(
                        f"composition fails through {mid.flats} between "
                        f"{sub.flats} and {sup.flats}"
                    )
    return TheoremCReport(
        len(flags), ses, naturality, compositions, failures, not failures
    )


def _q_row_reduce(rows: list[list[Fraction]]) -> list[list[Fraction]]:
    work = [row[:] for row in rows]
    ncols = len(work[0]) if work else 0
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(work)) if work[i][c]), None)
        if piv is None:
            continue
        work[r], work[piv] = work[piv], work[r]
        inv = work[r][c]
        work[r] = [x / inv for x in work[r]]
        for i in range(len(work)):
            if i != r and work[i][c]:
                f = work[i][c]
                work[i] = [x - f * y for x, y in zip(work[i], work[r])]
        r += 1
    return work[:r]


def _q_kernel(rows: list[list[Fraction]], ncols: int) -> list[list[Fraction]]:
    red = _q_row_reduce(rows)
    pivots = [next(i for i, x in enumerate(row) if x) for row in red]
    pivset = set(pivots)
    basis = []
    for f in range(ncols):
        if f in pivset:
            continue
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for p, row in zip(pivots, red):
            v[p] = -row[f]
        basis.append(v)
    return basis


def om_from_arrangement_by_fractions(arr: Arrangement) -> OrientedMatroid:
    """Covector set of a central arrangement by rational Gauss-Jordan.

    Subset ranks are rational ranks of the normals.  For each corank-one
    flat, the first kernel vector y of the Gram rows of the flat whose
    combination x = sum y_j·normal_j is nonzero gives the cocircuit signs of
    x against the normals; the covector set is the composition closure of
    the cocircuits together with zero.
    """
    normals = [[Fraction(x) for x in v] for v in arr.normals]
    n = arr.n

    def subset_rank(mask: int) -> int:
        return len(_q_row_reduce([normals[i] for i in range(n) if (mask >> i) & 1]))

    r = subset_rank((1 << n) - 1)
    hyperflats: set[int] = set()
    if r >= 1:
        for subset in combinations(range(n), r - 1):
            mask = mask_from_bits(subset)
            if subset_rank(mask) != r - 1:
                continue
            hyperflats.add(mask_from_bits(
                j for j in range(n) if subset_rank(mask | (1 << j)) == r - 1))

    def dot(a, b):
        return sum(x * y for x, y in zip(a, b))

    cocircuits: set[SignVector] = set()
    for flat in hyperflats:
        members = [i for i in range(n) if (flat >> i) & 1]
        gram = [[dot(normals[i], normals[j]) for j in range(n)] for i in members]
        if not gram:
            gram = [[Fraction(0)] * n]
        found = None
        for y in _q_kernel(gram, n):
            x = [sum(y[j] * normals[j][k] for j in range(n)) for k in range(arr.dim)]
            if any(x):
                found = x
                break
        if found is None:
            raise RuntimeError("corank-one flat without a normal direction")
        signs = [dot(found, v) for v in normals]
        sv = SignVector(n, mask_from_bits(i for i, s in enumerate(signs) if s > 0),
                        mask_from_bits(i for i, s in enumerate(signs) if s < 0))
        if sv.zero_set != flat:
            raise RuntimeError("cocircuit zero set does not match its flat")
        cocircuits.add(sv)
        cocircuits.add(sv.negate())

    covs = {SignVector.zero(n)} | cocircuits
    frontier = list(covs)
    while frontier:
        new = []
        for v in frontier:
            for c in cocircuits:
                w = compose(v, c)
                if w not in covs:
                    covs.add(w)
                    new.append(w)
        frontier = new
    return om_from_covectors(covs)


def nbc_flag(m: OrientedMatroid, s: Sequence[int], order: Optional[Sequence[int]] = None) -> Flag:
    """A complete flag whose k-th flat is the closure of the k order-largest
    elements of the independent set s; missing ranks are filled with the
    smallest available flat."""
    pos = _order_positions(m.n, order)
    elems = sorted(s, key=lambda e: pos[e], reverse=True)
    flats = [0]
    mask = 0
    for k, e in enumerate(elems):
        mask |= 1 << e
        f = m.closure(mask)
        if m.flats[f] != k + 1:
            raise ValueError("set is not independent")
        flats.append(f)
    while len(flats) <= m.rank:
        r = len(flats)
        flats.append(next(g for g in m.flats_by_rank[r] if flats[-1] & ~g == 0))
    return Flag(tuple(flats))


def affine_coordinate_chain(m: OrientedMatroid, flag: Flag, v: SignVector,
                            s: Iterable[int]) -> tuple[int, ...]:
    """Signed chain of the coset of block directions indexed by s (1-based):
    the point v + (sum of a subset of those directions) gets the sign
    (-1)^(size of the subset), enumerated subset by subset."""
    blocks = _complete_flag_data(m, flag, v)
    positions = sorted(set(s))
    if positions and (positions[0] < 1 or positions[-1] > m.rank):
        raise ValueError("block positions out of range")
    out = [0] * len(m.topes)
    for size in range(len(positions) + 1):
        for subset in combinations(positions, size):
            x = 0
            for i in subset:
                x ^= blocks[i - 1]
            out[m.tope_by_minus[v.minus ^ x]] += (-1) ** size
    return tuple(out)
