"""Slow reference implementations that fast paths in the package are tested against."""

from __future__ import annotations

from itertools import combinations, combinations_with_replacement, product
from typing import Iterable

from topespace.algebras import SFPoly, cordovil_dual, sf_vector, subset_index, wedge_masks
from topespace.cosheaf import (
    NaturalityReport,
    SESReport,
    TheoremCReport,
    fan_cones,
    stalk_matroid,
)
from topespace.filtrations import IntChain, prefix_chain, vg_lower
from topespace.linalg import (
    GF2Matrix,
    IntMatrix,
    LatticeZ,
    SubspaceGF2,
    bits_of,
    gf2_kernel,
    int_identity,
    int_relations,
    lattice_equal,
    mask_from_bits,
    mat_vec,
    smith_normal_form,
    snf_diagonal_sparse,
)
from topespace.om import (
    AxiomReport,
    Flag,
    OrientedMatroid,
    SignVector,
    compose,
    enumerate_flags,
    tope_flag_set,
)
from topespace.salvetti import FineComplex, IntegralHomology


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


def gf2_solve_project_by_kernel(system: GF2Matrix, free_block: tuple[int, int]) -> SubspaceGF2:
    """Projection of the solution set of system·x = 0 onto a column range,
    read off a basis of the whole kernel."""
    start, stop = free_block
    if not (0 <= start <= stop <= system.ncols):
        raise ValueError(f"free_block {free_block} out of range for {system.ncols} columns")
    width = stop - start
    mask = (1 << width) - 1
    kern = gf2_kernel(system)
    return SubspaceGF2.from_generators(width, [(v >> start) & mask for v in kern.rows])


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
    if not vg_lower(m, p, "z").contains(g):
        raise ValueError("chain is not in the degree-p lower piece")
    out: SFPoly = {}
    for s in combinations(range(m.n), p):
        val = heaviside_eval(m, s, g)
        if val:
            out[s] = val
    return out


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
    kernel = int_relations(imgs, lower.basis)
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


def verify_theorem_C_dense(m: OrientedMatroid) -> TheoremCReport:
    """`verify_theorem_C` on the dense path, with compositions as matrix
    products."""
    flags = [cone.flag for cone in fan_cones(m)]
    failures: list[str] = []
    ses = []
    for flag in flags:
        for p in range(m.rank + 1):
            rep = verify_ses_dense(m, flag, p)
            ses.append(rep.to_dict())
            if not rep.ok:
                failures.append(f"exactness fails at flag {flag.flats} degree {p}")
    naturality = []
    for sup in flags:
        for sub in flags:
            if sub == sup or not sub.is_subflag_of(sup):
                continue
            for p in range(m.rank + 1):
                rep = verify_naturality_dense(m, sub, sup, p)
                naturality.append(rep.to_dict())
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
