"""Three filtrations of the space of chains on topes, and the maps they induce.

The lower filtration is the annihilator of low-degree Heaviside monomials and
is spanned by prefix chains of complete flags.  The group-algebra filtration
sums powers of augmentation ideals of the tope sets of complete flags.  The
chain-level filtration asks for a ladder of cell chains interlocking with the
conjugation of the cell complex; its certificates map to mod-2 homology
classes represented by bricks.

Integer chains on topes are sequences indexed by the canonical tope order of
the matroid; mod-2 chains are bitmasks over the same order.  Chains on cells
are bitmasks over the canonical cell order of their dimension.
"""

from __future__ import annotations

from functools import partial
from itertools import combinations, product
from math import comb
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, NamedTuple, Optional, Sequence

from .algebras import nbc_sets, subset_index
from .linalg import (
    GF2Solver,
    LatticeZ,
    SubspaceGF2,
    bits_of,
    gf2_kernel,
    kernel_within,
    mask_from_bits,
    parity,
    xor_span,
)
from .om import (
    Flag,
    OrientedMatroid,
    SignVector,
    enumerate_flags,
    is_complete_flag,
    tope_flag_mask,
    zero_out,
)
from .salvetti import bz_cochain_eval, get_salvetti, homology_mod2

if TYPE_CHECKING:
    import random

# ---------------------------------------------------------------------------
# chains on topes

IntChain = Sequence[int]


def chain_mod2(chain: IntChain) -> int:
    """Bitmask of the topes carrying an odd coefficient."""
    return mask_from_bits(i for i, c in enumerate(chain) if c & 1)


def format_tope_mask(m: OrientedMatroid, mask: int) -> str:
    parts = [f"[{m.topes[i].to_str()}]" for i in bits_of(mask)]
    return " + ".join(parts) if parts else "0"


# ---------------------------------------------------------------------------
# Heaviside evaluation and the lower filtration

def heaviside_pairing(m: OrientedMatroid, p: int) -> tuple[tuple[int, ...], ...]:
    """For each p-subset of the ground set, in `subset_index` order, the
    indices of the topes whose positive part contains it.

    These are the supports of the degree-p Heaviside monomials, so pairing a
    chain with the monomials is one sum per subset.  Each tope is listed under
    the p-subsets of its positive part.  Not cached: each ladder step reads
    them once, and kept for every stalk they would outweigh its lattices.
    """
    index, out = subset_index(m.n, p), [[] for _ in range(comb(m.n, p))]
    for i, t in enumerate(m.topes):
        for s in combinations(bits_of(t.plus), p):
            out[index[s]].append(i)
    return tuple(map(tuple, out))


def vg_lower(m: OrientedMatroid, p: int) -> LatticeZ:
    """Degree-p piece of the lower filtration: chains annihilated by every
    Heaviside monomial of degree < p.

    Square-free monomials suffice because the indicator functions are
    idempotent.  The kernel lattice is saturated, and its reduction mod 2 is
    the GF(2) piece.  Degree p is degree p - 1 cut by the degree-(p - 1)
    monomials, built only up to the degree asked for (`_ladder`).
    """
    nt = len(m.topes)
    return _ladder(m, "vg_ladder", p, lambda: _units(nt, range(nt)), _cut(partial(heaviside_pairing, m)))


def _ladder(m: OrientedMatroid, key: str, p: int, first: Callable, step: Callable) -> LatticeZ:
    """Degree p of a ladder of lattices cached per matroid under `key`, built
    up to p: degree 0 is `first()` and degree q + 1 is `step(q, top)` of
    degree q, or degree q itself once that is zero."""
    if p < 0:
        raise ValueError(f"degree must be non-negative, got {p}")
    ladder = m.memo(key, list)
    if not ladder:
        ladder.append(first())
    while len(ladder) <= p:
        top = ladder[-1]
        ladder.append(step(len(ladder) - 1, top) if top.basis else top)
    return ladder[p]


def _units(nt: int, ones: Iterable[int]) -> LatticeZ:
    """The span of the unit vectors e_j, j in `ones` ascending, in Z^nt."""
    return LatticeZ(nt, tuple((0,) * j + (1,) + (0,) * (nt - j - 1) for j in ones))


def _cut(supports: Callable) -> Callable:
    """The ladder step that cuts degree q by the 0/1 equations `supports(q)`."""
    return lambda q, top: kernel_within(top.basis, supports(q), top.ambient_dim)[0]


def pairing_step(m: OrientedMatroid, key: str, lower: LatticeZ, p: int,
                 supports: Optional[Sequence[Sequence[int]]] = None) -> tuple[LatticeZ, LatticeZ]:
    """`kernel_within` of `lower` and the degree-p Heaviside `supports`
    (`heaviside_pairing` by default): the cut, and the image of the pairing
    with one coordinate per p-subset.  When `lower` tops the Heaviside ladder
    cached under `key` at degree p, the cut is kept as degree p + 1, so a
    check that reads the image and that ladder share one Hermite form."""
    supports = heaviside_pairing(m, p) if supports is None else supports
    kernel, image, where = kernel_within(lower.basis, supports, lower.ambient_dim)
    ladder = m.memo(key, list)
    if len(ladder) == p + 1 and ladder[p] is lower:
        ladder.append(kernel)
    # each pivot lands on the first copy of its column, copies keep reduced
    # entries, so this is the image's HNF over the p-subsets
    return kernel, LatticeZ(len(supports), tuple(tuple(row[k] if k >= 0 else 0 for k in where)
                                                 for row in image))


def _antipodal_lower(m: OrientedMatroid, p: int) -> LatticeZ:
    """The antipodal lattice, spanned by e_i - e_j over each tope i and its
    negation j, cut with the degree-p lower piece as `vg_lower` is built, and
    cached per matroid; its HNF basis is e_i - e_j for each such pair i < j."""
    nt = len(m.topes)
    return _ladder(m, "antipodal_lower", p, lambda: LatticeZ(nt, tuple(
        tuple(int(k == i) - int(k == j) for k in range(nt))
        for i, t in enumerate(m.topes) if i < (j := m.tope_index[t.negate()]))),
        _cut(partial(heaviside_pairing, m)))


# ---------------------------------------------------------------------------
# prefix chains

def _complete_flag_data(m: OrientedMatroid, flag: Flag, v: SignVector):
    if not is_complete_flag(m, flag):
        raise ValueError("flag must be complete")
    i = m.tope_index.get(v)
    if i is None or not tope_flag_mask(m, flag) >> i & 1:
        raise ValueError("origin tope is not in the tope set of the flag")
    return flag.blocks()


def prefix_chain(m: OrientedMatroid, flag: Flag, v: SignVector, p: int) -> tuple[int, ...]:
    """The degree-p signed chain of the flag with the given origin tope: the
    signed sum over the coset v + <d_1, ..., d_p> of the first p block
    directions, the sign of a point being the parity of its expansion."""
    blocks = _complete_flag_data(m, flag, v)
    if not 0 <= p <= m.rank:
        raise ValueError("degree out of range")
    out = [0] * len(m.topes)
    for k, x in enumerate(xor_span(blocks[:p])):
        out[m.tope_by_minus[v.minus ^ x]] += -1 if parity(k) else 1
    return tuple(out)


# ---------------------------------------------------------------------------
# the group-algebra filtration

def _flag_cosets(m: OrientedMatroid, positions: Sequence[tuple[int, ...]]
                 ) -> Iterator[tuple[tuple[int, ...], list[int]]]:
    """For each complete flag and each tuple of 1-based block positions, the
    sorted block directions there and the tope masks, by lowest tope, of the
    cosets of their span in the flag's tope set that no earlier flag met.

    A tope set is a union of such cosets, and a coset fixes its directions
    (the blocks are disjoint), so the cosets met before are those inside the
    earlier tope masks with the same sorted directions.
    """
    covered: dict[tuple[int, ...], int] = {}
    for flag in enumerate_flags(m):
        blocks = flag.blocks()
        tf = tope_flag_mask(m, flag)
        for s in positions:
            dirs = tuple(sorted(blocks[i - 1] for i in s))
            seen = covered.get(dirs, 0)
            covered[dirs] = seen | tf
            new, cosets = tf & ~seen, []
            span = xor_span(dirs) if new else ()
            while new:
                low = m.topes[(new & -new).bit_length() - 1].minus
                coset = mask_from_bits(m.tope_by_minus[low ^ x] for x in span)
                cosets.append(coset)
                new &= ~coset
            yield dirs, cosets


def quillen_cosets(m: OrientedMatroid, p: int) -> list[tuple[int, int]]:
    """Deduplicated degree-p generators as (tope mask, block wedge) pairs.

    For each complete flag, every coset of every span of p block directions
    inside the tope set contributes its indicator chain (`_flag_cosets`); the
    attached wedge of the block vectors only depends on the coset's direction
    space, so the first occurrence of a coset fixes it.  The blocks are
    disjoint, so mod 2 the wedge is the mask of the transversals (one element
    from each block), taken once per distinct set of block directions.
    """

    def build():
        index = subset_index(m.n, p)
        out: list[tuple[int, int]] = []
        wedges: dict[tuple[int, ...], int] = {}
        for dirs, cosets in _flag_cosets(m, list(combinations(range(1, m.rank + 1), p))):
            if dirs not in wedges:
                wedges[dirs] = mask_from_bits(
                    index[tuple(sorted(t))] for t in product(*map(bits_of, dirs)))
            out += [(c, wedges[dirs]) for c in cosets]
        return out

    return m.memo(("quillen_cosets", p), build)


def _quillen_span(m: OrientedMatroid, p: int) -> SubspaceGF2:
    """Span of the rows `c | w << nt` of the `quillen_cosets` pairs (nt
    topes), cached per degree.  A reduced row with no tope bit would make the
    wedge no function of the chain, and raises RuntimeError."""

    def build():
        nt = len(m.topes)
        span = SubspaceGF2.from_generators(
            nt + comb(m.n, p), [c | w << nt for c, w in quillen_cosets(m, p)])
        if any(row & ((1 << nt) - 1) == 0 for row in span.rows):
            raise RuntimeError(f"p={p}: the wedge is not a function of the chain")
        return span

    return m.memo(("quillen_span", p), build)


def quillen_Q(m: OrientedMatroid, p: int) -> SubspaceGF2:
    """GF(2) span of the degree-p coset generators over all complete flags:
    the tope bits of `_quillen_span`, which hold every pivot."""
    nt = len(m.topes)
    return SubspaceGF2(nt, tuple(row & ((1 << nt) - 1) for row in _quillen_span(m, p).rows))


def qbv(m: OrientedMatroid, gamma: int, p: int) -> int:
    """Wedge-coordinate image of a mod-2 chain in the degree-p piece, a
    bitmask over sorted p-subsets of the ground set: the bits above the
    topes of its reduction by `_quillen_span`, whose tope bits must vanish."""
    nt = len(m.topes)
    out = _quillen_span(m, p).reduce(gamma)
    if out & ((1 << nt) - 1):
        raise ValueError("chain is not in the degree-p group-algebra piece")
    return out >> nt


def quillen_Z_demo(m: OrientedMatroid, p: int) -> int:
    """Rank of the integer span of p-fold products of augmentation elements.

    Works in the integral group algebra of the tope set of the first complete
    flag, with the first tope as the group identity; multiplication of topes
    is coordinatewise sign product, under which the flag topes are closed.
    Over the integers the chain of spans never reaches zero, unlike its mod-2
    counterpart.

    As 1 - gh = (1 - g) + g(1 - h), the augmentation ideal I is the sum of the
    (1 - g_i)Z[G] over the r block generators g_i = origin ⊕ d_i, which make
    the 2^r flag topes (else RuntimeError).  So, as I^p = I^(p-1)·I, the
    b - b·g_i over an HNF basis b of degree p - 1 (degree 0 is spanned by the
    flag topes), b·g_i being b permuted by g_i, span degree p: rank(p - 1) × r
    rows, built as a ladder (`_ladder`) in tope coordinates.
    """
    nt, flag = len(m.topes), enumerate_flags(m)[0]
    tf, blocks = tope_flag_mask(m, flag), flag.blocks()

    def flag_topes():
        if tf.bit_count() != 1 << len(blocks):
            raise RuntimeError(f"the flag has {tf.bit_count()} topes, not 2^{len(blocks)}")
        return _units(nt, bits_of(tf))

    def times_generators(q, top):
        # per block generator g, the index of k·g for each flag tope k, and k elsewhere
        perms = [[m.tope_by_minus[t.minus ^ d] if tf >> k & 1 else k for k, t in enumerate(m.topes)]
                 for d in blocks]
        return LatticeZ.from_generators(nt, [[b[k] - b[kg] for k, kg in enumerate(perm)]
                                             for b in top.basis for perm in perms])

    return _ladder(m, "quillen_Z", p, flag_topes, times_generators).rank


# ---------------------------------------------------------------------------
# the chain-level filtration

class KalininCertificate(NamedTuple):
    """A mod-2 chain on topes with the ladder of cell chains that places it
    in the degree-p piece: the first chain bounds gamma, read as a 0-chain
    (vertex i is tope i), and each later one bounds its predecessor plus the
    conjugate."""

    gamma: int
    betas: tuple[int, ...]

    @property
    def p(self) -> int:
        return len(self.betas)

    def verify(self, m: OrientedMatroid) -> bool:
        sal = get_salvetti(m)
        if not self.betas:
            return True
        if sal.boundary_of(1, self.betas[0]) != self.gamma:
            return False
        for i in range(2, self.p + 1):
            prev = self.betas[i - 2]
            want = prev ^ sal.conj_chain(i - 1, prev)
            if sal.boundary_of(i, self.betas[i - 1]) != want:
                return False
        return True


def _ladder_rows(m: OrientedMatroid) -> tuple[list[int], list[int], list[int]]:
    """The top-degree ladder system in the unknowns (beta_1, ..., beta_{r+1}),
    r the rank, one row per equation, with the row offsets and the unknown
    offsets of its blocks.

    Row block i starts at row_off[i], and beta_i is unknowns col_off[i - 1]
    onwards.  Unknown k is column col_off[-1] - 1 - k: the solver pivots on
    the highest cells first, several times faster than lowest first.
    Row blocks are indexed by cells of dimensions 0..r.  Block i holds the
    boundary of beta_i and, from i = 2 on, the chain beta_{i-1} plus its
    conjugate; the right-hand side of the first block is gamma itself, as
    vertex i is tope i, and of every later block zero.  Block i meets beta
    blocks i - 1 and i only, so the degree-p system is the first
    row_off[p + 1] rows over the last col_off[p] columns.
    """
    sal = get_salvetti(m)
    top = m.rank + 1
    col_off = [0]
    for i in range(1, top + 1):
        col_off.append(col_off[-1] + sal.n_cells(i))
    row_off = [0, 0]
    for i in range(1, top + 1):
        row_off.append(row_off[-1] + sal.n_cells(i - 1))
    rows = [0] * row_off[-1]
    last = col_off[-1] - 1
    for i in range(1, top + 1):
        if sal.n_cells(i):
            masks = sal.boundary_masks(i)
            for j in range(sal.n_cells(i)):
                colbit = 1 << (last - col_off[i - 1] - j)
                for r in bits_of(masks[j]):
                    rows[row_off[i] + r] ^= colbit
        if i >= 2:
            perm = sal.conj_perm(i - 1)
            for j in range(sal.n_cells(i - 1)):
                colbit = 1 << (last - col_off[i - 2] - j)
                rows[row_off[i] + j] ^= colbit
                rows[row_off[i] + perm[j]] ^= colbit
    return rows, row_off, col_off


def _ladder_solver(m: OrientedMatroid, p: int) -> tuple[GF2Solver, list[int]]:
    """The factorization of the degree-p ladder system, for 1 <= p <= rank + 1,
    with its unknown offsets; the right-hand side is gamma as a 0-chain, and
    unknown k of a solution is its bit col_off[p] - 1 - k.

    The top-degree system of `_ladder_rows` is factored once per matroid and
    each degree is a prefix of that factorization.  Cached per matroid and
    degree, and shared by `kalinin_K` and `viro_bv`.
    """

    def factor():
        rows, row_off, col_off = _ladder_rows(m)
        return GF2Solver(rows, col_off[-1]), row_off, col_off

    def build():
        solver, row_off, col_off = m.memo("ladder_factor", factor)
        return solver.prefix(row_off[p + 1], col_off[p]), col_off[:p + 1]

    return m.memo(("ladder_solver", p), build)


def kalinin_K(m: OrientedMatroid, p: int) -> SubspaceGF2:
    """Degree-p piece of the chain-level filtration.

    gamma is in the piece exactly when the ladder system with gamma on the
    right is solvable, that is, when gamma is orthogonal to every relation
    among the ladder equations.  Only the vertex rows, the first ones, meet
    the right-hand side, and vertex i is tope i, so the low bits of each
    relation the solver found are already in tope coordinates, and the piece
    is the kernel of those bits.  For p one above the rank the top beta block
    is empty and the last equation forces the previous chain to be
    conjugation-symmetric; above that the piece is zero.
    """

    def build():
        nt = len(m.topes)
        if p <= 0:
            return SubspaceGF2.full(nt)
        if p > m.rank + 1:
            return SubspaceGF2.zero(nt)
        solver, _ = _ladder_solver(m, p)
        return gf2_kernel([combo & ((1 << nt) - 1) for combo in solver.zero_combos], nt)

    return m.memo(("kalinin_K", p), build)


def viro_bv(m: OrientedMatroid, gamma: int, p: int,
            rng: Optional[random.Random] = None) -> tuple[int, KalininCertificate]:
    """Degree-p homology value of a mod-2 tope chain, with its certificate.

    Solves for a full ladder in one affine system, so a ladder is found
    exactly when one exists, and returns the canonical representative of the
    class of the top chain plus its conjugate together with the chains used.
    The class does not depend on the ladder, which is checked separately as a
    property.  Raises if the chain is not in the degree-p piece.
    """
    if not 0 <= p <= m.rank:
        raise ValueError(f"degree {p} outside 0..{m.rank}")
    sal = get_salvetti(m)
    hom = homology_mod2(sal)
    if p == 0:
        return hom.class_of(0, gamma), KalininCertificate(gamma, ())
    solver, col_off = _ladder_solver(m, p)
    sol = solver.solve(gamma, rng)
    if sol is None:
        raise ValueError(f"chain is not in the degree-{p} chain-level piece")
    last = col_off[p] - 1
    betas = [mask_from_bits(j for j in range(col_off[i] - col_off[i - 1])
                            if sol >> (last - col_off[i - 1] - j) & 1)
             for i in range(1, p + 1)]
    top = betas[-1] ^ sal.conj_chain(p, betas[-1])
    return hom.class_of(p, top), KalininCertificate(gamma, tuple(betas))


# ---------------------------------------------------------------------------
# bricks

def brick(m: OrientedMatroid, flag: Flag, v: SignVector, p: int) -> tuple[int, ...]:
    """Signed cell chain of the degree-p coset of a flag at an origin tope.

    Each coset point contributes the cell whose covector kills the p-th flag
    flat of the origin tope, weighted by the parity sign of the point.  A
    coefficient is a sum of one sign per point on its cell, so `chain_mod2`
    of the chain is the mod-2 brick.
    """
    blocks = _complete_flag_data(m, flag, v)
    if not 0 <= p <= m.rank:
        raise ValueError("degree out of range")
    sal = get_salvetti(m)
    l = zero_out(v, flag.flats[p])
    coeffs = [0] * sal.n_cells(p)
    for k, x in enumerate(xor_span(blocks[:p])):
        d, bit = sal.cell_bit(l, m.tope_from_minus(v.minus ^ x))
        if d != p:
            raise RuntimeError(f"brick cell has dimension {d}, not the degree {p}")
        coeffs[bit.bit_length() - 1] += -1 if parity(k) else 1
    return tuple(coeffs)


def brick_certificate(m: OrientedMatroid, flag: Flag, v: SignVector, p: int) -> KalininCertificate:
    """Closed-form ladder for the degree-p chain of a flag at an origin.

    The two half-ladders at the origin and at its shift by the next block
    direction are merged degreewise, and the top chain is the coset of one
    dimension lower pushed into cells one dimension higher.
    """
    blocks = _complete_flag_data(m, flag, v)
    if not 0 <= p <= m.rank:
        raise ValueError("degree out of range")
    sal = get_salvetti(m)
    memo: dict[tuple[int, int], tuple[int, ...]] = {}

    def ladder(minus_v: int, q: int) -> tuple[int, ...]:
        if q == 0:
            return ()
        mk = (minus_v, q)
        if mk in memo:
            return memo[mk]
        vt = m.tope_from_minus(minus_v)
        l = zero_out(vt, flag.flats[q])
        top = 0
        for x in xor_span(blocks[:q - 1]):
            top ^= sal.cell_bit(l, m.tope_from_minus(minus_v ^ x))[1]
        a = ladder(minus_v, q - 1)
        b = ladder(minus_v ^ blocks[q - 1], q - 1)
        out = tuple(x ^ y for x, y in zip(a, b)) + (top,)
        memo[mk] = out
        return out

    gamma = chain_mod2(prefix_chain(m, flag, v, p))
    return KalininCertificate(gamma, ladder(v.minus, p))


# ---------------------------------------------------------------------------
# the asymptotic filtration

def asymptotic(m: OrientedMatroid, p: int) -> LatticeZ:
    """Integer lattice of chains passing the degree-p difference criterion:
    degree p - 1 cut by the equations of p - 1 separators that no lower
    degree has (`_ladder`).  The equation of a tope t2 and q
    separators holds the topes that t2 separates on all of them, those with
    the signs of -t2 there: a class of the topes by their signs on q elements."""
    seen = m.memo("asymptotic_supports", dict)  # support -> the q that first met it
    ids, plus = list(range(len(m.topes))), [t.plus for t in m.topes]  # one int per tope

    def supports(q: int) -> list[tuple[int, ...]]:
        new: dict[tuple[int, ...], None] = {}
        for s in map(mask_from_bits, combinations(range(m.n), q)):
            classes: dict[int, list[int]] = {}
            for i, signs in zip(ids, map(s.__and__, plus)):
                classes.setdefault(signs, []).append(i)
            new.update((c, None) for c in map(tuple, classes.values())
                       if seen.setdefault(c, q) == q)
        return list(new)

    lattice = _ladder(m, "asymptotic", p, lambda: _units(len(m.topes), ids), _cut(supports))
    if not lattice.basis:
        seen.clear()  # no later degree cuts the zero lattice
    return lattice


# ---------------------------------------------------------------------------
# theorem verifications

class TheoremAReport(NamedTuple):
    dims: list[dict]
    ok: bool
    discrepancy: Optional[str]


def verify_theorem_A(m: OrientedMatroid) -> TheoremAReport:
    """Check that the three filtrations agree as subspaces in every degree."""
    dims = []
    discrepancy = None
    for p in range(m.rank + 2):
        q = quillen_Q(m, p)
        vb = vg_lower(m, p).mod2()
        k = kalinin_K(m, p)
        dims.append({"p": p, "quillen": q.dim, "vg_mod2": vb.dim, "kalinin": k.dim})
        if discrepancy is None and not (q == vb and vb == k):
            if q.dim == vb.dim == k.dim:
                discrepancy = f"p={p}: equal dimensions but different subspaces"
            else:
                discrepancy = (
                    f"p={p}: dims group-algebra={q.dim} lower={vb.dim} chain-level={k.dim}"
                )
    return TheoremAReport(dims, discrepancy is None, discrepancy)


class TheoremBReport(NamedTuple):
    degrees: list[dict]
    failures: list[str]
    ok: bool


def verify_theorem_B(m: OrientedMatroid, order: Optional[Sequence[int]] = None) -> TheoremBReport:
    """Check the two routes from prefix chains to degree-p invariants agree.

    For each degree and each distinct mod-2 prefix chain, the coarse
    representative of the homology value is evaluated against every cochain
    indexed by a degree-p set with no broken circuit; the result must match
    the corresponding wedge coordinate of the chain's degree-p image.
    """
    sal = get_salvetti(m)
    degrees = []
    failures: list[str] = []
    for p in range(m.rank + 1):
        nbcs = nbc_sets(m, p, order)
        index = subset_index(m.n, p)
        # the distinct mod-2 prefix chains, in order of first appearance; the
        # coset points are distinct topes, so each carries coefficient +-1
        gens = [c for _, cosets in _flag_cosets(m, [tuple(range(1, p + 1))]) for c in cosets]
        checked = 0
        for mask in gens:
            rep, _ = viro_bv(m, mask, p)
            wedge = qbv(m, mask, p)
            for s in nbcs:
                lhs = bz_cochain_eval(sal, s, p, rep)
                rhs = (wedge >> index[s]) & 1
                checked += 1
                if lhs != rhs:
                    failures.append(
                        f"p={p} subset={s} chain={format_tope_mask(m, mask)}: "
                        f"cochain value {lhs} != wedge coordinate {rhs}"
                    )
        degrees.append({"p": p, "generators": len(gens), "subsets": len(nbcs),
                        "checked": checked})
    return TheoremBReport(degrees, failures, not failures)
