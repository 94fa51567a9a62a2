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

import random
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Optional, Sequence

from .algebras import SFPoly, nbc_sets, subset_index, wedge_masks
from .linalg import (
    GF2Matrix,
    GF2Solver,
    LatticeZ,
    SubspaceGF2,
    bits_of,
    gf2_kernel,
    gf2_solve_project,
    int_kernel,
    mask_from_bits,
)
from .om import (
    Flag,
    OrientedMatroid,
    SignVector,
    enumerate_flags,
    is_complete_flag,
    tope_flag_members,
    tope_flag_set,
    zero_out,
)
from .salvetti import bz_cochain_eval, get_salvetti, homology_mod2

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
    chain with the monomials is one sum per subset.  Cached per matroid and
    degree.
    """
    return m.memo(("heaviside_pairing", p), lambda: tuple(
        tuple(i for i, t in enumerate(m.topes) if smask & ~t.plus == 0)
        for smask in map(mask_from_bits, combinations(range(m.n), p))
    ))


def pair_chain(m: OrientedMatroid, gamma: IntChain, p: int) -> list[int]:
    """Coordinates, by p-subset, of the Heaviside monomials evaluated on a
    chain; no membership check (see `tilde_a`)."""
    at = gamma.__getitem__
    return [sum(map(at, topes)) for topes in heaviside_pairing(m, p)]


def _monomial_rows_int(m: OrientedMatroid, max_deg: int) -> list[list[int]]:
    rows = []
    for q in range(max_deg + 1):
        for topes in heaviside_pairing(m, q):
            row = [0] * len(m.topes)
            for i in topes:
                row[i] = 1
            rows.append(row)
    return rows


def vg_lower(m: OrientedMatroid, p: int, ring: str = "z"):
    """Degree-p piece of the lower filtration: chains annihilated by every
    Heaviside monomial of degree < p.

    Square-free monomials suffice because the indicator functions are
    idempotent.  Over the integers the kernel lattice is saturated; over GF(2)
    the kernel of the reduced matrix is returned instead.
    """

    def build():
        nt = len(m.topes)
        if ring == "z":
            if p <= 0:
                return LatticeZ.full(nt)
            # int_kernel returns the canonical HNF basis already
            return LatticeZ(nt, tuple(map(tuple, int_kernel(_monomial_rows_int(m, p - 1)))))
        if ring == "z2":
            if p <= 0:
                return SubspaceGF2.full(nt)
            rows = [
                mask_from_bits(i for i, x in enumerate(row) if x)
                for row in _monomial_rows_int(m, p - 1)
            ]
            return gf2_kernel(GF2Matrix.from_rows(rows, nt))
        raise ValueError(f"unknown ring {ring!r}")

    return m.memo(("vg_lower", p, ring), build)


# ---------------------------------------------------------------------------
# prefix chains and affine coordinate chains

def _complete_flag_data(m: OrientedMatroid, flag: Flag, v: SignVector):
    if not is_complete_flag(m, flag):
        raise ValueError("flag must be complete")
    if v not in tope_flag_members(m, flag):
        raise ValueError("origin tope is not in the tope set of the flag")
    return flag.blocks()


def _coset_chain(m: OrientedMatroid, blocks: list[int], v: SignVector,
                 positions: Sequence[int]) -> tuple[int, ...]:
    # signed sum over the coset v + <d_i : i in positions>, the sign of a
    # point being the parity of its expansion in the chosen block vectors
    out = [0] * len(m.topes)
    dmasks = [blocks[i - 1] for i in positions]
    for bitspat in range(1 << len(dmasks)):
        minus = v.minus
        for k, d in enumerate(dmasks):
            if (bitspat >> k) & 1:
                minus ^= d
        idx = m.tope_by_minus[minus]
        out[idx] += -1 if bitspat.bit_count() & 1 else 1
    return tuple(out)


def prefix_chain(m: OrientedMatroid, flag: Flag, v: SignVector, p: int) -> tuple[int, ...]:
    """The degree-p signed chain of the flag with the given origin tope."""
    blocks = _complete_flag_data(m, flag, v)
    if not 0 <= p <= m.rank:
        raise ValueError("degree out of range")
    return _coset_chain(m, blocks, v, range(1, p + 1))


def affine_coordinate_chain(m: OrientedMatroid, flag: Flag, v: SignVector,
                            s: Iterable[int]) -> tuple[int, ...]:
    """Signed chain of the coset of block directions indexed by s (1-based)."""
    blocks = _complete_flag_data(m, flag, v)
    positions = sorted(set(s))
    if positions and (positions[0] < 1 or positions[-1] > m.rank):
        raise ValueError("block positions out of range")
    return _coset_chain(m, blocks, v, positions)


# ---------------------------------------------------------------------------
# the group-algebra filtration

def quillen_cosets(m: OrientedMatroid, p: int) -> list[tuple[int, int]]:
    """Deduplicated degree-p generators as (tope mask, block wedge) pairs.

    For each complete flag, every coset of every span of p block directions
    inside the tope set contributes its indicator chain; the attached wedge of
    the block vectors only depends on the coset's direction space, so the
    first occurrence of a tope mask fixes it.
    """

    def build():
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
                span = {0}
                for d in dmasks:
                    span |= {x ^ d for x in span}
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

    return m.memo(("quillen_cosets", p), build)


def quillen_Q(m: OrientedMatroid, p: int) -> SubspaceGF2:
    """GF(2) span of the degree-p coset generators over all complete flags."""
    return m.memo(("quillen_Q", p), lambda: SubspaceGF2.from_generators(
        len(m.topes), [c for c, _ in quillen_cosets(m, p)]
    ))


def _quillen_solver(m: OrientedMatroid, p: int) -> tuple[GF2Solver, list[tuple[int, int]]]:
    def build():
        cosets = quillen_cosets(m, p)
        rows = [0] * len(m.topes)
        for j, (cmask, _) in enumerate(cosets):
            for i in bits_of(cmask):
                rows[i] |= 1 << j
        return GF2Solver(GF2Matrix.from_rows(rows, len(cosets))), cosets

    return m.memo(("quillen_solver", p), build)


def qbv(m: OrientedMatroid, gamma: int, p: int) -> int:
    """Wedge-coordinate image of a mod-2 chain in the degree-p piece.

    The chain is decomposed over the coset generators by a GF(2) solve and
    each generator is sent to the wedge of its block directions; the result is
    a bitmask over sorted p-subsets of the ground set.  The value does not
    depend on the decomposition, which is checked separately as a property.
    """
    solver, cosets = _quillen_solver(m, p)
    x = solver.solve(gamma)
    if x is None:
        raise ValueError("chain is not in the degree-p group-algebra piece")
    out = 0
    for j in bits_of(x):
        out ^= cosets[j][1]
    return out


def quillen_Z_demo(m: OrientedMatroid, p: int) -> int:
    """Rank of the integer span of p-fold products of augmentation elements.

    Works in the integral group algebra of the tope set of the first complete
    flag, with the first tope as the group identity; multiplication of topes
    is coordinatewise sign product, under which the flag topes are closed.
    Over the integers the chain of spans never reaches zero, unlike its mod-2
    counterpart.

    The span is built degree by degree.  Every p-fold product of the
    generators g = origin - t is a (p-1)-fold product times one generator, so
    by bilinearity the products b·g of an HNF basis b of the degree-(p-1)
    span with each generator span the same lattice; and b·g = b - b·t is b
    minus b permuted by t.  A degree so takes the HNF of at most
    rank(degree p-1) × (|tf| - 1) rows, not of one product per multiset of p
    generators, and each degree is cached for the next.
    """
    if p < 0:
        raise ValueError(f"degree must be non-negative, got {p}")
    if p == 0:
        return len(tope_flag_set(m, enumerate_flags(m)[0]))
    return _quillen_Z_lattice(m, p).rank


def _quillen_Z_lattice(m: OrientedMatroid, p: int) -> LatticeZ:
    """The lattice of `quillen_Z_demo` in tope coordinates, for p >= 1."""

    def build():
        nt = len(m.topes)
        tf = tope_flag_set(m, enumerate_flags(m)[0])
        origin = tf[0].minus
        cols = [m.tope_index[t] for t in tf]
        # per generator origin - t, the index of k·t for each flag tope k
        shifts = [[m.tope_by_minus[m.topes[k].minus ^ t.minus ^ origin] for k in cols]
                  for t in tf[1:]]
        # below degree 1 stands the empty product, the identity tope
        prev = (_quillen_Z_lattice(m, p - 1).basis if p > 1
                else [[int(k == cols[0]) for k in range(nt)]])
        gens = []
        for b in prev:
            for shift in shifts:
                row = [0] * nt
                for k, kt in zip(cols, shift):
                    row[k] = b[k] - b[kt]
                gens.append(row)
        return LatticeZ.from_generators(nt, gens)

    return m.memo(("quillen_Z", p), build)


# ---------------------------------------------------------------------------
# the chain-level filtration

@dataclass(frozen=True)
class KalininCertificate:
    """A mod-2 chain on topes with the ladder of cell chains that places it
    in the degree-p piece: the first chain bounds the vertex image of gamma
    and each later one bounds its predecessor plus the conjugate."""

    gamma: int
    betas: tuple[int, ...]

    @property
    def p(self) -> int:
        return len(self.betas)

    def verify(self, m: OrientedMatroid) -> bool:
        sal = get_salvetti(m)
        if not self.betas:
            return True
        if sal.boundary_of(1, self.betas[0]) != tope_vertex_chain(m, self.gamma):
            return False
        for i in range(2, self.p + 1):
            prev = self.betas[i - 2]
            want = prev ^ sal.conj_chain(i - 1, prev)
            if sal.boundary_of(i, self.betas[i - 1]) != want:
                return False
        return True


def tope_vertex_chain(m: OrientedMatroid, gamma: int) -> int:
    """Image of a mod-2 tope chain under the vertex inclusion."""
    sal = get_salvetti(m)
    out = 0
    for i in bits_of(gamma):
        out ^= 1 << sal.vertex_of_tope(m.topes[i])
    return out


def _ladder_rows(m: OrientedMatroid, p: int) -> tuple[list[int], list[int]]:
    """The ladder system in the unknowns (beta_1, ..., beta_p), one row per
    equation, and the column offsets of the beta blocks.

    Row blocks are indexed by cells of dimensions 0..p-1.  Block i holds the
    boundary of beta_i and, from i = 2 on, the chain beta_{i-1} plus its
    conjugate; the right-hand side of the first block is the vertex image of
    gamma, and of every later block zero.
    """

    def build():
        sal = get_salvetti(m)
        col_off = [0]
        for i in range(1, p + 1):
            col_off.append(col_off[-1] + sal.n_cells(i))
        row_off = [0, 0]
        for i in range(1, p + 1):
            row_off.append(row_off[-1] + sal.n_cells(i - 1))
        rows = [0] * row_off[-1]
        for i in range(1, p + 1):
            if sal.n_cells(i):
                masks = sal.boundary_masks(i)
                for j in range(sal.n_cells(i)):
                    colbit = 1 << (col_off[i - 1] + j)
                    for r in bits_of(masks[j]):
                        rows[row_off[i] + r] ^= colbit
            if i >= 2:
                perm = sal.conj_perm(i - 1)
                for j in range(sal.n_cells(i - 1)):
                    colbit = 1 << (col_off[i - 2] + j)
                    rows[row_off[i] + j] ^= colbit
                    rows[row_off[i] + perm[j]] ^= colbit
        return rows, col_off

    return m.memo(("ladder_rows", p), build)


def kalinin_K(m: OrientedMatroid, p: int) -> SubspaceGF2:
    """Degree-p piece of the chain-level filtration.

    The ladder system with gamma moved to the unknowns, (gamma, beta_1, ...,
    beta_p), is homogeneous; the piece is the projection of its solution
    space onto the gamma block.  For p one above the rank the top beta block
    is empty and the last equation forces the previous chain to be
    conjugation-symmetric.
    """

    def build():
        nt = len(m.topes)
        if p <= 0:
            return SubspaceGF2.full(nt)
        sal = get_salvetti(m)
        ladder, col_off = _ladder_rows(m, p)
        rows = [row << nt for row in ladder]
        for j, t in enumerate(m.topes):
            rows[sal.vertex_of_tope(t)] ^= 1 << j
        return gf2_solve_project(GF2Matrix.from_rows(rows, nt + col_off[-1]), (0, nt))

    return m.memo(("kalinin_K", p), build)


def _ladder_solver(m: OrientedMatroid, p: int) -> tuple[GF2Solver, list[int]]:
    """Solver for the ladder system of `_ladder_rows`, with its column
    offsets; the right-hand side is the vertex image of gamma."""

    def build():
        rows, col_off = _ladder_rows(m, p)
        return GF2Solver(GF2Matrix.from_rows(rows, col_off[-1])), col_off

    return m.memo(("ladder_solver", p), build)


def viro_bv(m: OrientedMatroid, gamma: int, p: int,
            rng: Optional[random.Random] = None) -> tuple[int, KalininCertificate]:
    """Degree-p homology value of a mod-2 tope chain, with its certificate.

    Solves for a full ladder in one affine system, so a ladder is found
    exactly when one exists, and returns the canonical representative of the
    class of the top chain plus its conjugate together with the chains used.
    The class does not depend on the ladder, which is checked separately as a
    property.  Raises if the chain is not in the degree-p piece.
    """
    sal = get_salvetti(m)
    hom = homology_mod2(sal)
    if p == 0:
        return hom.class_of(0, tope_vertex_chain(m, gamma)), KalininCertificate(gamma, ())
    solver, col_off = _ladder_solver(m, p)
    sol = solver.solve(tope_vertex_chain(m, gamma), rng)
    if sol is None:
        raise ValueError(f"chain is not in the degree-{p} chain-level piece")
    betas = []
    for i in range(1, p + 1):
        width = col_off[i] - col_off[i - 1]
        betas.append((sol >> col_off[i - 1]) & ((1 << width) - 1))
    top = betas[-1] ^ sal.conj_chain(p, betas[-1])
    return hom.class_of(p, top), KalininCertificate(gamma, tuple(betas))


# ---------------------------------------------------------------------------
# bricks

def brick(m: OrientedMatroid, flag: Flag, v: SignVector, p: int, ring: str = "z"):
    """Signed cell chain of the degree-p coset of a flag at an origin tope.

    Each coset point contributes the cell whose covector kills the p-th flag
    flat of the origin tope, weighted by the parity sign of the point; mod 2
    the signs drop and the chain is returned as a bitmask.
    """
    blocks = _complete_flag_data(m, flag, v)
    if not 0 <= p <= m.rank:
        raise ValueError("degree out of range")
    sal = get_salvetti(m)
    l = zero_out(v, flag.flats[p])
    coeffs = [0] * sal.n_cells(p)
    mask = 0
    for bitspat in range(1 << p):
        minus = v.minus
        for k in range(p):
            if (bitspat >> k) & 1:
                minus ^= blocks[k]
        u = m.tope_from_minus(minus)
        d, bit = sal.cell_bit(l, u)
        if d != p:
            raise RuntimeError(f"brick cell has dimension {d}, not the degree {p}")
        coeffs[bit.bit_length() - 1] += -1 if bitspat.bit_count() & 1 else 1
        mask ^= bit
    if ring == "z":
        return tuple(coeffs)
    if ring == "z2":
        return mask
    raise ValueError(f"unknown ring {ring!r}")


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
        for bitspat in range(1 << (q - 1)):
            minus = minus_v
            for k in range(q - 1):
                if (bitspat >> k) & 1:
                    minus ^= blocks[k]
            top ^= sal.cell_bit(l, m.tope_from_minus(minus))[1]
        a = ladder(minus_v, q - 1)
        b = ladder(minus_v ^ blocks[q - 1], q - 1)
        out = tuple(x ^ y for x, y in zip(a, b)) + (top,)
        memo[mk] = out
        return out

    gamma = chain_mod2(prefix_chain(m, flag, v, p))
    return KalininCertificate(gamma, ladder(v.minus, p))


# ---------------------------------------------------------------------------
# the pairing map into the circuit annihilator

def tilde_a(m: OrientedMatroid, gamma: IntChain, p: int) -> SFPoly:
    """Degree-p square-free polynomial paired out of a lower-filtration chain.

    The coefficient of a p-subset is the evaluation of its Heaviside monomial
    on the chain; membership in the degree-p piece is checked first.
    """
    g = list(gamma)
    if len(g) != len(m.topes):
        raise ValueError("chain length does not match the tope count")
    if not vg_lower(m, p, "z").contains(g):
        raise ValueError("chain is not in the degree-p lower piece")
    coords = pair_chain(m, g, p)
    return {s: c for s, c in zip(combinations(range(m.n), p), coords) if c}


# ---------------------------------------------------------------------------
# the asymptotic filtration

def asymptotic(m: OrientedMatroid, p: int) -> LatticeZ:
    """Integer lattice of chains passing the degree-p difference criterion."""

    def build():
        nt = len(m.topes)
        if p <= 0:
            return LatticeZ.full(nt)
        rows: set[tuple[int, ...]] = set()
        for t2 in m.topes:
            seps = [t.separator(t2) for t in m.topes]
            for q in range(p):
                for s in combinations(range(m.n), q):
                    smask = mask_from_bits(s)
                    rows.add(tuple(1 if smask & ~sep == 0 else 0 for sep in seps))
        return LatticeZ(nt, tuple(map(tuple, int_kernel([list(r) for r in sorted(rows)]))))

    return m.memo(("asymptotic", p), build)


# ---------------------------------------------------------------------------
# theorem verifications

@dataclass
class TheoremAReport:
    dims: list[dict]
    ok: bool
    discrepancy: Optional[str]

    def to_dict(self) -> dict:
        return {"dims": self.dims, "ok": self.ok, "discrepancy": self.discrepancy}


def verify_theorem_A(m: OrientedMatroid) -> TheoremAReport:
    """Check that the three filtrations agree as subspaces in every degree."""
    dims = []
    discrepancy = None
    for p in range(m.rank + 2):
        q = quillen_Q(m, p)
        vb = vg_lower(m, p, "z").mod2()
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


@dataclass
class TheoremBReport:
    degrees: list[dict]
    failures: list[str]
    ok: bool

    def to_dict(self) -> dict:
        return {"degrees": self.degrees, "failures": self.failures, "ok": self.ok}


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
        gens: dict[int, tuple] = {}
        for flag in enumerate_flags(m):
            for v in tope_flag_set(m, flag):
                mask = chain_mod2(prefix_chain(m, flag, v, p))
                if mask not in gens:
                    gens[mask] = (flag, v)
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
