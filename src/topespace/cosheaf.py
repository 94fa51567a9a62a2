"""Cosheaves of tope spaces on the fan of the underlying matroid.

Cones of the fan are keyed by flags of proper flats.  Each cone carries the
tope space of the initial matroid of its flag, filtered by the lower
filtration, with the dual-algebra pieces as graded quotients.  The stalk map
of a nested pair of flags is the inclusion of one tope set into another, kept
as a tope index map: pushing a chain is a scatter, and composing two maps is
composing index tuples.  A stalk is built from the interval minors of its
flag.  The pairing into the dual algebra is one cached subset mask per tope,
stalk and degree, and a pairing square compares the masks of a tope and of
its image under the index map.  Every diagram check reduces to index-map
identities, lattice containments and coordinate comparisons.
"""

from __future__ import annotations

from collections import defaultdict
from itertools import combinations
from typing import NamedTuple, Optional, Sequence

from .algebras import circuits, cordovil_dual
from .filtrations import chain_mod2, heaviside_pairing, pairing_step, qbv, vg_lower
from .linalg import bits_of, lattice_equal, mask_from_bits, solve_diophantine
from .om import (
    Flag,
    OrientedMatroid,
    SignVector,
    enumerate_flags,
    is_complete_flag,
    make_flag,
)

# ---------------------------------------------------------------------------
# the fan and its stalks


class FanCone(NamedTuple):
    """A cone of the fan of the underlying matroid.

    The cone of a flag is spanned by the indicator vectors of its interior
    flats together with the ground-set indicator taken with both signs; the
    generators are recorded as masks, no geometry is computed.
    """

    flag: Flag
    generators: tuple[int, ...]
    lineality: int

    @property
    def dim(self) -> int:
        return len(self.generators) + 1


def fan_cones(m: OrientedMatroid) -> list[FanCone]:
    """One cone per flag of proper flats; the flag is the key of the cone."""
    return m.memo("fan_cones", lambda: [
        FanCone(f, f.interior, m.full_mask)
        for f in enumerate_flags(m, complete=False)
    ])


def _interval_minor(m: OrientedMatroid, lo: int, hi: int) -> tuple[tuple[frozenset, tuple[int, ...]], ...]:
    """The interval minor (M|hi)/lo of two nested flats, cached per pair, as
    its connected components, each its covector codes `plus | minus << n`
    (the covectors of m that vanish on lo, listed once per flat lo,
    restricted to it) and circuits: the minimal nonempty C - lo over the
    circuits C of m inside hi (Oxley, Matroid Theory, 2011, 3.1.11), none
    longer than the minor's rank plus one.  Elements share a component when
    a chain of circuits joins them."""

    def build():
        n, block, size = m.n, hi & ~lo, m.flats[hi] - m.flats[lo] + 1
        found: list[int] = []
        for c in sorted({c & ~lo for c in circuits(m) if not c & ~hi}, key=int.bit_count):
            if 0 < c.bit_count() <= size and all(d & ~c for d in found):
                found.append(c)
        parts = [1 << e for e in bits_of(block)]
        for c in found:
            parts = [s for s in parts if not s & c] + [sum(s for s in parts if s & c)]
        keep = block | block << n
        codes = {c & keep for c in m.memo(("vanishing", lo), lambda: [
            v.plus | v.minus << n for v in m.covectors if not v.support & lo])}
        return tuple((frozenset(c & (s | s << n) for c in codes), tuple(sorted(c for c in found if c & s)))
                     for s in parts)

    return m.memo(("minor", lo, hi), build)


def stalk_matroid(m: OrientedMatroid, flag: Flag) -> OrientedMatroid:
    """Initial matroid of a flag; the trivial flag gives back m.

    It is the direct sum of the interval minors (M|F_{i+1})/F_i of the flag
    (Ardila & Klivans, JCTB 96, 2006), so its covectors are the products of
    the minors' components' covectors and its circuits are theirs.  A stalk
    is keyed by its set of components, which fixes its covector set: flags
    with the same stalk share one matroid object, m itself when the
    components are m's, so everything cached on a stalk is computed once per
    distinct stalk.
    """
    if flag.interior == ():
        return m

    def build():
        parts = frozenset(c for lo, hi in zip(flag.flats, flag.flats[1:])
                          for c in _interval_minor(m, lo, hi))
        if parts == frozenset(_interval_minor(m, 0, m.full_mask)):
            return m
        return m.memo(("stalk", parts), lambda: _direct_sum(m, parts))

    return m.memo(("stalk_of", flag.flats), build)


def _direct_sum(m: OrientedMatroid, parts: frozenset) -> OrientedMatroid:
    """The matroid on m's ground set whose components are `parts`."""
    codes = [0]
    for covs, _ in parts:
        codes = [a | b for a in codes for b in covs]
    mf = OrientedMatroid(SignVector(m.n, c & m.full_mask, c >> m.n) for c in codes)
    found = tuple(sorted(c for _, circs in parts for c in circs))
    mf.memo("circuits", lambda: found)
    return mf


# ---------------------------------------------------------------------------
# stalk maps, which depend on a nested pair of flags only through its stalks:
# each is cached once per pair (or triple) of stalks, on the subflag's stalk

def _tope_map(m_sub: OrientedMatroid, m_sup: OrientedMatroid) -> tuple[int, ...]:
    """The sign map of a nested pair as an index map: entry j is the index,
    among the subflag's stalk topes, of the superflag's stalk tope j, which
    its minus set fixes."""

    def build():
        try:
            return tuple(map(m_sub.tope_by_minus.__getitem__, (t.minus for t in m_sup.topes)))
        except KeyError:
            raise ValueError("tope sets of the stalks are not nested") from None

    return m_sub.memo(("tope_map", m_sup), build)


def _scatter(idx: tuple[int, ...], chain, size: int) -> list[int]:
    """Push a chain through a tope index map."""
    out = [0] * size
    for j, c in enumerate(chain):
        if c:
            out[idx[j]] += c
    return out


def _subset_masks(m: OrientedMatroid, p: int, supports: Optional[Sequence] = None) -> tuple[int, ...]:
    """Per tope, the mask of the p-subsets, by `subset_index`, whose support
    holds it, from `supports` or else `heaviside_pairing`; cached per stalk
    and degree."""

    def build():
        subsets: list[list[int]] = [[] for _ in m.topes]
        for k, topes in enumerate(supports or heaviside_pairing(m, p)):
            for i in topes:
                subsets[i].append(k)
        return tuple(map(mask_from_bits, subsets))

    return m.memo(("subset_masks", p), build)


def _lower_included(m_sub: OrientedMatroid, m_sup: OrientedMatroid, q: int) -> bool:
    """Whether the tope index map carries the superflag's degree-q lower piece
    into the subflag's: true if that saturated piece has full rank (Z^n), else
    tested on all basis rows at once, moved through the index map
    (`LatticeZ.contains_all`).  The verdict is cached per pair and degree."""

    def build():
        idx, target = _tope_map(m_sub, m_sup), vg_lower(m_sub, q)
        return target.rank == target.ambient_dim or target.contains_all(vg_lower(m_sup, q).basis, idx)

    return m_sub.memo(("lower_included", m_sup, q), build)


# ---------------------------------------------------------------------------
# stalk exactness

class SESReport(NamedTuple):
    flag: tuple[int, ...]
    p: int
    rank_p: int
    rank_next: int
    rank_a: int
    surjective: bool
    kernel_ok: bool
    ok: bool


def verify_ses(m: OrientedMatroid, flag: Flag, p: int) -> SESReport:
    """Exactness over the integers of the degree-p stalk sequence at a cone.

    The pairing map must carry the stalk's degree-p lower piece onto its dual
    algebra piece, and its kernel must equal the degree-(p+1) piece.  Both
    come from the step of the stalk's `vg_lower` ladder that cuts degree p by
    the degree-p Heaviside supports (`pairing_step`): one Hermite form per
    stalk and degree, shared by every cone with that stalk.
    """
    mf = stalk_matroid(m, flag)

    def build():
        lower, supports = vg_lower(mf, p), heaviside_pairing(mf, p)
        _subset_masks(mf, p, supports)  # for the naturality checks, from the same supports
        kernel, image = pairing_step(mf, "vg_ladder", lower, p, supports)
        nxt, a = vg_lower(mf, p + 1), cordovil_dual(mf, p)
        return lower.rank, nxt.rank, a.rank, lattice_equal(image, a), lattice_equal(kernel, nxt)

    rank_p, rank_next, rank_a, surjective, kernel_ok = mf.memo(("ses", p), build)
    return SESReport(
        flag.flats, p, rank_p, rank_next, rank_a,
        surjective, kernel_ok, surjective and kernel_ok,
    )


# ---------------------------------------------------------------------------
# naturality

class NaturalityReport(NamedTuple):
    sub: tuple[int, ...]
    sup: tuple[int, ...]
    p: int
    inclusions_ok: bool
    square_ok: bool
    checked: int
    detail: str
    ok: bool


def verify_naturality(m: OrientedMatroid, sub: Flag, sup: Flag, p: int) -> NaturalityReport:
    """Commutation of the degree-p stalk squares for a nested pair of flags.

    The two inclusion squares hold once the tope index map carries the lower
    pieces of degrees p and p+1 into the target's and the dual-algebra pieces
    are nested.  The pairing square holds on every chain for each p-subset
    whose support on the source's stalk is the pullback, along the index
    map, of its support on the target's; the other subsets are evaluated on
    each basis row of the source's degree-p piece in turn.
    """
    if not sub.is_subflag_of(sup):
        detail = "first flag is not a subflag of the second"
        return NaturalityReport(sub.flats, sup.flats, p, False, False, 0, detail, False)
    return _naturality(sub, sup, p, stalk_matroid(m, sub), stalk_matroid(m, sup))


def _naturality(sub: Flag, sup: Flag, p: int, m_sub: OrientedMatroid,
                m_sup: OrientedMatroid) -> NaturalityReport:
    """`verify_naturality` for flags with these stalks, once per stalk pair and degree."""

    def build():
        if m_sub is m_sup:  # the identity map: every square holds
            return True, True, len(vg_lower(m_sup, p).basis), ""
        try:
            idx = _tope_map(m_sub, m_sup)
        except ValueError as e:
            return False, False, 0, str(e)
        for q in (p, p + 1):
            if not _lower_included(m_sub, m_sup, q):
                return False, False, 0, f"inclusion does not respect the degree-{q} lower piece"
        dual = cordovil_dual(m_sub, p)  # its pivots are 1, so of full rank it is Z^n
        if dual.rank < dual.ambient_dim and not dual.contains_lattice(cordovil_dual(m_sup, p)):
            return False, False, 0, f"inclusion does not respect the degree-{p} dual-algebra piece"
        # per tope j, the p-subsets whose support and pulled-back support
        # differ at j; each row is paired on those subsets only
        basis, sub_masks = vg_lower(m_sup, p).basis, _subset_masks(m_sub, p)
        differ = [(j, mine, x) for j, (mine, i) in enumerate(zip(_subset_masks(m_sup, p), idx))
                  if (x := mine ^ sub_masks[i])]
        if differ:
            for checked, row in enumerate(basis, 1):
                sums = defaultdict(int)
                for j, mine, x in differ:
                    for k in bits_of(x):
                        sums[k] += row[j] if mine >> k & 1 else -row[j]
                if any(sums.values()):
                    return True, False, checked, f"pairing square fails on a degree-{p} basis chain"
        return True, True, len(basis), ""

    inclusions_ok, square_ok, checked, detail = m_sub.memo(("naturality", m_sup, p), build)
    return NaturalityReport(sub.flats, sup.flats, p, inclusions_ok, square_ok, checked,
                            detail, inclusions_ok and square_ok)


# ---------------------------------------------------------------------------
# flag lifting

def flag_lift(m: OrientedMatroid, flag: Flag, g: Flag) -> Flag:
    """Lift a complete flag of the stalk matroid to a complete flag of m.

    Each stalk flat splits block by block along the base flag; running
    through the blocks in order and saturating each with the lower base flat
    yields a chain whose distinct members form a complete flag of m with the
    same multiset of difference sets.
    """
    mf = stalk_matroid(m, flag)
    if any(f not in mf.flats for f in g.flats) or not is_complete_flag(mf, g):
        raise ValueError("not a complete flag of the stalk matroid")
    chain = []
    for lo, hi in zip(flag.flats, flag.flats[1:]):
        block = hi & ~lo
        for gf in g.flats:
            chain.append((gf & block) | lo)
    lifted = make_flag(m, list(dict.fromkeys(chain)))
    if not is_complete_flag(m, lifted):
        raise RuntimeError("lifted flag is not a complete flag of the matroid")
    return lifted


# ---------------------------------------------------------------------------
# the fan-wide verification

class TheoremCReport(NamedTuple):
    cones: int
    ses: list[SESReport]
    naturality: list[NaturalityReport]
    compositions: int
    failures: list[str]
    ok: bool


def _composes(m_sub: OrientedMatroid, m_mid: OrientedMatroid, m_sup: OrientedMatroid) -> bool:
    """Whether a stalk triple's sign map is the composite of its two steps."""

    def build():
        first, second = _tope_map(m_sub, m_mid), _tope_map(m_mid, m_sup)
        return _tope_map(m_sub, m_sup) == tuple(first[j] for j in second)

    return m_sub.memo(("composes", m_mid, m_sup), build)


def _proper_subflags(flags: list[Flag]) -> dict[Flag, list[Flag]]:
    """The proper subflags of each flag of a fan, in the order of `flags`.

    Every chain of proper flats is a cone of the fan, so the proper subflags
    of a flag are the flags on the proper subsets of its interior flats.
    """
    position = {flag.flats: i for i, flag in enumerate(flags)}

    def subflags(sup: Flag) -> list[Flag]:
        lo, hi, inner = sup.flats[0], sup.flats[-1], sup.interior
        return [flags[i] for i in sorted(position[(lo, *s, hi)]
                                         for k in range(len(inner))
                                         for s in combinations(inner, k))]

    return {sup: subflags(sup) for sup in flags}


def verify_theorem_C(m: OrientedMatroid) -> TheoremCReport:
    """Stalk exactness and functoriality over the whole fan, all degrees.

    Runs the exactness check at every cone, the naturality check at every
    proper nested pair of flags, and the composition identity of sign maps,
    as tope index maps, over every chain of three nested flags.  Dual-algebra
    maps are identities on coordinates, so their compositions hold by
    construction.
    """
    flags = [cone.flag for cone in fan_cones(m)]
    stalk = {flag: stalk_matroid(m, flag) for flag in flags}
    below = _proper_subflags(flags)
    failures: list[str] = []
    ses = []
    for flag in flags:
        for p in range(m.rank + 1):
            rep = verify_ses(m, flag, p)
            ses.append(rep)
            if not rep.ok:
                failures.append(f"exactness fails at flag {flag.flats} degree {p}")
    naturality = []
    for sup in flags:
        for sub in below[sup]:
            for p in range(m.rank + 1):
                rep = _naturality(sub, sup, p, stalk[sub], stalk[sup])
                naturality.append(rep)
                if not rep.ok:
                    failures.append(
                        f"naturality fails for {sub.flats} in {sup.flats} degree {p}"
                    )
    compositions = 0
    for sup in flags:
        for mid in below[sup]:
            for sub in below[mid]:
                compositions += 1
                if not _composes(stalk[sub], stalk[mid], stalk[sup]):
                    failures.append(
                        f"composition fails through {mid.flats} between "
                        f"{sub.flats} and {sup.flats}"
                    )
    return TheoremCReport(
        len(flags), ses, naturality, compositions, failures, not failures
    )


# ---------------------------------------------------------------------------
# the integral lifting obstruction

class ImpossibilityReport(NamedTuple):
    unknowns: int
    equations: int
    feasible: bool
    mod2_consistent: bool


def impossibility_check(m: OrientedMatroid) -> ImpossibilityReport:
    """Integer feasibility of lifting the degree-1 wedge maps over the fan.

    A global integral lift assigns a coordinate vector to each basis chain of
    the degree-1 lower piece, subject to: vanishing on the degree-2 piece,
    reduction mod 2 to the wedge-coordinate image, and, for every rank-one
    flat, landing in the span of the flat indicator and its complement
    indicator on chains pushed up from that stalk.  The parity part is
    eliminated by substituting twice-new-unknowns plus the known residues, and
    the remaining linear system is solved over the integers; infeasibility
    means no such lift exists even though the residues satisfy every equation
    mod 2.
    """
    if m.rank != 2:
        raise ValueError("the lifting obstruction system is built for rank 2")
    lower = vg_lower(m, 1)
    basis = [list(row) for row in lower.basis]
    r = len(basis)
    n = m.n
    # wedge bit j is the 1-subset (j,): `subset_index(n, 1)` is the identity
    wedges = [qbv(m, chain_mod2(chain), 1) for chain in basis]
    residues = [[w >> j & 1 for j in range(n)] for w in wedges]

    rows: list[list[int]] = []
    rhs: list[int] = []

    def add_constraint(coeffs: list[int], col_a: int, col_b: Optional[int]):
        # sum_k coeffs[k] * (x[k][a] - x[k][b]) = 0, with x = 2y + residue
        row = [0] * (r * n)
        const = 0
        for k, c in enumerate(coeffs):
            if not c:
                continue
            row[k * n + col_a] += 2 * c
            const += c * residues[k][col_a]
            if col_b is not None:
                row[k * n + col_b] -= 2 * c
                const -= c * residues[k][col_b]
        rows.append(row)
        rhs.append(-const)

    for row2 in vg_lower(m, 2).basis:
        coeffs = lower.coords_of(list(row2))
        if coeffs is None:
            raise RuntimeError("degree-2 lower piece is not inside the degree-1 piece")
        for j in range(n):
            add_constraint(coeffs, j, None)

    for f in m.flats_by_rank[1]:
        mf = stalk_matroid(m, make_flag(m, [f]))
        idx = _tope_map(m, mf)  # the trivial flag's stalk is m
        for brow in vg_lower(mf, 1).basis:
            pushed = _scatter(idx, brow, len(m.topes))
            coeffs = lower.coords_of(pushed)
            if coeffs is None:
                raise RuntimeError(
                    "stalk map does not carry the stalk's degree-1 piece into the degree-1 piece"
                )
            for part in (f, m.full_mask & ~f):
                coords = list(bits_of(part))
                for a, b in zip(coords, coords[1:]):
                    add_constraint(coeffs, a, b)

    solution = solve_diophantine(rows, rhs)
    mod2_consistent = all(c % 2 == 0 for c in rhs)
    return ImpossibilityReport(r * n, len(rows), solution is not None, mod2_consistent)
