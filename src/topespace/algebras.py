"""Circuits, NBC data, the Cordovil dual, and projectivization.

Degree-p pieces live in a single coordinate chart: the p-th exterior power
(or the degree-p slice of the square-free polynomial ring) of the free module
on the ground set, with coordinates indexed by sorted p-subsets.  The
Cordovil dual is the annihilator of the circuit relations, read off the nbc
straightening.  The dual and the antipodal image are integer lattices and
the projective quotient a GF(2) subspace, so ranks and memberships are exact.
"""

from __future__ import annotations

from itertools import combinations
from typing import NamedTuple, Optional, Sequence

from .linalg import (
    LatticeZ,
    SubspaceGF2,
    bits_of,
    mask_from_bits,
    xor_span,
)
from .om import OrientedMatroid, SignVector

# ---------------------------------------------------------------------------
# circuits


def circuits(m: OrientedMatroid) -> tuple[int, ...]:
    """Masks of the minimal dependent subsets, sorted; cached per matroid."""

    def build():
        found: list[int] = []
        for size in range(2, m.rank + 2):
            for combo in combinations(range(m.n), size):
                mask = mask_from_bits(combo)
                if any(c & ~mask == 0 for c in found):
                    continue
                if m.subset_rank(mask) < size:
                    found.append(mask)
        return tuple(sorted(found))

    return m.memo("circuits", build)


def _orthogonal(x: SignVector, y: SignVector) -> bool:
    agree = (x.plus & y.plus) | (x.minus & y.minus)
    disagree = (x.plus & y.minus) | (x.minus & y.plus)
    return (agree != 0) == (disagree != 0)


def signed_circuits(m: OrientedMatroid) -> list[SignVector]:
    """One signed circuit per circuit support, its smallest element positive.

    Candidate sign vectors on the support are screened by orthogonality to
    every cocircuit (the covectors whose zero set is a hyperplane), which
    leaves the vectors (Björner et al. 1999, §3.7): whenever the two agree
    with nonzero sign somewhere they must also disagree with nonzero sign
    somewhere.  Exactly one candidate per support survives once the global
    negation is fixed.  Cached per matroid; each call returns a fresh list.
    """

    def build():
        out: list[SignVector] = []
        cocircuits = [v for v in m.covectors if m.dim_of[v] == m.rank - 1]
        for mask in circuits(m):
            rest = mask & (mask - 1)  # the support after its smallest element
            valid: list[SignVector] = []
            for minus in xor_span([1 << e for e in bits_of(rest)]):
                cand = SignVector(m.n, mask ^ minus, minus)
                if all(_orthogonal(cand, v) for v in cocircuits):
                    valid.append(cand)
            if len(valid) != 1:
                raise ValueError(
                    f"circuit {mask:0{m.n}b} admits {len(valid)} sign patterns"
                )
            out.append(valid[0])
        return out

    return list(m.memo("signed_circuits", lambda: tuple(build())))


# ---------------------------------------------------------------------------
# broken circuits and NBC sets


def _order_positions(n: int, order: Optional[Sequence[int]]) -> list[int]:
    if order is None:
        return list(range(n))
    if sorted(order) != list(range(n)):
        raise ValueError("order must be a permutation of the ground set")
    pos = [0] * n
    for i, e in enumerate(order):
        pos[e] = i
    return pos


def broken_circuits(m: OrientedMatroid, order: Optional[Sequence[int]] = None) -> list[int]:
    """Masks of circuits with their order-smallest element removed."""
    pos = _order_positions(m.n, order)
    out = set()
    for mask in circuits(m):
        least = min(bits_of(mask), key=lambda e: pos[e])
        out.add(mask & ~(1 << least))
    return sorted(out)


def nbc_sets(m: OrientedMatroid, p: int, order: Optional[Sequence[int]] = None) -> list[tuple[int, ...]]:
    """All p-subsets containing no broken circuit, as sorted index tuples."""
    broken = broken_circuits(m, order)
    out = []
    for combo in combinations(range(m.n), p):
        mask = mask_from_bits(combo)
        if not any(b & ~mask == 0 for b in broken):
            out.append(combo)
    return out


# ---------------------------------------------------------------------------
# exterior and square-free coordinates


def subset_index(n: int, p: int) -> dict:
    return {s: i for i, s in enumerate(combinations(range(n), p))}


# ---------------------------------------------------------------------------
# Cordovil dual


def cordovil_dual(m: OrientedMatroid, p: int) -> LatticeZ:
    """Degree-p annihilator of the circuit relations m0·dC in the square-free
    ring, dC = sum over e in C of C(e)·x_{C-e}.

    The degree-p quotient is free on the nbc monomials (Cordovil, DCG 27,
    2002; Orlik & Terao 1992, section 3.1), so the annihilator has the dual
    basis f_B(e_S) = the coefficient of e_B in the straightening of e_S.  A
    set S holding a broken circuit C - min C straightens at the first one:
    e_S = 0 if S holds all of C, else e_S = -sum over e in C - min C of
    C(e)·e_{S-e+min C} (min C is positive), each set lex smaller than S.  So
    one pass in lex order straightens every set, and f_B, with 1 at B, 0 at
    the other nbc sets and its other nonzeros past B, is a canonical HNF row.
    Cached per matroid and degree; every caller shares the frozen result.
    """

    def build():
        rules = []  # (broken circuit C - min C, min C, straightening terms)
        for c in signed_circuits(m):
            broken = c.support & (c.support - 1)
            terms = [(1 << e, -c.sign(e)) for e in bits_of(broken)]
            rules.append((broken, c.support ^ broken, terms))
        sets = [mask_from_bits(t) for t in combinations(range(m.n), p)]
        straight: dict[int, dict[int, int]] = {}  # set -> {nbc set: coefficient}
        rows: dict[int, list[int]] = {}  # nbc set -> its dual basis row
        for s in sets:
            rule = next((r for r in rules if not r[0] & ~s), None)
            if rule is None:
                straight[s], rows[s] = {s: 1}, [0] * len(sets)
                continue
            _, low, terms = rule
            out = straight[s] = {}
            if s & low:  # S holds all of C, so e_S = 0
                continue
            for bit, sign in terms:
                for b, v in straight[(s ^ bit) | low].items():
                    out[b] = out.get(b, 0) + sign * v
        for j, s in enumerate(sets):
            for b, v in straight[s].items():
                rows[b][j] = v
        return LatticeZ(len(sets), tuple(map(tuple, rows.values())))

    return m.memo(("cordovil_dual", p), build)


# ---------------------------------------------------------------------------
# projectivization


class ProjectivizationReport(NamedTuple):
    p: int
    rank_b: int
    dim_projective: int
    parity: str
    ok: bool
    detail: str


def projectivize(m: OrientedMatroid, p: int, order: Optional[Sequence[int]] = None) -> ProjectivizationReport:
    """Quotient of the Cordovil dual by the image of antipodal differences.

    The antipodal sublattice of the tope space cut with the p-th lower piece
    (`_antipodal_lower`) is pushed forward by the step of its ladder that
    builds degree p + 1 (`pairing_step`); for even p the image must be
    zero, while for odd p it must pin the quotient to a GF(2) space whose
    dimension counts the NBC sets avoiding the order-smallest element.
    """
    from .filtrations import _antipodal_lower, pairing_step

    _, b = pairing_step(m, "antipodal_lower", _antipodal_lower(m, p), p)
    a = cordovil_dual(m, p)
    if p % 2 == 0:
        ok = b.rank == 0
        return ProjectivizationReport(
            p, b.rank, a.rank, "even", ok,
            f"antipodal image rank {b.rank}; quotient of rank {a.rank} unchanged",
        )
    # HNF(2A) = 2·HNF(A): doubling keeps the pivots and the reduced range
    doubled = LatticeZ(a.ambient_dim, tuple(tuple(2 * x for x in row) for row in a.basis))
    sandwiched = a.contains_lattice(b) and b.contains_lattice(doubled)
    if not sandwiched:
        return ProjectivizationReport(
            p, b.rank, -1, "odd", False, "antipodal image is not between 2A and A"
        )
    coord_rows = [a.coords_of(list(row)) for row in b.basis]
    image2 = SubspaceGF2.from_generators(
        a.rank,
        [mask_from_bits(i for i, x in enumerate(cs) if x & 1) for cs in coord_rows],
    )
    dimq = a.rank - image2.dim
    pos = _order_positions(m.n, order)
    least = min(range(m.n), key=lambda e: pos[e])
    expect = sum(1 for s in nbc_sets(m, p, order) if least not in s)
    ok = dimq == expect
    return ProjectivizationReport(
        p, b.rank, dimq, "odd", ok,
        f"GF(2) quotient dimension {dimq}; NBC sets avoiding element {least}: {expect}",
    )
