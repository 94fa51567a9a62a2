"""Cell complexes attached to an oriented matroid.

The coarse complex has one cell per pair (L, T) with L a covector, T a tope
in its star (L composed with T equals T); the dimension of the cell is the
rank of the zero set of L.  Its boundaries are bitmasks mod 2, on which the
Björner–Ziegler cochains are evaluated.  The complex is a regular CW complex
(Salvetti 1987), so integral incidence numbers +-1 follow from the face poset
alone: `signed_boundary` propagates them over the diamonds of each cell, and
`homology_Z` takes Smith normal forms of those coarse boundaries.

The fine complex, the order complex of the face poset of coarse cells, serves
no package path; it is kept for the benchmark's `salvetti.fine` span and as
the test oracle's integral homology.

Chains are bitmasks over the canonical cell order of their dimension.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .linalg import bits_of, gf2_rref, mask_from_bits, parity, snf_diagonal_sparse
from .om import OrientedMatroid, SignVector, compose

CellKey = tuple[SignVector, SignVector]


def _key_sort(key: CellKey):
    l, t = key
    return (l.plus, l.minus, t.plus, t.minus)


class IncidenceError(ValueError):
    """The face poset does not orient as a regular CW complex."""


def orient_boundary(cx, d: int) -> list[dict[int, int]]:
    """Integral boundary of the d-cells of a regular CW complex, one
    {(d-1)-cell index: +-1} dict per d-cell, from its mod-2 boundary masks.

    The first facet of a cell gets +1, and signs spread through the
    facet-adjacency graph over shared ridges: [c:f'] = -[c:f][f:r][f':r],
    which makes every diamond c > f, f' > r cancel (Kaczynski, Mischaikow &
    Mrozek, Computational Homology, 2004, section 11).  Below the edges sits
    the augmentation, every vertex bounding the (-1)-cell -1 with sign +1, so
    an edge's first vertex gets +1 and its second -1.  `cx` supplies
    `boundary_masks(d)` and, for d >= 2, the oriented `signed_boundary(d - 1)`.
    Raises IncidenceError when a cell has no facets, a ridge lies in other
    than two facets of a cell, the facets of a cell are not connected, or a
    sign is forced both ways.
    """
    below = cx.signed_boundary(d - 1) if d > 1 else defaultdict(lambda: {-1: 1})
    out = []
    for c, mask in enumerate(cx.boundary_masks(d)):
        facets = list(bits_of(mask))
        if not facets:
            raise IncidenceError(f"{d}-cell {c} has no facets")
        owners: dict[int, list[int]] = defaultdict(list)
        for f in facets:
            for r in below[f]:
                owners[r].append(f)
        for r, fs in owners.items():
            if len(fs) != 2:
                raise IncidenceError(
                    f"{d}-cell {c}: ridge {r} lies in {len(fs)} facets, not 2")
        sign = {facets[0]: 1}
        stack = [facets[0]]
        while stack:
            f = stack.pop()
            for r, v in below[f].items():
                a, b = owners[r]
                g = b if a == f else a
                s = -sign[f] * v * below[g][r]
                if g not in sign:
                    sign[g] = s
                    stack.append(g)
                elif sign[g] != s:
                    raise IncidenceError(
                        f"{d}-cell {c}: facet {g} is forced to both signs")
        if len(sign) != len(facets):
            raise IncidenceError(f"{d}-cell {c}: its facets are not connected")
        out.append({f: sign[f] for f in facets})
    return out


class SalvettiComplex:
    """The coarse complex: cells (L, T), boundaries mod 2 and over Z, conjugation."""

    def __init__(self, m: OrientedMatroid):
        self.m = m
        self.dim = m.rank
        cells: list[list[CellKey]] = [[] for _ in range(self.dim + 1)]
        for l in m.covectors:
            d = m.dim_of[l]
            for t in m.topes:
                if compose(l, t) == t:
                    cells[d].append((l, t))
        self.cells = [sorted(cs, key=_key_sort) for cs in cells]
        self.index: list[dict[CellKey, int]] = [
            {key: i for i, key in enumerate(cs)} for cs in self.cells
        ]
        self._boundary: list[Optional[list[int]]] = [None] * (self.dim + 1)
        self._signed: list[Optional[list[dict[int, int]]]] = [None] * (self.dim + 1)
        self._conj: list[Optional[list[int]]] = [None] * (self.dim + 1)

    def n_cells(self, d: int) -> int:
        return len(self.cells[d]) if 0 <= d <= self.dim else 0

    def boundary_masks(self, d: int) -> list[int]:
        """For each d-cell, the mask of its boundary over (d-1)-cells."""
        if d == 0:
            return [0] * self.n_cells(0)
        if self._boundary[d] is None:
            lower = [v for v in self.m.covectors if self.m.dim_of[v] == d - 1]
            out = []
            for l, t in self.cells[d]:
                mask = 0
                for l2 in lower:
                    if l.le(l2) and l != l2:
                        mask |= 1 << self.index[d - 1][(l2, compose(l2, t))]
                out.append(mask)
            self._boundary[d] = out
        return self._boundary[d]

    def signed_boundary(self, d: int) -> list[dict[int, int]]:
        """For each d-cell, its integral boundary as {(d-1)-cell: +-1}."""
        if d == 0:
            return [{} for _ in range(self.n_cells(0))]
        if self._signed[d] is None:
            self._signed[d] = orient_boundary(self, d)
        return self._signed[d]

    def boundary_of(self, d: int, chain: int) -> int:
        masks = self.boundary_masks(d)
        out = 0
        for i in bits_of(chain):
            out ^= masks[i]
        return out

    def conj_cell(self, key: CellKey) -> CellKey:
        l, t = key
        return (l, compose(l, t.negate()))

    def conj_perm(self, d: int) -> list[int]:
        if self._conj[d] is None:
            idx = self.index[d]
            self._conj[d] = [idx[self.conj_cell(key)] for key in self.cells[d]]
        return self._conj[d]

    def conj_chain(self, d: int, chain: int) -> int:
        perm = self.conj_perm(d)
        out = 0
        for i in bits_of(chain):
            out |= 1 << perm[i]
        return out

    def vertex_of_tope(self, t: SignVector) -> int:
        return self.index[0][(t, t)]

    def cell_bit(self, l: SignVector, t: SignVector) -> tuple[int, int]:
        """(dim, bitmask) of the cell with covector l and any tope t >= l.

        The tope component is normalized by composition, so two topes whose
        compositions with l agree name the same cell.
        """
        d = self.m.dim_of[l]
        return d, 1 << self.index[d][(l, compose(l, t))]


def get_salvetti(m: OrientedMatroid) -> SalvettiComplex:
    return m.memo("salvetti", lambda: SalvettiComplex(m))


def bz_cochain_eval(sal: SalvettiComplex, s: Iterable[int], p: int, chain: int) -> int:
    """Evaluate the cochain indexed by a p-subset of the ground set on a
    coarse p-chain.

    Order the subset decreasingly as i_1 > ... > i_p.  The cochain is the
    pullback of the Björner–Ziegler cochain along the subdivision: a j-cell
    (L, T) is in it when T is positive on the subset, L is positive at
    i_{j+1..p} and zero at i_{1..j}, and, for j > 0, an odd number of the
    (j-1)-cells of its boundary are in the level below.  That parity counts
    mod 2 the full flags of faces of the cell that pass the position tests.
    The mask is cached per (p, subset); an evaluation is its parity against
    the chain.
    """
    ss = tuple(sorted(set(s), reverse=True))
    if len(ss) != p:
        raise ValueError("subset size must match the degree")
    if ss and (ss[-1] < 0 or ss[0] >= sal.m.n):
        raise ValueError("subset element outside the ground set")

    def build():
        subset = mask_from_bits(ss)
        level = 0
        for j in range(p + 1):
            positive = subset & ~mask_from_bits(ss[:j])
            below, level = level, 0
            bounds = sal.boundary_masks(j)
            for i, (l, t) in enumerate(sal.cells[j]):
                if (t.plus & subset == subset and l.plus & subset == positive
                        and not l.minus & subset
                        and (j == 0 or parity(bounds[i] & below))):
                    level |= 1 << i
        return level

    return parity(sal.m.memo(("bz_cochain", p, ss), build) & chain)


def face_le(a: CellKey, b: CellKey) -> bool:
    """Whether cell a lies in the closure of cell b."""
    la, ta = a
    lb, tb = b
    return lb.le(la) and ta == compose(la, tb)


class FineComplex:
    """Order complex of the face poset of the coarse cells.

    Simplices are strictly increasing chains under the face relation, stored
    ascending: index 0 is the smallest cell (closest to a vertex).  Boundaries
    carry the simplicial signs (-1)^j for dropping position j.
    """

    def __init__(self, sal: SalvettiComplex):
        self.sal = sal
        elements: list[CellKey] = []
        for d in range(sal.dim + 1):
            elements.extend(sal.cells[d])
        self.elements = elements
        self.el_index = {key: i for i, key in enumerate(elements)}
        self.el_dim = [sal.m.dim_of[l] for l, _ in elements]
        n = len(elements)
        above: list[list[int]] = [[] for _ in range(n)]
        for i, a in enumerate(elements):
            da = self.el_dim[i]
            for j, b in enumerate(elements):
                if self.el_dim[j] > da and face_le(a, b):
                    above[i].append(j)
        self.above = above
        chains: list[list[tuple[int, ...]]] = [[] for _ in range(sal.dim + 1)]

        def grow(chain: list[int]):
            chains[len(chain) - 1].append(tuple(chain))
            for j in above[chain[-1]]:
                grow(chain + [j])

        for i in range(n):
            grow([i])
        self.simplices = [sorted(cs) for cs in chains]
        self.sim_index = [
            {c: i for i, c in enumerate(cs)} for cs in self.simplices
        ]
        self._boundary_entries: list[Optional[dict]] = [None] * (sal.dim + 1)

    def n_simplices(self, p: int) -> int:
        return len(self.simplices[p]) if 0 <= p <= self.sal.dim else 0

    def boundary_entries(self, p: int) -> dict:
        """Sparse integral boundary of degree p: (row, col) -> coefficient."""
        if p == 0:
            return {}
        if self._boundary_entries[p] is None:
            entries: dict[tuple[int, int], int] = {}
            lower = self.sim_index[p - 1]
            for col, chain in enumerate(self.simplices[p]):
                for j in range(len(chain)):
                    sub = chain[:j] + chain[j + 1 :]
                    row = lower[sub]
                    entries[(row, col)] = entries.get((row, col), 0) + (
                        1 if j % 2 == 0 else -1
                    )
            self._boundary_entries[p] = {k: v for k, v in entries.items() if v}
        return self._boundary_entries[p]


def get_fine(m: OrientedMatroid) -> FineComplex:
    return m.memo("fine", lambda: FineComplex(get_salvetti(m)))


# ---------------------------------------------------------------------------
# homology


class Mod2Homology:
    """Mod-2 homology of a complex given by boundary masks per degree."""

    def __init__(self, boundaries: Sequence[Sequence[int]]):
        # boundaries[d] has one mask per d-cell over (d-1)-cells
        self.boundaries = [list(b) for b in boundaries]
        self.n = [len(b) for b in self.boundaries]
        self.top = len(self.boundaries) - 1
        self._image_rref: dict[int, tuple[tuple[int, ...], tuple[int, ...]]] = {}
        self.ranks = [0] * (self.top + 2)
        for d in range(1, self.top + 1):
            rows, _ = gf2_rref(self.boundaries[d])
            self.ranks[d] = len(rows)

    def dim(self, d: int) -> int:
        if not 0 <= d <= self.top:
            return 0
        return self.n[d] - self.ranks[d] - self.ranks[d + 1]

    def dims(self) -> list[int]:
        return [self.dim(d) for d in range(self.top + 1)]

    def _image(self, d: int):
        if d not in self._image_rref:
            src = self.boundaries[d + 1] if d + 1 <= self.top else []
            self._image_rref[d] = gf2_rref(src)
        return self._image_rref[d]

    def is_cycle(self, d: int, chain: int) -> bool:
        if d == 0:
            return True
        out = 0
        for i in bits_of(chain):
            out ^= self.boundaries[d][i]
        return out == 0

    def class_of(self, d: int, chain: int) -> int:
        """Canonical representative of the homology class of a cycle."""
        if not self.is_cycle(d, chain):
            raise ValueError("chain is not a cycle")
        rows, _ = self._image(d)
        v = chain
        for row in rows:
            low = row & -row
            if v & low:
                v ^= row
        return v


def homology_mod2(sal: SalvettiComplex) -> Mod2Homology:
    return sal.m.memo("homology_mod2", lambda: Mod2Homology(
        [sal.boundary_masks(d) for d in range(sal.dim + 1)]
    ))


@dataclass
class IntegralHomology:
    betti: list[int]
    torsion: list[list[int]]  # invariant factors > 1, per degree


def homology_Z(sal: SalvettiComplex) -> IntegralHomology:
    """Integral homology of the coarse complex via Smith normal forms of its
    signed boundaries."""
    def build():
        top = sal.dim
        diags: list[list[int]] = [[] for _ in range(top + 2)]
        for d in range(1, top + 1):
            entries = {(r, c): v for c, col in enumerate(sal.signed_boundary(d))
                       for r, v in col.items()}
            diags[d] = snf_diagonal_sparse(entries, sal.n_cells(d - 1), sal.n_cells(d))
        betti = []
        torsion = []
        for d in range(top + 1):
            betti.append(sal.n_cells(d) - len(diags[d]) - len(diags[d + 1]))
            torsion.append([x for x in diags[d + 1] if abs(x) > 1])
        return IntegralHomology(betti, torsion)

    return sal.m.memo("homology_Z", build)
