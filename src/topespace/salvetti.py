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

Chains are bitmasks over the canonical cell order of their dimension.  The
0-cells are the pairs (T, T) in tope order, so vertex i is tope i and a
mod-2 chain on topes is already a 0-chain.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Iterable, NamedTuple

from .linalg import SubspaceGF2, bits_of, check_mask, mask_from_bits, parity, snf_diagonal_sparse
from .om import OrientedMatroid, SignVector, compose

CellKey = tuple[SignVector, SignVector]


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
        # l <= t on the masks; covectors and topes are both in (plus, minus)
        # order, so each dimension's cells come out in (L, T) order
        cells: list[list[CellKey]] = [[] for _ in range(self.dim + 1)]
        for l in m.covectors:
            cells[m.dim_of[l]].extend((l, t) for t in m.topes
                                      if not (l.plus & ~t.plus or l.minus & ~t.minus))
        self.cells = cells
        self.index: list[dict[CellKey, int]] = [
            {key: i for i, key in enumerate(cs)} for cs in self.cells
        ]

    def n_cells(self, d: int) -> int:
        return len(self.cells[d]) if 0 <= d <= self.dim else 0

    def boundary_masks(self, d: int) -> list[int]:
        """For each d-cell, the mask of its boundary over (d-1)-cells."""
        if d == 0:
            return [0] * self.n_cells(0)

        def build():
            m = self.m
            # a (d-1)-cell by its covector code and its tope's minus mask
            lower = {(l.plus | l.minus << m.n, t.minus): i
                     for i, (l, t) in enumerate(self.cells[d - 1])}
            cofaces = self._cofaces(d)
            out = []
            for l, t in self.cells[d]:
                mask = 0
                # the facet (l2, l2∘t) of (l, t), for each coface l2 of l
                for code, minus, zero in cofaces[l]:
                    mask |= 1 << lower[code, minus | t.minus & zero]
                out.append(mask)
            return out

        return self.m.memo(("boundary_masks", d), build)

    def _cofaces(self, d: int) -> dict[SignVector, list[tuple[int, int, int]]]:
        """For each d-dimensional covector l, its (d-1)-dimensional cofaces
        l2 > l as (code, minus mask, zero set), code = plus | minus << n.

        The faces of l2 in dimension d are its restrictions away from the
        rank-d flats that contain its zero set, those that are covectors."""
        m = self.m
        by_code = {v.plus | v.minus << m.n: v for v in m.covectors if m.dim_of[v] == d}
        out: dict[SignVector, list[tuple[int, int, int]]] = {v: [] for v in by_code.values()}
        for l2 in m.covectors:
            if m.dim_of[l2] != d - 1:
                continue
            zero, code = l2.zero_set, l2.plus | l2.minus << m.n
            for f in m.flats_by_rank[d]:
                if not zero & ~f:
                    face = by_code.get(code & ~(f | f << m.n))
                    if face is not None:
                        out[face].append((code, l2.minus, zero))
        return out

    def signed_boundary(self, d: int) -> list[dict[int, int]]:
        """For each d-cell, its integral boundary as {(d-1)-cell: +-1}."""
        if d == 0:
            return [{} for _ in range(self.n_cells(0))]
        return self.m.memo(("signed_boundary", d), lambda: orient_boundary(self, d))

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
        return self.m.memo(("conj_perm", d), lambda: [
            self.index[d][self.conj_cell(key)] for key in self.cells[d]])

    def conj_chain(self, d: int, chain: int) -> int:
        perm = self.conj_perm(d)
        out = 0
        for i in bits_of(chain):
            out |= 1 << perm[i]
        return out

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

    def n_simplices(self, p: int) -> int:
        return len(self.simplices[p]) if 0 <= p <= self.sal.dim else 0

    def boundary_entries(self, p: int) -> dict:
        """Sparse integral boundary of degree p: (row, col) -> coefficient."""
        if p == 0:
            return {}

        def build():
            entries: dict[tuple[int, int], int] = {}
            lower = self.sim_index[p - 1]
            for col, chain in enumerate(self.simplices[p]):
                for j in range(len(chain)):
                    sub = chain[:j] + chain[j + 1 :]
                    row = lower[sub]
                    entries[(row, col)] = entries.get((row, col), 0) + (
                        1 if j % 2 == 0 else -1
                    )
            return {k: v for k, v in entries.items() if v}

        return self.sal.m.memo(("fine_boundary_entries", p), build)


def get_fine(m: OrientedMatroid) -> FineComplex:
    return m.memo("fine", lambda: FineComplex(get_salvetti(m)))


# ---------------------------------------------------------------------------
# homology


class Mod2Homology:
    """Mod-2 homology of the coarse complex, from its boundary masks."""

    def __init__(self, sal: SalvettiComplex):
        self.sal = sal
        # images[d] is the span of the boundaries of the d-cells; degree
        # sal.dim + 1 has no cells
        self.images = [SubspaceGF2.from_generators(sal.n_cells(d - 1), sal.boundary_masks(d))
                       for d in range(sal.dim + 1)]
        self.images.append(SubspaceGF2.zero(sal.n_cells(sal.dim)))

    def dim(self, d: int) -> int:
        if not 0 <= d <= self.sal.dim:
            return 0
        return self.sal.n_cells(d) - self.images[d].dim - self.images[d + 1].dim

    def dims(self) -> list[int]:
        return [self.dim(d) for d in range(self.sal.dim + 1)]

    def is_cycle(self, d: int, chain: int) -> bool:
        return self.sal.boundary_of(d, chain) == 0

    def class_of(self, d: int, chain: int) -> int:
        """Canonical representative of the homology class of a cycle."""
        if not 0 <= d <= self.sal.dim:
            raise ValueError(f"degree {d} outside 0..{self.sal.dim}")
        check_mask(chain, self.sal.n_cells(d), f"{d}-cells")
        if not self.is_cycle(d, chain):
            raise ValueError("chain is not a cycle")
        return self.images[d + 1].reduce(chain)


def homology_mod2(sal: SalvettiComplex) -> Mod2Homology:
    return sal.m.memo("homology_mod2", lambda: Mod2Homology(sal))


class IntegralHomology(NamedTuple):
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
