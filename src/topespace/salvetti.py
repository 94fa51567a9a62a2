"""Cell complexes attached to an oriented matroid.

The coarse complex has one cell per pair (L, T) with L a covector, T a tope
in its star (L composed with T equals T); the dimension of the cell is the
rank of the zero set of L.  Boundaries are taken mod 2.  The fine complex is
the order complex of the face poset of coarse cells, with integral simplicial
boundaries; a subdivision map carries coarse mod-2 chains to fine ones.

Chains are bitmasks over the canonical cell order of their dimension.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .linalg import bits_of, gf2_rref, parity, snf_diagonal_sparse
from .om import OrientedMatroid, SignVector, compose

CellKey = tuple[SignVector, SignVector]


def _key_sort(key: CellKey):
    l, t = key
    return (l.plus, l.minus, t.plus, t.minus)


class SalvettiComplex:
    """The coarse complex: cells (L, T), boundaries mod 2, conjugation."""

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

    def format_chain(self, d: int, chain: int) -> str:
        """Human-readable chain: cells as 'covector|tope' sign strings."""
        parts = []
        for i, (l, t) in enumerate(self.cells[d]):
            if (chain >> i) & 1:
                parts.append(f"[{l.to_str()}|{t.to_str()}]")
        return " + ".join(parts) if parts else "0"


def get_salvetti(m: OrientedMatroid) -> SalvettiComplex:
    return m.memo("salvetti", lambda: SalvettiComplex(m))


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

    def coarse_to_fine(self, d: int, chain: int) -> int:
        """Subdivision of a coarse mod-2 d-chain into fine d-simplices.

        Each coarse cell maps to the sum of its full flags of faces, every
        flag sharing the cell's tope component.
        """
        m = self.sal.m
        out = 0
        for i in bits_of(chain):
            out ^= m.memo(("c2f", d, i), lambda: self._subdivide_cell(d, i))
        return out

    def _subdivide_cell(self, d: int, i: int) -> int:
        l, t = self.sal.cells[d][i]
        m = self.sal.m
        # descending covector chains l0 > l1 > ... > ld = l, dims 0..d
        levels: list[list[SignVector]] = []
        for dim in range(d):
            levels.append(
                [v for v in m.covectors if m.dim_of[v] == dim and l.le(v)]
            )
        levels.append([l])
        out = 0
        idx = self.sim_index[d]

        def grow(pos: int, chain: list[SignVector]):
            nonlocal out
            if pos < 0:
                simplex = tuple(
                    self.el_index[(v, compose(v, t))] for v in reversed(chain)
                )
                out ^= 1 << idx[simplex]
                return
            for v in levels[pos]:
                if chain and not chain[-1].le(v):
                    continue
                grow(pos - 1, chain + [v])

        grow(d, [])
        return out

    def format_chain(self, p: int, chain: int) -> str:
        parts = []
        for i, simplex in enumerate(self.simplices[p]):
            if (chain >> i) & 1:
                labels = ",".join(
                    f"{self.elements[e][0].to_str()}|{self.elements[e][1].to_str()}"
                    for e in simplex
                )
                parts.append(f"<{labels}>")
        return " + ".join(parts) if parts else "0"


def get_fine(m: OrientedMatroid) -> FineComplex:
    return m.memo("fine", lambda: FineComplex(get_salvetti(m)))


def _cochain_masks(fine: FineComplex, p: int) -> tuple[list[list[int]], list[list[int]]]:
    """Masks over the fine p-simplices, per position j in the simplex and
    ground element e: `positive[j][e]` where L_j is positive at e, and
    `zero_pos[j][e]` where L_j is zero and T_j positive at e.

    One pass over the simplices groups them by the cell at each position;
    each cell's mask then goes to the elements named by its sign masks.
    """

    def build():
        n = fine.sal.m.n
        at: list[dict[int, int]] = [{} for _ in range(p + 1)]
        for i, simplex in enumerate(fine.simplices[p]):
            bit = 1 << i
            for j, el in enumerate(simplex):
                at[j][el] = at[j].get(el, 0) | bit
        positive = [[0] * n for _ in range(p + 1)]
        zero_pos = [[0] * n for _ in range(p + 1)]
        for j in range(p + 1):
            for el, mask in at[j].items():
                l, t = fine.elements[el]
                for e in bits_of(l.plus):
                    positive[j][e] |= mask
                for e in bits_of(t.plus & ~l.support):
                    zero_pos[j][e] |= mask
        return positive, zero_pos

    return fine.sal.m.memo(("bz_masks", p), build)


def bz_cochain_eval(fine: FineComplex, s: Iterable[int], p: int, chain: int) -> int:
    """Evaluate the cochain indexed by a p-subset of the ground set.

    On a p-simplex with ascending cells (L_0,T_0) < ... < (L_p,T_p) and the
    subset ordered decreasingly as i_1 > ... > i_p, the value is 1 when every
    L_s is positive at i_t for s < t, and zero at i_t with T_s positive there
    for s >= t; the result is the mod-2 sum over the chain.  The cochain is
    the AND of p*(p+1) masks from `_cochain_masks`, cached per (p, subset).
    """
    ss = tuple(sorted(set(s), reverse=True))
    if len(ss) != p:
        raise ValueError("subset size must match the degree")
    if ss and (ss[-1] < 0 or ss[0] >= fine.sal.m.n):
        raise ValueError("subset element outside the ground set")

    def build():
        positive, zero_pos = _cochain_masks(fine, p)
        cochain = (1 << fine.n_simplices(p)) - 1
        for t_pos, e in enumerate(ss, start=1):
            for s_pos in range(p + 1):
                cochain &= positive[s_pos][e] if s_pos < t_pos else zero_pos[s_pos][e]
        return cochain

    return parity(fine.sal.m.memo(("bz_cochain", p, ss), build) & chain)


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

    def same_class(self, d: int, a: int, b: int) -> bool:
        return self.class_of(d, a) == self.class_of(d, b)


def homology_mod2(sal: SalvettiComplex) -> Mod2Homology:
    return sal.m.memo("homology_mod2", lambda: Mod2Homology(
        [sal.boundary_masks(d) for d in range(sal.dim + 1)]
    ))


@dataclass
class IntegralHomology:
    betti: list[int]
    torsion: list[list[int]]  # invariant factors > 1, per degree


def homology_Z(fine: FineComplex) -> IntegralHomology:
    """Integral homology of the fine complex via Smith normal forms."""
    def build():
        top = fine.sal.dim
        diags: list[list[int]] = [[] for _ in range(top + 2)]
        for p in range(1, top + 1):
            diags[p] = snf_diagonal_sparse(
                fine.boundary_entries(p), fine.n_simplices(p - 1), fine.n_simplices(p)
            )
        betti = []
        torsion = []
        for p in range(top + 1):
            rank_p = len(diags[p])
            rank_up = len(diags[p + 1])
            betti.append(fine.n_simplices(p) - rank_p - rank_up)
            torsion.append([x for x in diags[p + 1] if abs(x) > 1])
        return IntegralHomology(betti, torsion)

    return fine.sal.m.memo("homology_Z", build)
