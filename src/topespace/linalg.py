"""Exact linear algebra over GF(2) and over the integers.

GF(2) vectors are Python ints used as bitmasks (bit i = coordinate i), so a
matrix is just a list of row masks and row reduction is XOR.  Integer
equations are sparse rows {col: value}; lattice bases and the matrices of
the Smith form are lists of rows of Python ints.  Everything is arbitrary
precision; no floating point is used anywhere in this package.
"""

from __future__ import annotations

from collections import defaultdict
from functools import cached_property
from itertools import compress
from math import gcd
from typing import TYPE_CHECKING, Iterable, NamedTuple, Optional, Sequence

if TYPE_CHECKING:
    import random


def parity(x: int) -> int:
    return x.bit_count() & 1


def mask_from_bits(bits: Iterable[int]) -> int:
    m = 0
    for b in bits:
        m |= 1 << b
    return m


def bits_of(mask: int) -> list[int]:
    """Set bit positions of a nonnegative mask, ascending.

    Clears the lowest set bit each step (`low = x & -x`): one big-int step
    per set bit, where shifting through the mask took one per bit position.
    """
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def check_mask(mask: int, size: int, what: str) -> None:
    """Raise ValueError unless 0 <= mask < 2^size, naming the `size` `what`."""
    if mask < 0 or mask >> size:
        raise ValueError(f"chain is not a mask over the {size} {what}")


def check_degree(p: int) -> None:
    """Raise ValueError for a negative degree."""
    if p < 0:
        raise ValueError(f"degree must be non-negative, got {p}")


def xor_span(masks: Sequence[int]) -> list[int]:
    """Every XOR of a subset of `masks`: the subset with bit k set sits at
    position k, so `parity(k)` is the size parity of its subset."""
    out = [0]
    for d in masks:
        out += [x ^ d for x in out]
    return out


# ---------------------------------------------------------------------------
# GF(2)


def gf2_rref(rows: Iterable[int]) -> tuple[list[int], list[int]]:
    """Reduced row echelon form.

    Returns (rows, pivot_cols) with rows sorted by pivot column; the pivot of a
    row is its lowest set bit and no row has a bit at another row's pivot.
    The echelon pass clears a new row at the lowest pivot it still meets,
    looked up in `row & pivot_mask`, until it meets none.  One sweep in
    decreasing pivot order then clears each row at the higher pivots it
    meets, whose rows are reduced by then, so each clearing adds no bit at
    another pivot.
    """
    by_pivot: dict[int, int] = {}  # pivot bit -> row
    pivot_mask = 0
    for row in rows:
        while hit := row & pivot_mask:
            row ^= by_pivot[hit & -hit]
        if row:
            low = row & -row
            by_pivot[low] = row
            pivot_mask |= low
    for low in sorted(by_pivot, reverse=True):
        row = by_pivot[low]
        while hit := row & pivot_mask ^ low:
            row ^= by_pivot[hit & -hit]
        by_pivot[low] = row
    out = sorted(by_pivot.items())
    return [r for _, r in out], [b.bit_length() - 1 for b, _ in out]


class SubspaceGF2(NamedTuple):
    """A subspace of GF(2)^ambient_dim in canonical RREF form.

    Equal subspaces compare equal because the RREF basis is unique.
    """

    ambient_dim: int
    rows: tuple[int, ...]

    @classmethod
    def from_generators(cls, ambient_dim: int, gens: Iterable[int]) -> "SubspaceGF2":
        rr, _ = gf2_rref(gens)
        return cls(ambient_dim, tuple(rr))

    @classmethod
    def zero(cls, ambient_dim: int) -> "SubspaceGF2":
        return cls(ambient_dim, ())

    @classmethod
    def full(cls, ambient_dim: int) -> "SubspaceGF2":
        return cls(ambient_dim, tuple(1 << i for i in range(ambient_dim)))

    @property
    def dim(self) -> int:
        return len(self.rows)

    def reduce(self, v: int) -> int:
        """Canonical representative of v modulo this subspace."""
        for row in self.rows:
            piv = row & -row
            if v & piv:
                v ^= row
        return v

    def contains(self, v: int) -> bool:
        return self.reduce(v) == 0

    def contains_subspace(self, other: "SubspaceGF2") -> bool:
        return all(self.contains(r) for r in other.rows)


class GF2Solver:
    """Factor a GF(2) system once, then solve A·x = b for many right sides.

    `rows` are equations over `ncols` unknowns.  The factorization is an
    append-only echelon form: each row is cleared at the pivots found before
    it, takes its highest remaining bit as its pivot and is never touched
    again, so no row has a bit at an earlier row's pivot.  Each pivot row
    keeps the combination of original equations that produced it, so a
    right-hand side is processed with a couple of popcounts per pivot.  The
    combinations of the equations that reduced to zero, `zero_combos`, are a
    basis of the relations among the rows: b is consistent exactly when it is
    orthogonal to each of them.

    A combination never involves a later equation, so the factorization of
    the leading equations is a prefix of this one (`prefix`).

    A pivot row's highest bit is its pivot, so a new row is cleared by
    looking up the highest pivot it still meets in `row & pivot_mask`: each
    step removes that bit and touches only lower ones.  The pivot rows are
    independent with distinct pivots, so the cleared row and its combination
    are the ones that testing every earlier pivot in turn would give.
    """

    def __init__(self, rows: Iterable[int], ncols: int):
        self.ncols = ncols
        # (pivot_col, row, combo) in the order the pivots were found
        self.pivot_rows: list[tuple[int, int, int]] = []
        self.zero_combos: list[int] = []
        by_pivot: dict[int, tuple[int, int]] = {}  # pivot col -> (row, combo)
        pivot_mask = 0
        for i, row in enumerate(rows):
            combo = 1 << i
            while hit := row & pivot_mask:
                prow, pcombo = by_pivot[hit.bit_length() - 1]
                row ^= prow
                combo ^= pcombo
            if row:
                piv = row.bit_length() - 1
                by_pivot[piv] = (row, combo)
                pivot_mask |= 1 << piv
                self.pivot_rows.append((piv, row, combo))
            else:
                self.zero_combos.append(combo)

    @cached_property
    def free_cols(self) -> list[int]:
        pivots = {p for p, _, _ in self.pivot_rows}
        return [c for c in range(self.ncols) if c not in pivots]

    def prefix(self, nrows: int, ncols: int) -> "GF2Solver":
        """The factorization of the first `nrows` equations over the first
        `ncols` unknowns, sharing this one's pivot rows; ValueError if one of
        those equations meets a later unknown, which puts a pivot there."""
        out = GF2Solver([], ncols)
        out.pivot_rows = [t for t in self.pivot_rows if t[2].bit_length() <= nrows]
        out.zero_combos = [c for c in self.zero_combos if c.bit_length() <= nrows]
        if any(piv >= ncols for piv, _, _ in out.pivot_rows):
            raise ValueError(f"the first {nrows} equations reach beyond the first {ncols} columns")
        return out

    def _back_substitute(self, x: int, b: int) -> int:
        """Fill the pivot coordinates of x, whose free coordinates are set,
        so that every pivot row meets its share of b.  Rows are visited last
        first: a row has bits only at its pivot, at free columns and at
        later pivots, which are filled by then."""
        for piv, row, combo in reversed(self.pivot_rows):
            if parity(combo & b) ^ parity(row & x):
                x |= 1 << piv
        return x

    def solve(self, b: int, rng: Optional[random.Random] = None) -> Optional[int]:
        """A particular solution, or None if inconsistent.

        Free coordinates are zero by default; with `rng` they are randomized,
        which walks the solution choice over the whole affine solution set.
        """
        for combo in self.zero_combos:
            if parity(combo & b):
                return None
        x = 0
        if rng is not None:
            for f in self.free_cols:
                if rng.getrandbits(1):
                    x |= 1 << f
        return self._back_substitute(x, b)

    def kernel_basis(self) -> list[int]:
        return [self._back_substitute(1 << f, 0) for f in self.free_cols]


def gf2_kernel(rows: Iterable[int], ncols: int) -> SubspaceGF2:
    """Kernel of the system whose rows are equations over `ncols` unknowns."""
    return SubspaceGF2.from_generators(ncols, GF2Solver(rows, ncols).kernel_basis())


# ---------------------------------------------------------------------------
# Integers

IntMatrix = list[list[int]]


def smith_normal_form(a: IntMatrix) -> tuple[int, ...]:
    """Invariant factors of an integer matrix.

    Returns the nonzero diagonal entries d1 | d2 | ... (all positive) of the
    Smith normal form, from Hermite forms alone: the rows are put in Hermite
    form, the result is transposed, and this repeats until every row has a
    single nonzero entry (Kannan & Bachem, SIAM J. Comput. 1979).  From the
    second pass on the matrix is square and every entry above a pivot lies in
    [0, pivot), so between passes no entry exceeds the product of the
    invariant factors.  The diagonal is then sorted into the divisibility
    chain by pairwise gcd and lcm, which keeps, for each prime, the multiset
    of its exponents.  No transforms are kept, since kernels and solutions
    come from labelled Hermite forms (`int_kernel`).
    """
    n = len(a[0]) if a else 0
    if any(len(r) != n for r in a):
        raise ValueError("ragged matrix")
    h = hermite_normal_form(a, n)
    while any(sum(1 for x in row if x) != 1 for row in h):
        h = hermite_normal_form(list(zip(*h)), len(h))
    diag = sorted(x for row in h for x in row if x)
    for i in range(len(diag)):
        for j in range(i + 1, len(diag)):
            g = gcd(diag[i], diag[j])
            diag[i], diag[j] = g, diag[i] * diag[j] // g
    return tuple(diag)


def hermite_normal_form(rows: Iterable[list[int] | tuple[int, ...]], ncols: int) -> list[list[int]]:
    """Canonical row-style HNF basis of the lattice spanned by `rows`: the
    dense front of `_hermite_rows`."""
    sparse = []
    for r in rows:
        if len(r) != ncols:
            raise ValueError(f"row of length {len(r)} in a matrix with {ncols} columns")
        sparse.append(_sparse(r))
    return [_dense(row, 0, ncols) for _, row in _hermite_rows(sparse, ncols)]


def _hermite_rows(rows: Iterable[dict[int, int]], ncols: int) -> list[tuple[int, dict[int, int]]]:
    """The canonical HNF basis of the lattice spanned by sparse rows
    {col: value} (nonzero values, columns 0..ncols-1), as (pivot col, row)
    pairs in increasing pivot order: the echelon pass, then back-reduction.
    The rows are reduced in place.

    Pivots are positive, entries above a pivot are reduced into [0, pivot),
    and pivot columns strictly increase, so the output is unique per lattice.
    """
    return _back_reduce(_echelon_rows(rows, ncols))


def _echelon_rows(rows: Iterable[dict[int, int]], ncols: int) -> list[tuple[int, dict[int, int]]]:
    """A row echelon basis of the lattice spanned by sparse rows, as
    (pivot col, row) pairs with positive pivots in increasing pivot order;
    entries above a pivot are left as they fall.

    The working rows are bucketed by leading column.  Column by column, the
    rows led there are reduced by the one with the smallest leading entry
    until a single row is left; an update walks only the pivot row's entries,
    and a row whose lead cancels moves to the bucket of its new lead.  Ties
    go to the sparsest, then the furthest-reaching row (no staircase).
    """
    led_by: dict[int, list[dict[int, int]]] = {}
    for row in rows:
        if row:
            led_by.setdefault(min(row), []).append(row)
    basis: list[tuple[int, dict[int, int]]] = []  # (pivot col, row)
    for c in range(ncols):
        led = led_by.pop(c, None)
        if led is None:
            continue
        while len(led) > 1:
            led.sort(key=lambda r: (abs(r[c]), len(r), -max(r)))
            prow = led[0]
            keep = [prow]
            for r in led[1:]:
                q = r[c] // prow[c]
                if q:
                    _sub_multiple(r, q, prow)
                if c in r:
                    keep.append(r)
                elif r:
                    led_by.setdefault(min(r), []).append(r)
            led = keep
        row = led[0]
        if row[c] < 0:
            row = {j: -x for j, x in row.items()}
        basis.append((c, row))
    return basis


def _back_reduce(basis: list[tuple[int, dict[int, int]]]) -> list[tuple[int, dict[int, int]]]:
    """Reduce the entries above each pivot of an echelon basis into
    [0, pivot), in place, updating only the rows with an entry in the pivot
    column; returns the basis."""
    for k, (c, row) in enumerate(basis):
        pivot = row[c]
        for _, rj in basis[:k]:
            x = rj.get(c)
            if x is not None and (q := x // pivot):
                _sub_multiple(rj, q, row)
    return basis


def _sub_multiple(r: dict[int, int], q: int, prow: dict[int, int]) -> None:
    """r -= q·prow on sparse rows, in place, dropping the entries that cancel."""
    get = r.get
    for j, y in prow.items():
        v = get(j, 0) - q * y
        if v:
            r[j] = v
        else:
            del r[j]


def _sparse(v: Sequence[int], start: int = 0) -> dict[int, int]:
    """The nonzero entries of a dense vector, at columns start, start + 1, ..."""
    return {start + j: x for j, x in enumerate(v) if x}


def _dense(row: dict[int, int], start: int, width: int) -> list[int]:
    """Columns start..start + width - 1 of a sparse row, as a dense list."""
    out = [0] * width
    for j, x in row.items():
        if start <= j < start + width:
            out[j - start] = x
    return out


def int_image_and_relations(rows: Iterable[dict[int, int]], w: int, width: int
                            ) -> tuple[IntMatrix, IntMatrix]:
    """HNF bases of the image lattice and of the relations of labelled
    sparse rows {col: value}: a row's image is its part in columns 0..w-1,
    its label its part in columns w..w + width - 1, and the relations are
    {sum c_k·label_k : c integral, sum c_k·image_k = 0}.  The rows are
    reduced in place.

    Puts the rows in Hermite form.  The rows whose pivot lies in the image
    columns come first and their image parts are the HNF basis of the image
    lattice; the rows whose pivot lies in the label columns have no image
    part, and their label parts are the HNF basis of the relations (H. Cohen,
    A Course in Computational Algebraic Number Theory, 1993, section 2.4).
    """
    image, relations = [], []
    for c, row in _hermite_rows(rows, w + width):
        if c < w:
            image.append(_dense(row, 0, w))
        else:
            relations.append(_dense(row, w, width))
    return image, relations


def int_kernel(rows: Sequence[dict[int, int]], ncols: int) -> "LatticeZ":
    """The saturated lattice {x in Z^ncols : a·x = 0} in its canonical HNF
    basis, for w equations a as sparse rows {col: value}: the relations of
    the columns {i: a_ij} labelled by the unit vectors e_j
    (`int_image_and_relations`).  A column outside 0..ncols-1 raises
    ValueError."""
    w = len(rows)
    cols: list[dict[int, int]] = [{w + j: 1} for j in range(ncols)]
    for i, row in enumerate(rows):
        for j, a in row.items():
            if not 0 <= j < ncols:
                raise ValueError(f"equation {i} has column {j}, outside 0..{ncols - 1}")
            if a:
                cols[j][i] = a
    _, kern = int_image_and_relations(cols, w, ncols)
    if any(sum(a * x[j] for j, a in row.items()) for x in kern for row in rows):
        raise RuntimeError("int_kernel check failed: a·x != 0 for a returned row")
    return LatticeZ(ncols, tuple(map(tuple, kern)))


def _packed(rows: Sequence[Sequence[int]], ncols: int, scale: int = 1) -> tuple[list[int], int]:
    """Dense rows packed by column, and the lane width in bytes: column j is
    the sum of row_i[j]·2^(8·nbytes·i), a lane holding `scale` times a row's
    l1 norm below half its range, so a 0/1 equation's pairing with every row,
    a sum of columns, has signed digit i its pairing with row i, exactly."""
    norm = scale * max((sum(map(abs, r)) for r in rows), default=0)
    nbytes = 1 << (norm.bit_length() // 8).bit_length()
    cols = [0] * ncols
    for i, row in enumerate(rows):
        for j in compress(range(ncols), row):
            cols[j] += row[j] << 8 * nbytes * i
    return cols, nbytes


def kernel_within(basis: Sequence[Sequence[int]], supports: Sequence[Sequence[int]],
                  ncols: int) -> tuple["LatticeZ", IntMatrix, tuple[int, ...]]:
    """The canonical HNF basis of {x in span B : x sums to 0 on each support},
    B = `basis` the HNF basis of a saturated lattice in Z^ncols: B^T·ker(E·B^T),
    E the 0/1 support rows, as the relations among the rows b labelled by
    themselves with image E·b (`int_image_and_relations`), whose image half
    comes back too.  E·B^T is one sum of `_packed` columns per support, one
    image column per distinct nonzero sum in order of first appearance, at
    `where` per support (-1 for zero), lane k of each sum written into row k's
    sparse labelled row.  The rows are checked on these equations only (B
    meets any earlier ones), failing with RuntimeError."""
    cols, nbytes = _packed(basis, ncols)
    images: dict[int, int] = {}
    where = tuple(images.setdefault(v, len(images)) if v else -1
                  for v in (sum(map(cols.__getitem__, s)) for s in supports))
    w, half, size = len(images), 1 << 8 * nbytes - 1, nbytes * len(basis)
    # a lane's digit plus half is unsigned
    offset = half * ((1 << 8 * size) - 1) // ((1 << 8 * nbytes) - 1)
    rows = [_sparse(b, w) for b in basis]
    for c, v in enumerate(images):
        raw = (v + offset).to_bytes(size, "little")
        for row, k in zip(rows, range(0, size, nbytes)):
            if x := int.from_bytes(raw[k:k + nbytes], "little") - half:
                row[c] = x
    image, kern = int_image_and_relations(rows, w, ncols)
    cols, _ = _packed(kern, ncols)
    if any(sum(map(cols.__getitem__, s)) for s in supports):
        raise RuntimeError("kernel_within check failed: a·x != 0 for a returned row")
    return LatticeZ(ncols, tuple(map(tuple, kern))), image, where


class _LatticeZFields(NamedTuple):
    ambient_dim: int
    basis: tuple[tuple[int, ...], ...]


class LatticeZ(_LatticeZFields):
    """A sublattice of Z^ambient_dim with a canonical HNF basis; unlike its
    fields base it has an instance dict, which holds `_reducers`."""

    @classmethod
    def from_generators(cls, ambient_dim: int, gens: Iterable) -> "LatticeZ":
        rows = hermite_normal_form(list(gens), ambient_dim)
        return cls(ambient_dim, tuple(tuple(r) for r in rows))

    @classmethod
    def zero(cls, ambient_dim: int) -> "LatticeZ":
        return cls(ambient_dim, ())

    @property
    def rank(self) -> int:
        return len(self.basis)

    @cached_property
    def _reducers(self) -> tuple[tuple[int, int, tuple[tuple[int, int], ...]], ...]:
        """Per basis row: its pivot column, its pivot and its nonzero entries."""
        out = []
        for row in self.basis:
            support = tuple((j, x) for j, x in enumerate(row) if x)
            out.append((support[0][0], support[0][1], support))
        return tuple(out)

    def coords_of(self, v) -> Optional[list[int]]:
        """Integer coordinates of v in the HNF basis, or None if not a member."""
        if len(v) != self.ambient_dim:
            raise ValueError("ambient dimension mismatch")
        v = list(v)
        coords = []
        for c, pivot, support in self._reducers:
            q, r = divmod(v[c], pivot) if v[c] else (0, 0)
            if r:
                return None
            if q:
                for j, y in support:
                    v[j] -= q * y
            coords.append(q)
        if any(v):
            return None
        return coords

    def contains(self, v) -> bool:
        return self.coords_of(v) is not None

    @cached_property
    def _lane_scale(self) -> int:
        """1 plus the largest column l1 norm of the basis, 0 if a pivot is not 1."""
        if any(pivot != 1 for _, pivot, _ in self._reducers):
            return 0
        return 1 + max((sum(map(abs, col)) for col in zip(*self.basis)), default=0)

    def contains_all(self, rows: Sequence[Sequence[int]], idx: Optional[Sequence[int]] = None) -> bool:
        """Whether every row is a member, its entry j moved to coordinate
        idx[j] if `idx` is given.  With every pivot 1 the basis is the
        identity on its pivot columns c, so `coords_of` takes x_c times the
        row of c off x, and x is a member when nothing is left: that runs
        once on `_packed` lanes of all rows, wide enough for what is left,
        at most `_lane_scale` times a row's largest entry; else row by row."""
        if rows and self._lane_scale:
            rows = [_packed(rows, len(rows[0]), self._lane_scale)[0]]
        for row in rows:
            if idx is not None:
                row, given = [0] * self.ambient_dim, row
                for j, x in zip(idx, given):
                    row[j] = x
            if not self.contains(row):
                return False
        return True

    def contains_lattice(self, other: "LatticeZ") -> bool:
        return self.contains_all(other.basis)

    def mod2(self) -> SubspaceGF2:
        gens = [mask_from_bits(i for i, x in enumerate(row) if x & 1) for row in self.basis]
        return SubspaceGF2.from_generators(self.ambient_dim, gens)


def lattice_equal(a: LatticeZ, b: LatticeZ) -> bool:
    if a.ambient_dim != b.ambient_dim:
        raise ValueError("ambient dimension mismatch")
    return a.basis == b.basis


def solve_diophantine(a: IntMatrix, b: list[int]) -> Optional[list[int]]:
    """One integer solution of a·x = b, or None if the system is infeasible.

    x solves it exactly when (1, x) lies in the kernel of [-b | a], and the
    first HNF basis row of that kernel starts with 1 exactly when one does.
    """
    n = len(a[0]) if a else 0
    if len(b) != len(a):
        raise ValueError("right-hand side length mismatch")
    if any(len(r) != n for r in a):
        raise ValueError("ragged matrix")
    kern = int_kernel([{0: -v, **_sparse(r, 1)} for r, v in zip(a, b)], n + 1).basis
    if not kern or kern[0][0] != 1:
        return None
    return list(kern[0][1:])


def snf_diagonal_sparse(entries: dict[tuple[int, int], int], nrows: int, ncols: int) -> list[int]:
    """Invariant factors of a sparse integer nrows x ncols matrix given as {(i, j): value}.

    The rows, one per row index i, are put in echelon form (`_echelon_rows`).
    When every pivot is 1 the minor on the pivot columns is 1, so every
    invariant factor is 1 and nothing more is done; so it is on every signed
    Salvetti boundary from the corpus up to A5, the matrices this is meant
    for.  Otherwise the rows are back-reduced to the Hermite form, where the
    column of a unit pivot holds nothing else, so each unit row splits off as
    a factor 1 and only the rows with a larger pivot go to
    `smith_normal_form`.
    """
    rows: dict[int, dict[int, int]] = defaultdict(dict)
    for (i, j), v in entries.items():
        if not (0 <= i < nrows and 0 <= j < ncols):
            raise ValueError(f"entry ({i}, {j}) outside a {nrows}x{ncols} matrix")
        if v:
            rows[i][j] = v
    echelon = _echelon_rows(rows.values(), ncols)
    if all(row[c] == 1 for c, row in echelon):
        return [1] * len(echelon)
    rest = [row for c, row in _back_reduce(echelon) if row[c] != 1]
    cols = sorted({j for row in rest for j in row})
    dense = [[row.get(j, 0) for j in cols] for row in rest]
    return [1] * (len(echelon) - len(rest)) + list(smith_normal_form(dense))
