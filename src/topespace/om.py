"""Oriented matroids presented by their covector sets.

A sign vector on ground set {0, ..., n-1} is stored as a pair of bitmasks
(plus, minus).  An oriented matroid is a finite covector set closed under the
usual axioms; covectors are kept in a canonical order (lexicographic on the
(plus, minus) mask pair) so that every derived object is deterministic.

Only loopless, central data is supported: every ground-set element carries a
nonzero sign on some covector, and the zero vector is always a covector.
"""

from __future__ import annotations

from itertools import combinations
from math import lcm
from typing import TYPE_CHECKING, Iterable, Iterator, NamedTuple, Optional, Sequence

from .linalg import bits_of, int_kernel, mask_from_bits

if TYPE_CHECKING:
    from fractions import Fraction


class ParseError(ValueError):
    def __init__(self, message: str, line: Optional[int] = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class NotCovectors(ValueError):
    """Raised when a purported covector set fails validation."""


class _SignVectorFields(NamedTuple):
    n: int
    plus: int
    minus: int


class SignVector(_SignVectorFields):
    """A vector in {+, -, 0}^n encoded by disjoint plus/minus bitmasks; it
    compares, orders and hashes as the tuple (n, plus, minus)."""

    __slots__ = ()

    def __new__(cls, n: int, plus: int, minus: int):
        if plus & minus:
            raise ValueError("overlapping plus and minus supports")
        if plus >> n or minus >> n:
            raise ValueError("support exceeds ground set")
        return tuple.__new__(cls, (n, plus, minus))

    @classmethod
    def zero(cls, n: int) -> "SignVector":
        return cls(n, 0, 0)

    @classmethod
    def from_str(cls, s: str) -> "SignVector":
        plus = minus = 0
        for i, ch in enumerate(s):
            if ch == "+":
                plus |= 1 << i
            elif ch == "-":
                minus |= 1 << i
            elif ch != "0":
                raise ValueError(f"bad sign character {ch!r}")
        return cls(len(s), plus, minus)

    def to_str(self) -> str:
        return "".join(
            "+" if (self.plus >> i) & 1 else "-" if (self.minus >> i) & 1 else "0"
            for i in range(self.n)
        )

    @property
    def support(self) -> int:
        return self.plus | self.minus

    @property
    def zero_set(self) -> int:
        return ((1 << self.n) - 1) ^ self.support

    def sign(self, e: int) -> int:
        return ((self.plus >> e) & 1) - ((self.minus >> e) & 1)

    def negate(self) -> "SignVector":
        return SignVector(self.n, self.minus, self.plus)

    def le(self, other: "SignVector") -> bool:
        """Conformal order: self <= other iff every nonzero sign agrees."""
        return (
            self.plus & ~other.plus == 0
            and self.minus & ~other.minus == 0
        )

    def separator(self, other: "SignVector") -> int:
        """Mask of coordinates where the two vectors carry opposite signs."""
        return (self.plus & other.minus) | (self.minus & other.plus)


def compose(l: SignVector, k: SignVector) -> SignVector:
    """l then k: keep the sign of l where nonzero, fall back to k."""
    if l.n != k.n:
        raise ValueError("ground set mismatch")
    s = l.support
    return SignVector(l.n, l.plus | (k.plus & ~s), l.minus | (k.minus & ~s))


def zero_out(t: SignVector, coords: int) -> SignVector:
    """Set the coordinates in the mask `coords` to zero."""
    return SignVector(t.n, t.plus & ~coords, t.minus & ~coords)


class AxiomReport(NamedTuple):
    ok: bool
    axiom: Optional[str] = None
    witness: Optional[tuple] = None

    def __bool__(self) -> bool:
        return self.ok

    def message(self) -> str:
        """The failure as one line, naming the axiom and the witness."""
        msg = f"covector axioms fail ({self.axiom})"
        if self.witness:
            msg += " witness: " + " ".join(
                w.to_str() if isinstance(w, SignVector) else f"element {w}"
                for w in self.witness
            )
        return msg


def compositions(generators: Sequence[int], n: int) -> Iterator[tuple[int, int, int]]:
    """The compositions of sign vector codes `plus | minus << n`, breadth first.

    Yields (v, c, v∘c) for each code v∘c other than zero and the generators,
    the first time it is reached, with c a generator and v a generator or an
    earlier yield.  The order is fixed by the order of `generators`.
    """
    full = (1 << n) - 1
    found = {0, *generators}
    frontier = list(generators)
    while frontier:
        new = []
        for v in frontier:
            z = ~(v | v >> n) & full
            keep = z | z << n
            for c in generators:
                w = v | (c & keep)
                if w not in found:
                    found.add(w)
                    new.append(w)
                    yield v, c, w
        frontier = new


def check_covector_axioms(vectors: Iterable[SignVector]) -> AxiomReport:
    """Validate the covector axioms through the cocircuits, with a witness
    for a failure.

    A set L of sign vectors is the covector set of an oriented matroid
    exactly when it contains 0, its nonzero elements of minimal support
    (the cocircuits) satisfy the cocircuit axioms, and L is the set of
    compositions of cocircuits (Björner, Las Vergnas, Sturmfels, White &
    Ziegler, Oriented Matroids, 1999, section 3.7).  Checks, in this order:
    - zero: 0 is in L;
    - negation: -v is in L, witness (v,);
    - elimination: for cocircuits X != -Y and each e where their signs are
      opposite, some cocircuit Z is zero at e with Z+ inside X+ ∪ Y+ and Z-
      inside X- ∪ Y-, witness (X, Y, e).  The test is symmetric in X and Y,
      so each pair is taken once.  Two cocircuits on one support that are
      not opposite fail it, since Z would have a smaller support;
    - composition: each of the `compositions` v∘c of the cocircuits is in
      L, witness (v, c);
    - cocircuit closure: each v in L is a composition of cocircuits,
      witness (v,).
    Sign vectors, cocircuits and compositions are taken in the order of
    `vectors`, so the witness is deterministic.  Each sign vector is one int
    `code = plus | minus << n`, so every test is a probe into a set of codes.
    """
    vecs = list(vectors)
    if not vecs:
        return AxiomReport(False, "zero", ())
    n = vecs[0].n
    if any(v.n != n for v in vecs):
        raise ValueError("ground set mismatch")
    full = (1 << n) - 1
    by_code = {v.plus | v.minus << n: v for v in vecs}
    if 0 not in by_code:
        return AxiomReport(False, "zero", ())
    for c, v in by_code.items():
        if c >> n | (c & full) << n not in by_code:
            return AxiomReport(False, "negation", (v,))
    support = {c: (c | c >> n) & full for c in by_code}
    minimal: set[int] = set()
    for s in sorted(set(support.values()) - {0}, key=int.bit_count):
        if all(t & ~s for t in minimal):
            minimal.add(s)
    cocircuits = [c for c in by_code if support[c] in minimal]
    for i, x in enumerate(cocircuits):
        for y in cocircuits[i + 1:]:
            sep = (x & y >> n) | (x >> n & y)
            if not sep or y == x >> n | (x & full) << n:
                continue
            missing = sep
            for z in cocircuits:
                if not z & ~(x | y):
                    missing &= support[z]
            if missing:
                e = (missing & -missing).bit_length() - 1
                return AxiomReport(False, "elimination", (by_code[x], by_code[y], e))
    reached = {0, *cocircuits}
    for v, c, w in compositions(cocircuits, n):
        if w not in by_code:
            return AxiomReport(False, "composition", (by_code[v], by_code[c]))
        reached.add(w)
    for c, v in by_code.items():
        if c not in reached:
            return AxiomReport(False, "cocircuit closure", (v,))
    return AxiomReport(True)


def _canonical(vectors: Iterable[SignVector]) -> list[SignVector]:
    """The distinct sign vectors in canonical (plus, minus) order; raises
    `NotCovectors` when there are none or their ground sets differ."""
    covs = sorted(set(vectors), key=lambda v: (v.plus, v.minus))
    if not covs:
        raise NotCovectors("empty covector set")
    if any(v.n != covs[0].n for v in covs):
        raise NotCovectors("mixed ground set sizes")
    return covs


class OrientedMatroid:
    """A loopless oriented matroid given by its full covector set."""

    def __init__(self, covectors: Iterable[SignVector]):
        covs = _canonical(covectors)
        self.n = covs[0].n
        self.full_mask = (1 << self.n) - 1
        self.covectors: tuple[SignVector, ...] = tuple(covs)
        self.covector_set = frozenset(covs)
        if SignVector.zero(self.n) not in self.covector_set:
            raise NotCovectors("zero vector missing")
        support_union = 0
        for v in covs:
            support_union |= v.support
        if support_union != self.full_mask:
            raise NotCovectors("ground set has a loop")
        self.topes: tuple[SignVector, ...] = tuple(
            v for v in covs if v.support == self.full_mask
        )
        if not self.topes:
            raise NotCovectors("no topes")
        # Every maximal covector is a tope iff every covector lies below one,
        # i.e. equals the restriction of some tope to its own support.
        below_topes: dict[int, set[tuple[int, int]]] = {}
        for v in covs:
            s = v.support
            if s not in below_topes:
                below_topes[s] = {(t.plus & s, t.minus & s) for t in self.topes}
            if (v.plus, v.minus) not in below_topes[s]:
                raise NotCovectors("a maximal covector is not a tope")
        self.tope_index = {t: i for i, t in enumerate(self.topes)}
        # tope <-> GF(2) point: the minus mask is the coordinate vector
        self.tope_by_minus = {t.minus: i for i, t in enumerate(self.topes)}
        self._init_flats()
        self.dim_of = {v: self.flats[v.zero_set] for v in covs}
        self._cache: dict = {}

    def memo(self, key, build):
        """The value cached on this matroid under `key`, from `build()` the
        first time.  Every derived object is cached here, so callers share it."""
        if key not in self._cache:
            self._cache[key] = build()
        return self._cache[key]

    def _init_flats(self):
        zero_sets = {v.zero_set for v in self.covectors}
        ordered = sorted(zero_sets, key=lambda m: (m.bit_count(), m))
        ranks: dict[int, int] = {}
        for f in ordered:
            below = [ranks[g] for g in ranks if g != f and g & ~f == 0]
            ranks[f] = (max(below) + 1) if below else 0
        self.flats = ranks  # mask -> rank
        self.rank = ranks[self.full_mask]
        by_rank: list[list[int]] = [[] for _ in range(self.rank + 1)]
        for f, r in ranks.items():
            by_rank[r].append(f)
        self.flats_by_rank = [sorted(fs) for fs in by_rank]

    # -- queries ----------------------------------------------------------

    def closure(self, subset: int) -> int:
        """Smallest flat containing the subset mask."""
        out = self.full_mask
        for f in self.flats:
            if subset & ~f == 0:
                out &= f
        if out not in self.flats:
            raise RuntimeError("flats are not closed under intersection: "
                               "the closure of a subset is not a flat")
        return out

    def subset_rank(self, subset: int) -> int:
        return self.flats[self.closure(subset)]

    def tope_from_minus(self, minus: int) -> SignVector:
        return self.topes[self.tope_by_minus[minus]]

    def __repr__(self):
        return f"OrientedMatroid(n={self.n}, rank={self.rank}, covectors={len(self.covectors)})"


# ---------------------------------------------------------------------------
# flags of flats


class Flag(NamedTuple):
    """A chain of flats, normalized to run from the empty set to the full set."""

    flats: tuple[int, ...]

    @property
    def interior(self) -> tuple[int, ...]:
        return self.flats[1:-1]

    @property
    def length(self) -> int:
        return len(self.flats) - 1

    def blocks(self) -> list[int]:
        return [self.flats[i] & ~self.flats[i - 1] for i in range(1, len(self.flats))]

    def is_subflag_of(self, other: "Flag") -> bool:
        return set(self.flats) <= set(other.flats)


def make_flag(m: OrientedMatroid, chain: Sequence[int]) -> Flag:
    """Normalize a chain of flat masks into a Flag, validating strictness."""
    flats = list(dict.fromkeys(chain))
    if not flats or flats[0] != 0:
        flats = [0] + flats
    if flats[-1] != m.full_mask:
        flats = flats + [m.full_mask]
    for f in flats:
        if f not in m.flats:
            raise ValueError(f"not a flat: {f:b}")
    for a, b in zip(flats, flats[1:]):
        if a & ~b or a == b:
            raise ValueError("chain is not strictly increasing")
    return Flag(tuple(flats))


def is_complete_flag(m: OrientedMatroid, flag: Flag) -> bool:
    return len(flag.flats) == m.rank + 1 and all(
        m.flats[f] == i for i, f in enumerate(flag.flats)
    )


def enumerate_flags(m: OrientedMatroid, complete: bool = True) -> list[Flag]:
    """All complete flags, or all proper flags (fan cones) when complete=False.

    A complete flag has one flat of every rank 0..r.  A proper flag is any
    strictly increasing chain of proper nonempty flats, including the empty
    chain.  Cached per matroid; each call returns a fresh list.
    """
    return list(m.memo(("flags", complete), lambda: tuple(_flags(m, complete))))


def _flags(m: OrientedMatroid, complete: bool) -> list[Flag]:
    if complete:
        out: list[Flag] = []

        def grow(chain: list[int]):
            r = len(chain) - 1
            if r == m.rank:
                out.append(Flag(tuple(chain)))
                return
            for f in m.flats_by_rank[r + 1]:
                if chain[-1] & ~f == 0:
                    grow(chain + [f])

        grow([0])
        return out
    proper = sorted(
        (f for f, r in m.flats.items() if 0 < r < m.rank and f != 0),
    )
    cones: list[Flag] = []

    def extend(chain: list[int], start: int):
        cones.append(Flag(tuple([0] + chain + [m.full_mask])))
        for i in range(start, len(proper)):
            f = proper[i]
            if not chain or (chain[-1] & ~f == 0 and chain[-1] != f):
                extend(chain + [f], i + 1)

    extend([], 0)
    return cones


def tope_flag_mask(m: OrientedMatroid, flag: Flag) -> int:
    """Tope-index mask of the topes whose restriction away from every flag
    flat stays a covector: the AND of one cached mask per flat, whose build
    probes each (flat, tope) restriction once, as the integer code
    `plus | minus << n`, against the cached set of covector codes.
    """
    def build():
        n = m.n
        codes = m.memo("covector_codes", lambda: frozenset(
            v.plus | v.minus << n for v in m.covectors))
        tope_codes = [t.plus | t.minus << n for t in m.topes]
        return {f: mask_from_bits(i for i, c in enumerate(tope_codes)
                                  if c & ~(f | f << n) in codes)
                for f in m.flats}

    masks = m.memo("flat_tope_masks", build)
    out = masks[flag.flats[0]]
    for f in flag.flats[1:]:
        out &= masks[f]
    return out


def tope_flag_set(m: OrientedMatroid, flag: Flag) -> list[SignVector]:
    """The topes of `tope_flag_mask`, in tope order, as a fresh list."""
    return [m.topes[i] for i in bits_of(tope_flag_mask(m, flag))]


# ---------------------------------------------------------------------------
# arrangements over Q


class Arrangement(NamedTuple):
    """A central hyperplane arrangement given by rational normal vectors."""

    normals: tuple[tuple[int | Fraction, ...], ...]

    @property
    def n(self) -> int:
        return len(self.normals)

    @property
    def dim(self) -> int:
        return len(self.normals[0])


def data_lines(text: str) -> Iterator[tuple[int, str]]:
    """The stripped lines of an input file that are neither blank nor `#`
    comments, each with its 1-based line number."""
    for idx, raw in enumerate(text.splitlines(), start=1):
        s = raw.strip()
        if s and not s.startswith("#"):
            yield idx, s


def parse_arrangement(text: str) -> Arrangement:
    """Parse the plain text format: first line "n d", then n rows of d
    rationals, each an int if `int` reads it and else a Fraction."""

    def entry(s: str) -> int | Fraction:
        try:
            return int(s)
        except ValueError:
            from fractions import Fraction
            return Fraction(s)

    rows: list[tuple[int | Fraction, ...]] = []
    header: Optional[tuple[int, int]] = None
    for idx, s in data_lines(text):
        parts = s.split()
        if header is None:
            if len(parts) != 2:
                raise ParseError("expected header 'n d'", idx)
            try:
                header = (int(parts[0]), int(parts[1]))
            except ValueError:
                raise ParseError("expected integer header 'n d'", idx) from None
            if header[0] < 1 or header[1] < 1:
                raise ParseError("n and d must be positive", idx)
            continue
        if len(parts) != header[1]:
            raise ParseError(f"expected {header[1]} entries", idx)
        try:
            rows.append(tuple(map(entry, parts)))
        except (ValueError, ZeroDivisionError):
            raise ParseError("bad rational entry", idx) from None
    if header is None:
        raise ParseError("empty arrangement file")
    if len(rows) != header[0]:
        raise ParseError(f"expected {header[0]} normal vectors, found {len(rows)}")
    for i, row in enumerate(rows):
        if not any(row):
            raise ParseError(f"normal vector {i} is zero")
    return Arrangement(tuple(rows))


def parse_covector_lines(text: str) -> list[SignVector]:
    """One sign vector per data line, all of one width."""
    out: list[SignVector] = []
    for idx, s in data_lines(text):
        try:
            v = SignVector.from_str(s)
        except ValueError:
            raise ParseError("covector lines must use only '+', '-', '0'", idx) from None
        if out and v.n != out[0].n:
            raise ParseError(f"expected width {out[0].n}", idx)
        out.append(v)
    if not out:
        raise ParseError("no covectors given")
    return out


def _validated(vectors: Iterable[SignVector]) -> OrientedMatroid:
    """The oriented matroid of `vectors` after one check of the covector
    axioms; `NotCovectors` names a failing axiom."""
    covs = _canonical(vectors)
    report = check_covector_axioms(covs)
    if not report:
        raise NotCovectors(report.message())
    return OrientedMatroid(covs)


def om_from_covectors(vectors: Iterable[SignVector]) -> OrientedMatroid:
    """Build an oriented matroid from an explicit covector list (`_validated`)."""
    return _validated(vectors)


def om_from_arrangement(arr: Arrangement) -> OrientedMatroid:
    """Covector set of a central arrangement: zero, the cocircuits and their
    `compositions`, checked once (`_validated`).

    Each normal is scaled by the lcm of its denominators (an int's is 1),
    which keeps every sign.  The rank r is d minus the rank of the kernel of
    all normals.  An (r-1)-subset of normals is independent when its kernel has d - r + 1
    basis rows, and the first of them that is not orthogonal to every normal
    yields the cocircuit pair of the corank-one flat the subset spans.
    """
    d, n = arr.dim, arr.n
    normals = []
    for v in arr.normals:
        scale = lcm(*(x.denominator for x in v))
        normals.append([int(x * scale) for x in v])

    def dot(a, b):
        return sum(x * y for x, y in zip(a, b))

    full = (1 << n) - 1
    sparse = [{j: x for j, x in enumerate(v) if x} for v in normals]
    r = d - int_kernel(sparse, d).rank
    cocircuits: set[int] = set()
    for subset in combinations(range(n), max(r - 1, 0)):
        basis = int_kernel([sparse[i] for i in subset], d).basis
        if len(basis) != d - r + 1:
            continue
        found = next(x for x in basis if any(dot(x, v) for v in normals))
        plus = minus = 0
        for i, v in enumerate(normals):
            s = dot(found, v)
            if s > 0:
                plus |= 1 << i
            elif s < 0:
                minus |= 1 << i
        cocircuits.update((plus | minus << n, minus | plus << n))

    generators = sorted(cocircuits)
    codes = {0, *generators, *(w for _, _, w in compositions(generators, n))}
    return _validated(SignVector(n, c & full, c >> n) for c in codes)
