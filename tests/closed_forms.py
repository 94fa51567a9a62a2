"""Arrangements whose answers are known in closed form, for the tests.

The reflection arrangements A_l, B_l and D_l and the generic arrangements on
the moment curve.  Each `ClosedForm` carries the nbc counts |nbc_p| its
Poincare polynomial predicts.  These are the Betti numbers of the complement
(Orlik & Solomon, Invent. Math. 56, 1980) and the steps of the lower
filtration's ranks.  Their sum, the polynomial at t = 1, is the tope count
(Zaslavsky, Mem. AMS 154, 1975).  A reflection arrangement's polynomial is
the product of (1 + e t) over its exponents e (Orlik & Terao, *Arrangements
of Hyperplanes*, 1992, section 6.4).  A generic central arrangement of n
hyperplanes of rank r is the uniform matroid: |nbc_p| = C(n, p) for p < r,
and C(n - 1, r - 1) at p = r.
"""

from fractions import Fraction
from math import comb
from typing import NamedTuple, Sequence

from topespace.om import Arrangement


class ClosedForm(NamedTuple):
    arrangement: Arrangement
    nbc: list[int]


def _arrangement(normals) -> Arrangement:
    return Arrangement(tuple(tuple(Fraction(x) for x in v) for v in normals))


def _e(k: int, i: int, j: int | None = None, sign: int = 1) -> list[int]:
    """e_i in R^k, or e_i + sign * e_j."""
    v = [0] * k
    v[i] = 1
    if j is not None:
        v[j] = sign
    return v


def braid(k: int) -> Arrangement:
    """The braid arrangement: normals e_i - e_j, 0 <= i < j < k, in R^k."""
    return _arrangement(_e(k, i, j, -1) for i in range(k) for j in range(i + 1, k))


def moment_curve(d: int, n: int) -> Arrangement:
    """n generic hyperplanes in R^d: the normals (1, i, ..., i^(d-1)), i = 1..n."""
    return _arrangement([i ** j for j in range(d)] for i in range(1, n + 1))


def _roots_pm(k: int) -> list[list[int]]:
    """The normals e_i + e_j and e_i - e_j, i < j, in that order for each pair."""
    return [_e(k, i, j, sign) for i in range(k) for j in range(i + 1, k) for sign in (1, -1)]


def poincare(exponents: Sequence[int]) -> list[int]:
    """Coefficients of the product of (1 + e t) over the exponents."""
    out = [1]
    for e in exponents:
        out = [a + e * b for a, b in zip(out + [0], [0] + out)]
    return out


def type_a(l: int) -> ClosedForm:
    """A_l: the braid arrangement in R^(l+1), exponents 1..l."""
    return ClosedForm(braid(l + 1), poincare(range(1, l + 1)))


def type_b(l: int) -> ClosedForm:
    """B_l: normals e_i, then e_i +- e_j, in R^l; exponents 1, 3, ..., 2l - 1."""
    normals = [_e(l, i) for i in range(l)] + _roots_pm(l)
    return ClosedForm(_arrangement(normals), poincare(range(1, 2 * l, 2)))


def type_d(l: int) -> ClosedForm:
    """D_l: normals e_i +- e_j in R^l; exponents 1, 3, ..., 2l - 3 and l - 1."""
    return ClosedForm(_arrangement(_roots_pm(l)), poincare([*range(1, 2 * l - 2, 2), l - 1]))


def generic(d: int, n: int) -> ClosedForm:
    """n hyperplanes on the moment curve in R^d, the uniform matroid of rank d."""
    return ClosedForm(moment_curve(d, n), [comb(n, p) for p in range(d)] + [comb(n - 1, d - 1)])
