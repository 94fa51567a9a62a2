"""Slow reference implementations that fast paths in the package are tested against."""

from __future__ import annotations

from typing import Iterable

from topespace.salvetti import FineComplex


def bz_cochain_eval_by_simplex(fine: FineComplex, s: Iterable[int], p: int, chain: int) -> int:
    """Evaluate the cochain indexed by a p-subset of the ground set.

    On a p-simplex with ascending cells (L_0,T_0) < ... < (L_p,T_p) and the
    subset ordered decreasingly as i_1 > ... > i_p, the value is 1 when every
    L_s is positive at i_t for s < t, and zero at i_t with T_s positive there
    for s >= t; the result is the mod-2 sum over the chain.
    """
    ss = sorted(set(s), reverse=True)
    if len(ss) != p:
        raise ValueError("subset size must match the degree")
    total = 0
    i = 0
    work = chain
    while work:
        if work & 1:
            simplex = fine.simplices[p][i]
            good = True
            for t_pos, e in enumerate(ss, start=1):
                for s_pos in range(p + 1):
                    l, t = fine.elements[simplex[s_pos]]
                    if s_pos < t_pos:
                        if l.sign(e) != 1:
                            good = False
                            break
                    else:
                        if l.sign(e) != 0 or t.sign(e) != 1:
                            good = False
                            break
                if not good:
                    break
            if good:
                total ^= 1
        work >>= 1
        i += 1
    return total
