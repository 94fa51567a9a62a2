"""Builtin example matroids shared by the test-suite and the CLI.

Every entry is a central arrangement, its normals plain int tuples, together
with frozen expected statistics; `load` builds (and caches) the oriented
matroid with full axiom validation.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

from .om import Arrangement, OrientedMatroid, om_from_arrangement


class CorpusEntry(NamedTuple):
    name: str
    normals: tuple[tuple[int, ...], ...]
    covectors: int
    topes: int
    betti: tuple[int, ...]


CORPUS: dict[str, CorpusEntry] = {
    e.name: e
    for e in (
        CorpusEntry("u11", ((1,),), 3, 2, (1, 1)),
        CorpusEntry("u22", ((1, 0), (0, 1)), 9, 4, (1, 2, 1)),
        CorpusEntry("u23", ((1, 0), (1, 1), (0, 1)), 13, 6, (1, 3, 2)),
        CorpusEntry("u34", ((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)), 51, 14, (1, 4, 6, 3)),
        CorpusEntry("a3", ((1, -1, 0, 0), (1, 0, -1, 0), (1, 0, 0, -1),
                           (0, 1, -1, 0), (0, 1, 0, -1), (0, 0, 1, -1)), 75, 24, (1, 6, 11, 6)),
    )
}


def names() -> list[str]:
    return list(CORPUS)


@lru_cache(maxsize=None)
def load(name: str) -> OrientedMatroid:
    """Build the named corpus matroid, validating covector axioms."""
    if name not in CORPUS:
        raise KeyError(f"unknown corpus entry {name!r}")
    return om_from_arrangement(Arrangement(CORPUS[name].normals))
