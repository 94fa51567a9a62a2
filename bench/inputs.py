"""Seeded benchmark inputs, written as the files a CLI user would pass.

Every input is relabelled by the seed: its hyperplanes are shuffled and each
normal is multiplied by a random nonzero integer, so a negative factor
reorients that hyperplane.  Neither changes the oriented matroid up to
isomorphism, so the answers (the fingerprints) are the same for every seed
while the program sees different element orders and sign patterns.
"""

from __future__ import annotations

import random
from itertools import combinations
from pathlib import Path

# Normals of the builtin corpus, copied so that the benchmark's inputs do not
# change when the package's corpus module does.
NORMALS: dict[str, list[tuple[int, ...]]] = {
    "u11": [(1,)],
    "u22": [(1, 0), (0, 1)],
    "u23": [(1, 0), (1, 1), (0, 1)],
    "u34": [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)],
    "a3": [
        (1, -1, 0, 0), (1, 0, -1, 0), (1, 0, 0, -1),
        (0, 1, -1, 0), (0, 1, 0, -1), (0, 0, 1, -1),
    ],
    # Generic hyperplanes through the origin: normals on the moment curve.
    "gen3_6": [(1, i, i**2) for i in range(1, 7)],
    "gen4_6": [(1, i, i**2, i**3) for i in range(1, 7)],
}

# Inputs written as covector files rather than arrangement files.
COVECTOR_INPUTS = ("gen4_6",)


def relabelled_normals(name: str, seed: int) -> list[tuple[int, ...]]:
    """The named normals, shuffled and each scaled by a random nonzero integer."""
    normals = NORMALS[name]
    rng = random.Random(f"{seed}:{name}")
    order = list(range(len(normals)))
    rng.shuffle(order)
    out = []
    for src in order:
        scale = rng.choice((-3, -2, -1, 1, 2, 3))
        out.append(tuple(scale * x for x in normals[src]))
    return out


def arrangement_text(name: str, seed: int) -> str:
    normals = relabelled_normals(name, seed)
    lines = [f"{len(normals)} {len(normals[0])}"]
    lines += [" ".join(str(x) for x in row) for row in normals]
    return "\n".join(lines) + "\n"


def _det3(m) -> int:
    (a, b, c), (d, e, f), (g, h, i) = m
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


def generic_covectors(normals: list[tuple[int, ...]]) -> set[tuple[int, ...]]:
    """Covectors of a central arrangement in R^4 whose normals are in general position.

    Each three normals meet in a line, whose direction (their generalized
    cross product) gives a cocircuit pair; the covectors are the composition
    closure of the cocircuits together with zero.
    """
    cocircuits = set()
    for triple in combinations(normals, 3):
        x = [(-1) ** j * _det3([[row[k] for k in range(4) if k != j] for row in triple])
             for j in range(4)]
        signs = tuple((s > 0) - (s < 0) for s in (sum(a * b for a, b in zip(n, x))
                                                  for n in normals))
        if signs.count(0) != 3:
            raise ValueError("normals are not in general position in R^4")
        cocircuits |= {signs, tuple(-s for s in signs)}
    covectors = {(0,) * len(normals)} | cocircuits
    frontier = set(covectors)
    while frontier:
        frontier = {tuple(a or b for a, b in zip(v, c))
                    for v in frontier for c in cocircuits} - covectors
        covectors |= frontier
    return covectors


def covector_text(name: str, seed: int) -> str:
    covectors = generic_covectors(relabelled_normals(name, seed))
    return "".join("".join("0+-"[s] for s in v) + "\n" for v in sorted(covectors))


def write_inputs(directory: Path, seed: int, names) -> dict[str, Path]:
    """Write the named inputs for `seed` and return their paths by name."""
    paths = {}
    for name in names:
        if name in COVECTOR_INPUTS:
            path = directory / f"{name}.cov"
            path.write_text(covector_text(name, seed), encoding="utf-8")
        else:
            path = directory / f"{name}.arr"
            path.write_text(arrangement_text(name, seed), encoding="utf-8")
        paths[name] = path
    return paths
