"""Command line entry points: describe an input, run verifications, batch the corpus.

Inputs are builtin corpus names, arrangement files (header "n d" followed by
n rows of d rationals), or covector files (one sign vector per line).  Every
command produces a deterministic JSON report of per-check records; exit code
0 means every check passed, 1 means a verification failed, 2 means the input
could not be read or validated or the report path cannot be written.
"""

from __future__ import annotations

import json
import os
import sys
from time import perf_counter
from typing import Callable, NamedTuple, Optional, Sequence

from .algebras import nbc_sets, projectivize
from .corpus import load, names
from .cosheaf import verify_theorem_C
from .filtrations import asymptotic, quillen_Z_demo, verify_theorem_A, verify_theorem_B, vg_lower
from .linalg import lattice_equal
from .om import (NotCovectors, OrientedMatroid, ParseError, data_lines, om_from_arrangement,
                 om_from_covectors, parse_arrangement, parse_covector_lines)
from .salvetti import get_salvetti, homology_Z, homology_mod2


class InputError(Exception):
    pass


def resolve_input(spec: str) -> tuple[str, OrientedMatroid]:
    """Load a builtin corpus name or parse a file, sniffing its format.

    A first meaningful line containing whitespace is an arrangement header;
    otherwise the file is read as covector lines.  A parse error names the
    format the file was read as.
    """
    if spec in names():
        return spec, load(spec)
    try:
        with open(spec, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as e:
        raise InputError(f"cannot read input {spec!r}: {e}") from None
    except UnicodeDecodeError as e:
        raise InputError(f"input {spec!r} is not UTF-8 text: byte {e.start} "
                         f"is {e.object[e.start:e.start + 1].hex()}") from None
    first = next((s for _, s in data_lines(text)), "")
    arrangement = len(first.split()) > 1
    try:
        if arrangement:
            m = om_from_arrangement(parse_arrangement(text))
        else:
            m = om_from_covectors(parse_covector_lines(text))
    except ParseError as e:
        fmt = ("an arrangement file (first line has whitespace)" if arrangement
               else "a covector file (first line has no whitespace)")
        raise InputError(f"read as {fmt}: {e}") from None
    except NotCovectors as e:
        raise InputError(str(e)) from None
    return spec, m


def _check_report_path(path: str) -> None:
    """Raise InputError unless a report can be written at `path`; a file the
    probe creates is removed again."""
    existed = os.path.exists(path)
    try:
        open(path, "a", encoding="utf-8").close()
    except OSError as e:
        raise InputError(f"cannot write report {path!r}: {e}") from None
    if not existed:
        os.remove(path)


def _parse_order(text: Optional[str], n: int) -> Optional[tuple[int, ...]]:
    if text is None:
        return None
    try:
        order = tuple(int(x) for x in text.replace(",", " ").split())
    except ValueError:
        raise InputError(f"cannot parse order {text!r}") from None
    if sorted(order) != list(range(n)):
        raise InputError(f"order must be a permutation of 0..{n - 1}")
    return order


def _record(check_id: str, target: str, params: dict, runner) -> dict:
    t0 = perf_counter()
    passed, data = runner()
    return {"id": check_id, "target": target, "params": params, "pass": bool(passed),
            "data": data, "wall_ms": round((perf_counter() - t0) * 1000, 3)}


def _json(value):
    """A report value made JSON-ready: each NamedTuple, nested ones too,
    becomes a dict of its fields; scalars and tuples of ints are returned
    as they are, untested for fields."""
    kind = type(value)
    if kind in (int, float, str, bool, type(None)) or (
            kind is tuple and all(type(x) is int for x in value)):
        return value
    if hasattr(value, "_asdict"):
        return {k: _json(v) for k, v in value._asdict().items()}
    if isinstance(value, (list, tuple)):
        return type(value)(map(_json, value))
    return value


def _report(report) -> tuple[bool, dict]:
    """A theorem report as (pass flag, JSON-ready fields)."""
    return report.ok, _json(report)


def describe_check(m: OrientedMatroid, target: str,
                   order: Optional[Sequence[int]], ring: str) -> dict:
    """The `describe` record.  `ring` must be "z": the lower lattice is
    saturated, so its rank is also the dimension of its reduction mod 2."""
    if ring != "z":
        raise ValueError(f"ring must be 'z', got {ring!r}")

    def run():
        sal = get_salvetti(m)
        hom = homology_mod2(sal)
        integral = homology_Z(sal)
        dims = hom.dims()
        flats_by_rank = [len(fs) for fs in m.flats_by_rank]
        data = {
            "n": m.n,
            "rank": m.rank,
            "covectors": len(m.covectors),
            "topes": len(m.topes),
            "flats_by_rank": flats_by_rank,
            "betti_mod2": dims,
            "betti_int": integral.betti,
            "torsion": integral.torsion,
            "salvetti_cells": [sal.n_cells(d) for d in range(sal.dim + 1)],
            "nbc": {str(p): [list(s) for s in nbc_sets(m, p, order)]
                    for p in range(m.rank + 1)},
            "vg_ranks": {str(p): vg_lower(m, p).rank for p in range(m.rank + 2)},
        }
        nbc_counts = [len(sets) for sets in data["nbc"].values()]
        vg_ranks = list(data["vg_ranks"].values())
        consistent = (
            sum(dims) == len(m.topes)
            and integral.betti == dims
            and all(not t for t in integral.torsion)
            and dims == nbc_counts
            and [a - b for a, b in zip(vg_ranks, vg_ranks[1:])] == nbc_counts
        )
        return consistent, data

    return _record("describe", target, {"order": order, "ring": ring}, run)


def _proj(m: OrientedMatroid, order, degrees) -> tuple[bool, dict]:
    rows = [_json(projectivize(m, q, order)) for q in degrees]
    return all(r["ok"] for r in rows), {"reports": rows}


def _asym(m: OrientedMatroid, order, degrees) -> tuple[bool, dict]:
    rows = [{"p": q, "rank": (lat := asymptotic(m, q)).rank,
             "equal": lattice_equal(lat, vg_lower(m, q))} for q in degrees]
    return all(r["equal"] for r in rows), {"reports": rows}


def _quillen_z(m: OrientedMatroid, order, degrees) -> tuple[bool, dict]:
    ranks = {str(q): quillen_Z_demo(m, q) for q in degrees}
    return all(r >= 1 for r in ranks.values()), {"ranks": ranks}


class Target(NamedTuple):
    """A verify target: whether it reads `--order`, its degrees if it takes
    `--p` (the first default degree and the top degree above the rank; `--p`
    may be any degree from 0 to the top), and `check(m, order, degrees)`."""

    order: bool
    degrees: Optional[tuple[int, int]]
    check: Callable


TARGETS = {
    "thmA": Target(False, None, lambda m, order, degrees: _report(verify_theorem_A(m))),
    "thmB": Target(True, None, lambda m, order, degrees: _report(verify_theorem_B(m, order))),
    "thmC": Target(False, None, lambda m, order, degrees: _report(verify_theorem_C(m))),
    "proj": Target(True, (0, 0), _proj),
    "asym": Target(False, (0, 1), _asym),
    "quillenZ": Target(False, (1, 1), _quillen_z),
}


def check_options(which: str, order: Optional[object], p: Optional[int]) -> None:
    """Raise InputError for an unknown target, `--p` on a target without
    degrees or `--order` on one that reads no order (`all` reads it).  It
    needs no input, so `main` calls it before the input is read."""
    if which != "all" and which not in TARGETS:
        raise InputError(f"unknown verification target {which!r}")
    if p is not None and (which == "all" or not TARGETS[which].degrees):
        takes = ", ".join(t for t, spec in TARGETS.items() if spec.degrees)
        raise InputError(f"--p applies only to {takes}, not {which!r}")
    if order is not None and which != "all" and not TARGETS[which].order:
        reads = ", ".join(t for t, spec in TARGETS.items() if spec.order)
        raise InputError(f"--order applies only to all, {reads} and describe, not {which!r}")


def verify_checks(m: OrientedMatroid, which: str, target: str,
                  order: Optional[Sequence[int]] = None,
                  p: Optional[int] = None) -> list[dict]:
    """Records for one verification target, or for all of them, with options
    that pass `check_options` and `p` inside its target's degree range."""
    check_options(which, order, p)
    if p is not None:
        top = m.rank + TARGETS[which].degrees[1]
        if not 0 <= p <= top:
            raise InputError(f"--p must lie in 0..{top} for {which}, got {p}")
    out = []
    for name, spec in TARGETS.items() if which == "all" else [(which, TARGETS[which])]:
        params = ({"order": order, "p": p} if spec.degrees
                  else {"order": order} if spec.order else {})
        degrees = spec.degrees and ([p] if p is not None
                                    else range(spec.degrees[0], m.rank + spec.degrees[1] + 1))
        out.append(_record(name, target, params, lambda: spec.check(m, order, degrees)))
    return out


def _emit(checks: list[dict], json_path: Optional[str]) -> int:
    for c in checks:
        status = "PASS" if c["pass"] else "FAIL"
        print(f"[{status}] {c['id']} {c['target']} ({c['wall_ms']} ms)")
    report = {"schema": 1, "checks": checks}
    if json_path:
        with open(json_path, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return 0 if all(c["pass"] for c in checks) else 1


def main(argv: Optional[Sequence[str]] = None) -> int:
    import argparse  # here, so that importing the library skips it
    parser = argparse.ArgumentParser(
        prog="topespace",
        description="Exact verification of tope-space filtrations and cosheaves.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_desc = sub.add_parser("describe", help="summarize an input matroid")
    p_desc.add_argument("input", help="builtin corpus name or input file")
    p_desc.add_argument("--order", help="element order as comma-separated indices")
    p_desc.add_argument("--json", dest="json_path", help="write the JSON report here")

    p_ver = sub.add_parser("verify", help="run verification suites")
    p_ver.add_argument("input", help="builtin corpus name or input file")
    p_ver.add_argument("which", choices=(*TARGETS, "all"))
    p_ver.add_argument("--order", help="element order as comma-separated indices")
    p_ver.add_argument("--p", type=int, dest="p", help="restrict to one degree")
    p_ver.add_argument("--json", dest="json_path", help="write the JSON report here")

    p_cor = sub.add_parser("corpus", help="verify every builtin corpus member")
    p_cor.add_argument("--json", dest="json_path", help="write the JSON report here")

    args = parser.parse_args(argv)
    try:
        if args.json_path:
            _check_report_path(args.json_path)
        if args.command == "describe":
            target, m = resolve_input(args.input)
            order = _parse_order(args.order, m.n)
            checks = [describe_check(m, target, order, "z")]
        elif args.command == "verify":
            check_options(args.which, args.order, args.p)
            target, m = resolve_input(args.input)
            order = _parse_order(args.order, m.n)
            checks = verify_checks(m, args.which, target, order, args.p)
        else:
            checks = [c for name in names()
                      for c in verify_checks(load(name), "all", name)]
    except InputError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    return _emit(checks, args.json_path)


if __name__ == "__main__":
    sys.exit(main())
