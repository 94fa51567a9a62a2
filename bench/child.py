"""Run one benchmark command in a fresh interpreter and print its result.

Usage: child.py SRC INPUT MODE TRACE

SRC is the directory holding the `topespace` package, INPUT an arrangement
or covector file, MODE `describe`, a comma-separated list of verify targets
run on one matroid, or `setup` to stop after loading the input, and TRACE 1
to wrap the package's layers in spans.
The last line of standard output is a JSON object with the set-up time, the
fingerprint of every check record and, when traced, the layer totals.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from time import perf_counter


def fingerprint(record: dict) -> dict:
    """The parts of a check record that no relabelling of the input changes."""
    data = record["data"]
    fp: dict = {"pass": record["pass"]}
    kind = record["id"]
    if kind == "describe":
        for key in ("covectors", "topes", "flats_by_rank", "betti_mod2",
                    "betti_int", "torsion", "salvetti_cells", "vg_ranks"):
            fp[key] = data[key]
        fp["nbc"] = {p: len(sets) for p, sets in data["nbc"].items()}
    elif kind == "thmA":
        fp["dims"] = data["dims"]
    elif kind == "thmB":
        fp["degrees"] = data["degrees"]
    elif kind == "thmC":
        fp.update(cones=data["cones"], compositions=data["compositions"],
                  ses=len(data["ses"]), naturality=len(data["naturality"]))
    elif kind == "proj":
        fp["ranks"] = [(r["p"], r["dim_projective"], r["rank_b"]) for r in data["reports"]]
    elif kind == "asym":
        fp["ranks"] = [(r["p"], r["rank"]) for r in data["reports"]]
    elif kind == "quillenZ":
        fp["ranks"] = data["ranks"]
    return fp


def main(argv: list[str]) -> int:
    t0 = perf_counter()
    src, path, mode, trace = argv
    sys.path.insert(0, src)
    import topespace
    from topespace import cli
    if Path(topespace.__file__).resolve().parent != (Path(src) / "topespace").resolve():
        print(f"error: imported topespace from {topespace.__file__}", file=sys.stderr)
        return 2
    tracer = None
    if trace == "1":
        import spans
        tracer = spans.Tracer()
        tracer.install()
    _, m = cli.resolve_input(path)
    setup_s = perf_counter() - t0
    name = Path(path).stem
    if mode == "setup":
        records = []
    elif mode == "describe":
        records = [cli.describe_check(m, name, None, "z")]
    else:
        records = [r for t in mode.split(",") for r in cli.verify_checks(m, t, name)]
    out = {
        "setup_s": setup_s,
        "checks": [{"id": r["id"], "fingerprint": fingerprint(r)} for r in records],
    }
    if tracer is not None:
        out["layers"] = tracer.totals()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
