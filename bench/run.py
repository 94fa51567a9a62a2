"""Benchmark for topespace: seeded describe/verify workloads, each command in a fresh process.

Usage:
    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from its
`src` directory.  The seed relabels every input (see inputs.py) and the
workload's commands run one at a time, each in a new interpreter, as a CLI
user pays for them: no memo cache survives from one command to the next.
Each child is pinned to the allowed CPU that runs a short probe fastest.
Whole passes over the workload repeat while another pass fits in S seconds;
there is always at least one.  Every check record is compared with its stored
fingerprint (fingerprints.json).

The last line of standard output is one JSON object.  With --trace 0 its
metrics are wall_s (child wall time from spawn to exit, summed over the
workload's commands), setup_s (package import plus `cli.resolve_input`,
summed), peak_rss_mb (largest child peak RSS, from os.wait4) and pass_frac
(checks passed over checks attempted); each is the median over passes, and
setup_s also over set-up-only rounds that follow them.  With
--trace 1 every command runs traced and the metrics are the layer totals
(spans.py), trace.wall_s (the traced counterpart of wall_s; traced minus
untraced wall_s at the same seed is the tracing overhead) and
trace.overhead_s (wrapper calls times the measured cost of one wrapper call).
"""

from __future__ import annotations

import argparse
import json
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import inputs
import spans

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

ALL_VERIFY = "all"
RANK4_TARGETS = "thmA,proj,quillenZ,asym"

# Workload name -> commands, each (input name, mode); mode is "describe" or
# comma-separated verify targets run on one matroid.  Why each was chosen:
#   describe-corpus: fine-complex build plus sparse integral SNF, and nothing
#     else; the control for changes to cochains, cordovil_dual or dense SNF.
#   verify-rank3: Theorem B cochain evaluation and Theorem C cordovil_dual
#     through the dense SNF; homology_Z is never called.
#   rank4: a covector file (parsed, then axiom-checked twice) so set-up
#     dominates, and integer kernels through the dense SNF in `asym`.
# Every pass is a few seconds long, so a run holds several passes and their
# median rides out short bursts of CPU contention on a shared host; inputs
# whose single command takes tens of seconds (a3 describe, gen3_7 verify all,
# the a4 braid arrangement) are left out until the program makes them short.
WORKLOADS: dict[str, list[tuple[str, str]]] = {
    "describe-corpus": [(n, "describe") for n in ("u11", "u22", "u23", "u34")],
    "verify-rank3": [(n, ALL_VERIFY) for n in ("a3", "gen3_6")],
    "rank4": [("gen4_6", RANK4_TARGETS)],
}

SETUP_ONLY = "setup"
# Set-up-only rounds (import plus resolve_input for every command) run after
# the passes while they fit in this share of the run's seconds; setup_s is the
# median over passes and rounds, which steadies it where set-up is short.
SETUP_ROUNDS_SHARE = 0.1
PROBE_ITERATIONS = 100_000  # about 10 ms of CPU per probe
COMMAND_TIMEOUT_S = 150.0
RUN_LIMIT_S = 170.0  # every run must end within 180 s
FINGERPRINTS = BENCH / "fingerprints.json"


@dataclass
class Outcome:
    """One child process: its cost and how many of its checks held."""

    wall_s: float
    setup_s: float
    rss_mb: float
    attempted: int
    failed: int
    layers: dict = field(default_factory=dict)
    problems: list = field(default_factory=list)
    checks: list = field(default_factory=list)


def fingerprint_key(name: str, mode: str) -> str:
    return f"{name}:{mode}"


def pin_to_fastest_cpu(allowed: set[int]) -> None:
    """Pin this process, and so its next child, to the allowed CPU that runs a probe fastest.

    On a shared host other tenants slow one virtual CPU at a time, for seconds
    to minutes; a child left on the slowed CPU would measure the neighbours.
    """
    best = None
    for cpu in sorted(allowed):
        os.sched_setaffinity(0, {cpu})
        t0 = perf_counter()
        sum(i * i % 7 for i in range(PROBE_ITERATIONS))
        took = perf_counter() - t0
        if best is None or took < best[0]:
            best = (took, cpu)
    os.sched_setaffinity(0, {best[1]})


def spawn(args: list[str], workdir: Path, timeout: float):
    """Run a child to exit; return (wall seconds, peak RSS MB, exit code, stdout, stderr)."""
    out_path = workdir / "child.out"
    err_path = workdir / "child.err"
    env = dict(os.environ, PYTHONHASHSEED="0")
    allowed = os.sched_getaffinity(0)
    pin_to_fastest_cpu(allowed)
    try:
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            t0 = perf_counter()
            proc = subprocess.Popen(args, stdout=out, stderr=err, cwd=ROOT, env=env)
        pidfd = os.pidfd_open(proc.pid)
        try:
            ready, _, _ = select.select([pidfd], [], [], max(timeout, 0.0))
            if not ready:
                proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
            wall = perf_counter() - t0
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            os.close(pidfd)
    finally:
        os.sched_setaffinity(0, allowed)
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    if not ready:
        code = None
    return (wall, usage.ru_maxrss / 1024.0, code,
            out_path.read_text(encoding="utf-8", errors="replace"),
            err_path.read_text(encoding="utf-8", errors="replace"))


def compare(name: str, mode: str, checks: list[dict], expected: dict,
            corpus: dict) -> tuple[int, int, list[str]]:
    """(attempted, failed, problems) for one command's check records."""
    want = expected.get(fingerprint_key(name, mode))
    if want is None:
        return max(len(checks), 1), max(len(checks), 1), [f"{name}: no stored fingerprint"]
    attempted = max(len(want), len(checks))
    failed = attempted - min(len(want), len(checks))
    problems = []
    if len(want) != len(checks):
        problems.append(f"{name}: {len(checks)} checks, expected {len(want)}")
    for w, got in zip(want, checks):
        fp = got["fingerprint"]
        bad = []
        if not fp.get("pass"):
            bad.append("pass is false")
        if got["id"] != w["id"] or fp != w["fingerprint"]:
            bad.append(f"fingerprint {fp} != {w['fingerprint']}")
        entry = corpus.get(name)
        if got["id"] == "describe" and entry is not None:
            frozen = {"covectors": entry.covectors, "topes": entry.topes,
                      "betti_mod2": list(entry.betti), "betti_int": list(entry.betti)}
            if any(fp.get(k) != v for k, v in frozen.items()):
                bad.append(f"disagrees with corpus.CORPUS {frozen}")
        if bad:
            failed += 1
            problems.append(f"{name} {w['id']}: " + "; ".join(bad))
    return attempted, failed, problems


def run_command(name: str, mode: str, path: Path, trace: bool, workdir: Path,
                timeout: float, expected: dict, corpus: dict) -> Outcome:
    args = [sys.executable, str(BENCH / "child.py"), str(SRC), str(path), mode,
            "1" if trace else "0"]
    wall, rss, code, out, err = spawn(args, workdir, timeout)
    want = expected.get(fingerprint_key(name, mode), ())
    n_expected = len(want) if want and mode != SETUP_ONLY else 1
    if code != 0:
        why = "timed out" if code is None else f"exit code {code}"
        tail = err.strip().splitlines()[-1:] or [""]
        return Outcome(wall, 0.0, rss, n_expected, n_expected,
                       problems=[f"{name} {mode}: {why} {tail[0]}"])
    try:
        report = json.loads(out.strip().splitlines()[-1])
    except (ValueError, IndexError):
        return Outcome(wall, 0.0, rss, n_expected, n_expected,
                       problems=[f"{name} {mode}: unreadable child output"])
    if mode == SETUP_ONLY:
        return Outcome(wall, report["setup_s"], rss, 0, 0)
    attempted, failed, problems = compare(name, mode, report["checks"], expected, corpus)
    return Outcome(wall, report["setup_s"], rss, attempted, failed,
                   report.get("layers", {}), problems, report["checks"])


def layer_metrics(outcomes: list[Outcome]) -> dict[str, float]:
    """Sum the traced commands' layer totals into the per-layer metrics."""
    total: dict[str, float] = dict.fromkeys(spans.METRICS, 0)
    for o in outcomes:
        for k, v in o.layers.items():
            total[k] += v
    calls = total["algebras.cordovil_dual_calls"]
    distinct = total.pop("algebras.cordovil_dual_distinct")
    total["algebras.cordovil_dual_distinct_frac"] = distinct / calls if calls else 0.0
    total["trace.wall_s"] = sum(o.wall_s for o in outcomes)
    return total


END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "pass_frac": "frac"}


def unit_of(metric: str) -> str:
    if metric in END_TO_END_UNITS:
        return END_TO_END_UNITS[metric]
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_frac"):
        return "frac"
    return "count"


def measure(commands: list[tuple[str, str]], seed: int, seconds: float, trace: bool,
            expected: dict, workdir: Path) -> dict:
    """Run whole passes over `commands`; return the benchmark's result object."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from topespace.corpus import CORPUS

    start = perf_counter()
    paths = inputs.write_inputs(workdir, seed, dict.fromkeys(n for n, _ in commands))
    outcomes: list[Outcome] = []

    def run_all(traced: bool, setup_only: bool = False) -> list[Outcome]:
        outs = []
        for name, mode in commands:
            timeout = min(COMMAND_TIMEOUT_S, RUN_LIMIT_S - (perf_counter() - start))
            outs.append(run_command(name, SETUP_ONLY if setup_only else mode, paths[name],
                                    traced, workdir, timeout, expected, CORPUS))
        outcomes.extend(outs)
        return outs

    passes: list[dict[str, float]] = []
    while True:
        pass_start = perf_counter()
        outs = run_all(trace)
        if trace:
            passes.append(layer_metrics(outs))
        else:
            passes.append({
                "wall_s": sum(o.wall_s for o in outs),
                "setup_s": sum(o.setup_s for o in outs),
                "peak_rss_mb": max(o.rss_mb for o in outs),
            })
        pass_s = perf_counter() - pass_start
        if perf_counter() - start + pass_s > seconds:
            break
    metrics = {k: statistics.median(p[k] for p in passes) for k in passes[0]}
    if not trace:
        setups = [p["setup_s"] for p in passes]
        spent, estimate = 0.0, setups[-1]
        while spent + estimate <= SETUP_ROUNDS_SHARE * seconds:
            round_start = perf_counter()
            setups.append(sum(o.setup_s for o in run_all(False, setup_only=True)))
            estimate = perf_counter() - round_start
            spent += estimate
        metrics["setup_s"] = statistics.median(setups)
    attempted = sum(o.attempted for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    if not trace:
        metrics["pass_frac"] = (attempted - failed) / attempted
    problems = [p for o in outcomes for p in o.problems]
    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # On SIGTERM unwind normally, so the running child is killed and reaped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (SRC / "topespace" / "__init__.py").is_file():
        print(f"error: no topespace package under {SRC}", file=sys.stderr)
        return 2
    expected = json.loads(FINGERPRINTS.read_text(encoding="utf-8"))
    scratch = ROOT / ".bench_build"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=scratch))
    try:
        # Compile the package's bytecode once, untimed, as an installed CLI has.
        subprocess.run([sys.executable, "-c", "import topespace.cli"], cwd=ROOT,
                       env=dict(os.environ, PYTHONPATH=str(SRC)), check=False)
        result = measure(WORKLOADS[args.workload], args.seed, args.seconds,
                         bool(args.trace), expected, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(f"workload {args.workload} seed {args.seed}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
