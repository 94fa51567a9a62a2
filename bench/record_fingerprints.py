"""Record the expected fingerprint of every benchmark command.

Usage: python3 bench/record_fingerprints.py [SEED]

Runs each command of every workload once, untraced, on the inputs for SEED
(default 0) and writes fingerprints.json.  Refuses to write if any command
fails or any check does not pass, so a stored fingerprint is always a passing
answer.  Run it only when the benchmark's commands or inputs change.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

import run


def main(argv: list[str]) -> int:
    seed = int(argv[0]) if argv else 0
    scratch = run.ROOT / ".bench_build"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="record-", dir=scratch))
    out: dict[str, list] = {}
    try:
        for commands in run.WORKLOADS.values():
            paths = run.inputs.write_inputs(workdir, seed, dict.fromkeys(n for n, _ in commands))
            for name, mode in commands:
                o = run.run_command(name, mode, paths[name], False, workdir,
                                    run.COMMAND_TIMEOUT_S, {}, {})
                bad = [c["id"] for c in o.checks if not c["fingerprint"]["pass"]]
                if not o.checks or bad:
                    print(f"error: {name} {mode} did not pass: {o.problems or bad}",
                          file=sys.stderr)
                    return 1
                out[run.fingerprint_key(name, mode)] = o.checks
                print(f"{name} {mode}: {o.wall_s:.2f} s", file=sys.stderr)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    run.FINGERPRINTS.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n",
                                encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
