"""Self-tests of the benchmark harness on the small u23 input."""

from __future__ import annotations

import copy
import json

import inputs
import run

U23 = [("u23", "describe"), ("u23", run.ALL_VERIFY)]


def benchmark_names(kind: str) -> set[str]:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"] for m in spec[kind]}


def recorded(seed: int, workdir) -> dict:
    """Fingerprints of the u23 commands on the inputs of `seed`."""
    paths = inputs.write_inputs(workdir, seed, ["u23"])
    out = {}
    for name, mode in U23:
        o = run.run_command(name, mode, paths[name], False, workdir,
                            run.COMMAND_TIMEOUT_S, {}, {})
        assert o.checks, o.problems
        out[run.fingerprint_key(name, mode)] = o.checks
    return out


def test_fast_run_reports_every_metric(tmp_path):
    expected = recorded(0, tmp_path)
    plain = run.measure(U23, 1, 0, False, expected, tmp_path)
    assert plain["correct"] and plain["failed"] == 0
    assert plain["attempted"] == 7
    assert set(plain["metrics"]) == benchmark_names("end_to_end")
    assert plain["metrics"]["pass_frac"]["value"] == 1.0
    traced = run.measure(U23, 1, 0, True, expected, tmp_path)
    assert traced["correct"]
    assert set(traced["metrics"]) == benchmark_names("per_layer")
    layers = {k: v["value"] for k, v in traced["metrics"].items()}
    assert layers["cli.resolve_input_calls"] == 2
    assert layers["om.axiom_check_calls"] == 2
    assert layers["salvetti.cochain_eval_calls"] > 0
    assert layers["cosheaf.stalks"] > 0


def test_wrong_fingerprint_is_a_failure(tmp_path):
    expected = recorded(0, tmp_path)
    wrong = copy.deepcopy(expected)
    wrong["u23:describe"][0]["fingerprint"]["betti_int"] = [1, 3, 3]
    result = run.measure(U23, 0, 0, False, wrong, tmp_path)
    assert not result["correct"]
    assert result["failed"] == 1 and result["attempted"] == 7
    assert result["metrics"]["pass_frac"]["value"] == 6 / 7


def test_seeds_relabel_inputs_but_keep_fingerprints(tmp_path):
    assert inputs.arrangement_text("u23", 0) == inputs.arrangement_text("u23", 0)
    assert inputs.arrangement_text("u23", 0) != inputs.arrangement_text("u23", 1)
    assert inputs.covector_text("gen4_6", 0) != inputs.covector_text("gen4_6", 1)
    assert recorded(0, tmp_path) == recorded(1, tmp_path)
