"""Command-line interface tests: parsing, checks, JSON reports, exit codes."""

import json
import os
import random
import subprocess
import sys
from pathlib import Path
from typing import NamedTuple

import pytest
from closed_forms import generic, type_a, type_b, type_d

from topespace import cli, om
from topespace.corpus import CORPUS, load


SRC = Path(__file__).resolve().parent.parent / "src"
GOLDEN = Path(__file__).resolve().parent / "data"


def run(argv, tmp_path, name="out.json"):
    """Run the CLI with a JSON report path appended; return (exit, report)."""
    path = tmp_path / name
    code = cli.main([*argv, "--json", str(path)])
    return code, json.loads(path.read_text())


def check_by_id(report, check_id):
    matches = [c for c in report["checks"] if c["id"] == check_id]
    assert len(matches) == 1
    return matches[0]


def test_describe_known_arrangement(tmp_path, capsys):
    code, report = run(["describe", "u23"], tmp_path)
    assert code == 0
    assert report["schema"] == 1
    check = check_by_id(report, "describe")
    assert check["pass"] is True
    data = check["data"]
    assert data["n"] == 3
    assert data["rank"] == 2
    assert data["covectors"] == 13
    assert data["topes"] == 6
    assert data["betti_mod2"] == [1, 3, 2]
    assert data["betti_int"] == [1, 3, 2]
    assert all(t == [] for t in data["torsion"])
    assert data["salvetti_cells"] == [6, 12, 6]
    out = capsys.readouterr().out
    assert "[PASS] describe u23" in out


def test_describe_two_lines(tmp_path):
    code, report = run(["describe", "u22"], tmp_path)
    assert code == 0
    data = check_by_id(report, "describe")["data"]
    assert data["covectors"] == 9
    assert data["topes"] == 4
    assert data["betti_mod2"] == [1, 2, 1]


def test_describe_counts_match_loaded_data(tmp_path):
    m = load("u34")
    code, report = run(["describe", "u34"], tmp_path)
    assert code == 0
    data = check_by_id(report, "describe")["data"]
    assert data["covectors"] == len(m.covectors)
    assert data["topes"] == len(m.topes)
    assert sum(data["betti_mod2"]) == len(m.topes)


def test_closed_forms_count_known_topes():
    assert type_b(3).nbc == [1, 9, 23, 15]
    assert type_a(4).nbc == [1, 10, 35, 50, 24]
    assert [sum(cf.nbc) for cf in (type_a(4), type_a(5), type_b(4), type_d(4))] == [
        120, 720, 384, 192]
    assert generic(3, 6).nbc == [1, 6, 15, 10]


CLOSED_FORMS = {"d4": lambda: type_d(4), "gen4_8": lambda: generic(4, 8),
                "b4": lambda: type_b(4)}


@pytest.mark.parametrize("name", list(CLOSED_FORMS))
def test_describe_matches_the_closed_form(name):
    form = CLOSED_FORMS[name]()
    check = cli.describe_check(om.om_from_arrangement(form.arrangement), name, None, "z")
    data = check["data"]
    ranks = list(data["vg_ranks"].values())
    assert check["pass"]
    assert data["betti_mod2"] == data["betti_int"] == form.nbc
    assert [len(sets) for sets in data["nbc"].values()] == form.nbc
    assert [a - b for a, b in zip(ranks, ranks[1:])] == form.nbc
    assert data["topes"] == sum(form.nbc)


def test_closed_form_rejects_b4_with_a_normal_dropped():
    # negative control: a consistent arrangement that is not B4
    b4 = type_b(4)
    m = om.om_from_arrangement(om.Arrangement(b4.arrangement.normals[1:]))
    check = cli.describe_check(m, "b4 without e_1", None, "z")
    assert check["pass"]
    assert check["data"]["betti_mod2"] != b4.nbc
    assert check["data"]["topes"] != sum(b4.nbc)


@pytest.mark.parametrize("patched", ["nbc_sets", "vg_lower"])
def test_describe_fails_when_nbc_counts_disagree(monkeypatch, patched):
    # one nbc set of degree 1 is lost, or the degree-2 lower piece is read
    # in place of the degree-1 piece: either breaks an equality the pass
    # flag requires, though the Betti numbers still sum to the tope count
    real = getattr(cli, patched)
    if patched == "nbc_sets":
        monkeypatch.setattr(cli, "nbc_sets",
                            lambda m, p, order=None: real(m, p, order)[:-1] if p == 1
                            else real(m, p, order))
    else:
        monkeypatch.setattr(cli, "vg_lower", lambda m, p: real(m, 2 if p == 1 else p))
    check = cli.describe_check(om.om_from_arrangement(type_a(3).arrangement), "a3", None, "z")
    assert sum(check["data"]["betti_mod2"]) == check["data"]["topes"]
    assert not check["pass"]


def test_describe_arrangement_file(tmp_path):
    path = tmp_path / "lines.txt"
    path.write_text("3 2\n1 0\n1 1\n0 1\n")
    code, report = run(["describe", str(path)], tmp_path)
    assert code == 0
    data = check_by_id(report, "describe")["data"]
    assert data["covectors"] == 13
    assert data["topes"] == 6


def test_describe_covector_file(tmp_path):
    m = load("u23")
    path = tmp_path / "covectors.txt"
    path.write_text("\n".join(v.to_str() for v in m.covectors) + "\n")
    code, report = run(["describe", str(path)], tmp_path)
    assert code == 0
    data = check_by_id(report, "describe")["data"]
    assert data["covectors"] == 13
    assert data["topes"] == 6


def test_describe_malformed_arrangement(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("3 2\n1 0\nbad row\n")
    code = cli.main(["describe", str(path)])
    assert code == 2
    err = capsys.readouterr().err
    assert "line 3" in err


def test_describe_axiom_failure(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("000\n+++\n---\n++-\n")
    code = cli.main(["describe", str(path)])
    assert code == 2
    err = capsys.readouterr().err
    assert "covector axioms fail" in err
    assert "witness" in err


def test_covector_file_checks_axioms_once(tmp_path, monkeypatch):
    covectors = tmp_path / "u23.txt"
    covectors.write_text("\n".join(v.to_str() for v in load("u23").covectors) + "\n")
    normals = CORPUS["u23"].normals
    arrangement = tmp_path / "u23.arr"
    arrangement.write_text("\n".join([f"{len(normals)} {len(normals[0])}"]
                                     + [" ".join(map(str, row)) for row in normals]) + "\n")
    original = om.check_covector_axioms
    calls = []

    def counted(vectors):
        calls.append(1)
        return original(vectors)

    for module in list(sys.modules.values()):
        if (getattr(module, "__name__", "").startswith("topespace")
                and getattr(module, "check_covector_axioms", None) is original):
            monkeypatch.setattr(module, "check_covector_axioms", counted)
    for path in (covectors, arrangement):
        calls.clear()
        assert cli.main(["describe", str(path)]) == 0
        assert len(calls) == 1, path.name


@pytest.mark.parametrize("text, message", [
    ("000\n+++\n---\n++-\n", "covector axioms fail (negation) witness: ++-"),
    ("00\n++\n--\n+-\n-+\n", "covector axioms fail (elimination) witness: -- +- element 0"),
    ("++\n--\n", "covector axioms fail (zero)"),
    ("00\n0+\n0-\n++\n--\n+-\n-+\n", "covector axioms fail (cocircuit closure) witness: --"),
])
def test_axiom_failure_names_axiom_and_witness(tmp_path, capsys, text, message):
    path = tmp_path / "bad.txt"
    path.write_text(text)
    assert cli.main(["describe", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("text, message", [
    ("0 0\n++\n--\n", "read as an arrangement file (first line has whitespace): "
                       "line 1: n and d must be positive"),
    ("++\n+x\n", "read as a covector file (first line has no whitespace): line 2: "),
])
def test_parse_error_names_the_sniffed_format(tmp_path, capsys, text, message):
    path = tmp_path / "bad.txt"
    path.write_text(text)
    assert cli.main(["describe", str(path)]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("command, targets", [("describe", []), ("verify", ["all"])])
def test_non_utf8_input_is_an_input_error(tmp_path, command, targets):
    """Exit 2 with one stderr line and no traceback, in a fresh interpreter."""
    path = tmp_path / "bad.txt"
    path.write_bytes(b"\xff\xfe\n")
    probe = ("import sys; sys.path.insert(0, sys.argv[1]); from topespace.cli import main; "
             "sys.exit(main(sys.argv[2:]))")
    done = subprocess.run([sys.executable, "-c", probe, str(SRC), command, str(path), *targets],
                          capture_output=True, text=True)
    assert done.returncode == 2
    assert done.stderr == f"error: input {str(path)!r} is not UTF-8 text: byte 0 is ff\n"


def test_describe_unknown_input(capsys):
    code = cli.main(["describe", "nosucharrangement"])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_verify_single_target(tmp_path):
    code, report = run(["verify", "u22", "thmA"], tmp_path)
    assert code == 0
    check = check_by_id(report, "thmA")
    assert check["pass"] is True
    rows = check["data"]["dims"]
    assert [r["quillen"] for r in rows] == [4, 3, 1, 0]
    assert all(r["quillen"] == r["vg_mod2"] == r["kalinin"] for r in rows)


def test_verify_all_targets(tmp_path):
    code, report = run(["verify", "u23", "all"], tmp_path)
    assert code == 0
    ids = [c["id"] for c in report["checks"]]
    assert ids == ["thmA", "thmB", "thmC", "proj", "asym", "quillenZ"]
    assert all(c["pass"] for c in report["checks"])


def test_verify_quillen_ranks(tmp_path):
    code, report = run(["verify", "u22", "quillenZ"], tmp_path)
    assert code == 0
    ranks = check_by_id(report, "quillenZ")["data"]["ranks"]
    assert ranks["1"] == 3
    assert ranks["2"] == 3
    assert ranks["3"] >= 1


def test_verify_with_order(tmp_path):
    code, report = run(["verify", "u23", "thmB", "--order", "2,1,0"], tmp_path)
    assert code == 0
    assert check_by_id(report, "thmB")["pass"] is True


def test_verify_with_p(tmp_path):
    code, report = run(["verify", "u23", "proj", "--p", "1"], tmp_path)
    assert code == 0
    rows = check_by_id(report, "proj")["data"]["reports"]
    assert len(rows) == 1
    assert rows[0]["p"] == 1
    assert rows[0]["ok"] is True


@pytest.mark.parametrize("which,p", [
    ("proj", 0), ("proj", 2), ("asym", 0), ("asym", 3), ("quillenZ", 0), ("quillenZ", 3),
])
def test_verify_p_inside_the_degree_range(which, p, tmp_path):
    code, report = run(["verify", "u22", which, "--p", str(p)], tmp_path)
    assert code == 0
    assert check_by_id(report, which)["params"]["p"] == p


@pytest.mark.parametrize("which,p,message", [
    ("proj", -1, "0..2 for proj"),
    ("proj", 3, "0..2 for proj"),
    ("asym", -1, "0..3 for asym"),
    ("asym", 9, "0..3 for asym"),
    ("quillenZ", -1, "0..3 for quillenZ"),
    ("quillenZ", 4, "0..3 for quillenZ"),
    ("thmA", 1, "not 'thmA'"),
    ("thmB", 1, "not 'thmB'"),
    ("thmC", 1, "not 'thmC'"),
    ("all", 1, "not 'all'"),
])
def test_verify_p_outside_its_targets_is_an_input_error(which, p, message, capsys):
    code = cli.main(["verify", "u22", which, "--p", str(p)])
    assert code == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.splitlines() == [out.err.strip()] and message in out.err


@pytest.mark.parametrize("which", ["thmA", "thmC", "asym", "quillenZ"])
def test_verify_order_where_no_check_reads_it_is_an_input_error(which, capsys):
    code = cli.main(["verify", "u22", which, "--order", "1,0"])
    assert code == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.splitlines() == [f"error: --order applies only to all, thmB, proj "
                                    f"and describe, not {which!r}"]


ORDERED = {"order": [1, 0]}
DEGREE_PARAMS = {"order": [1, 0], "p": None}


@pytest.mark.parametrize("argv, params", [
    (["verify", "u22", "all"], {"thmA": {}, "thmB": ORDERED, "thmC": {}, "proj": DEGREE_PARAMS,
                                "asym": DEGREE_PARAMS, "quillenZ": DEGREE_PARAMS}),
    (["verify", "u22", "thmB"], {"thmB": ORDERED}),
    (["verify", "u22", "proj"], {"proj": DEGREE_PARAMS}),
    (["describe", "u22"], {"describe": {"order": [1, 0], "ring": "z"}}),
], ids=["all", "thmB", "proj", "describe"])
def test_order_is_taken_where_a_check_reads_it(argv, params, tmp_path):
    # each record keeps its params shape: none for thmA and thmC, the order
    # for thmB, the order and degree for the degree targets
    code, report = run([*argv, "--order", "1,0"], tmp_path)
    assert code == 0
    assert {c["id"]: c["params"] for c in report["checks"]} == params


def test_describe_check_takes_only_the_integer_ring():
    with pytest.raises(ValueError, match="ring must be 'z'"):
        cli.describe_check(load("u23"), "u23", None, "z2")


@pytest.mark.parametrize("argv", [["verify", "u22", "thmA", "--p", "1"],
                                  ["verify", "u22", "asym", "--order", "1,0"]],
                         ids=["p", "order"])
def test_impossible_options_fail_before_loading(argv, monkeypatch, capsys):
    def refuse(*args):
        raise AssertionError("input loaded before the options were checked")

    monkeypatch.setattr(cli, "resolve_input", refuse)
    assert cli.main(argv) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.splitlines() == [out.err.strip()]


@pytest.mark.parametrize("argv, code", [(["verify", "u23", "all"], 0),
                                        (["verify", "u23", "thmA", "--order", "2,1,0"], 2)],
                         ids=["all", "order"])
def test_cli_under_python_O(argv, code):
    """`python -O` strips asserts, so every check and refusal must be a real
    branch: the run passes and the refusal is one stderr line."""
    done = subprocess.run([sys.executable, "-O", "-m", "topespace.cli", *argv],
                          capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(SRC)})
    assert done.returncode == code
    if code:
        assert done.stdout == "" and len(done.stderr.splitlines()) == 1
    else:
        assert done.stderr == "" and done.stdout.count("[PASS]") == 6


@pytest.mark.parametrize("argv", [["describe", "u11"], ["verify", "u22", "all"], ["corpus"]],
                         ids=["describe", "verify", "corpus"])
def test_unwritable_report_path_fails_before_loading(argv, tmp_path, monkeypatch, capsys):
    def refuse(*args):
        raise AssertionError("input loaded before the report path was checked")

    monkeypatch.setattr(cli, "resolve_input", refuse)
    monkeypatch.setattr(cli, "load", refuse)
    path = str(tmp_path / "missing" / "x.json")
    code = cli.main([*argv, "--json", path])
    assert code == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.splitlines() == [out.err.strip()]
    assert out.err.startswith(f"error: cannot write report {path!r}")


def test_report_path_probe_leaves_no_file_behind(tmp_path, capsys):
    path = tmp_path / "out.json"
    assert cli.main(["describe", "nosucharrangement", "--json", str(path)]) == 2
    assert not path.exists()


def test_verify_bad_order(capsys):
    code = cli.main(["verify", "u23", "thmB", "--order", "2,2,0"])
    assert code == 2
    assert "permutation" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["verify", "u23", "thmA", "--ring", "z"],
    ["corpus", "--order", "0,1,2"],
    ["corpus", "--jobs", "2"],
    ["describe", "u23", "--ring", "z2"],
])
def test_removed_options_are_rejected(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_verify_failure_sets_exit_code(tmp_path, monkeypatch, capsys):
    class Forced(NamedTuple):
        reason: str = "forced"
        ok: bool = False

    monkeypatch.setattr(cli, "verify_theorem_A", lambda m: Forced())
    path = tmp_path / "out.json"
    code = cli.main(["verify", "u23", "thmA", "--json", str(path)])
    assert code == 1
    report = json.loads(path.read_text())
    assert check_by_id(report, "thmA")["pass"] is False
    assert check_by_id(report, "thmA")["data"] == {"reason": "forced", "ok": False}
    assert "[FAIL] thmA" in capsys.readouterr().out


def test_corpus_runs_everything(tmp_path):
    code, report = run(["corpus"], tmp_path)
    assert code == 0
    targets = {(c["target"], c["id"]) for c in report["checks"]}
    assert len(targets) == 5 * 6  # six verification targets per member
    assert all(c["pass"] for c in report["checks"])


def test_corpus_reports_are_deterministic(tmp_path):
    code1, rep1 = run(["corpus"], tmp_path, "first.json")
    code2, rep2 = run(["corpus"], tmp_path, "second.json")
    assert code1 == code2 == 0

    def strip(report):
        return [
            {k: v for k, v in c.items() if k != "wall_ms"}
            for c in report["checks"]
        ]

    assert strip(rep1) == strip(rep2)


def test_reports_are_deterministic(tmp_path):
    _, rep1 = run(["verify", "u23", "all"], tmp_path, "a.json")
    _, rep2 = run(["verify", "u23", "all"], tmp_path, "b.json")

    def strip(report):
        return [
            {k: v for k, v in c.items() if k != "wall_ms"}
            for c in report["checks"]
        ]

    assert strip(rep1) == strip(rep2)


@pytest.mark.parametrize("argv", [["describe"], ["verify", "all"]], ids="-".join)
@pytest.mark.parametrize("name", ["u23", "a3"])
def test_reports_match_goldens(name, argv, tmp_path, capsys):
    """The report, apart from `wall_ms`, equals the recorded one as sorted-key
    JSON text: every report type reaches the file as an object of its
    fields, never as an array, and no value changes."""
    code, report = run([argv[0], name, *argv[1:]], tmp_path)
    assert code == 0
    for c in report["checks"]:
        del c["wall_ms"]
    golden = GOLDEN / f"{name}-{'-'.join(argv)}.json"
    assert json.dumps(report, sort_keys=True) + "\n" == golden.read_text()


START_UP_SKIPS = {"fractions", "decimal", "random", "dataclasses", "inspect", "argparse"}


def test_start_up_loads_no_fractions_decimal_random_dataclasses_or_argparse(tmp_path):
    """A bare interpreter (`-S`, no site hooks) that imports the CLI and
    resolves a builtin name, an integer arrangement file and a covector file
    loads none of the modules that rational entries, seeded choices,
    dataclass decorators and option parsing need; a rational arrangement
    still resolves, to the matroid of its integer scaling."""
    files = {"integer": "3 2\n1 0\n1 1\n0 1\n",
             "covectors": "\n".join(v.to_str() for v in load("u23").covectors) + "\n",
             "rational": "2 2\n1/3 -2/5\n1/2 1\n", "scaled": "2 2\n5 -6\n1 2\n"}
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    probe = ("import sys; sys.path.insert(0, sys.argv[1]); import topespace.cli as cli; "
             "print(cli.__file__); "
             "u23 = {cli.resolve_input(s)[1].covectors for s in sys.argv[2:5]}; "
             "print(len(u23), sorted(set(sys.argv[7:]) & set(sys.modules))); "
             "a, b = (cli.resolve_input(s)[1] for s in sys.argv[5:7]); "
             "print(a.covectors == b.covectors, 'fractions' in sys.modules)")
    argv = [str(SRC), "u23", *(str(tmp_path / name) for name in files), *sorted(START_UP_SKIPS)]
    out = subprocess.run([sys.executable, "-S", "-c", probe, *argv],
                         capture_output=True, text=True, check=True).stdout.splitlines()
    assert Path(out[0]).resolve() == SRC / "topespace" / "cli.py"
    assert out[1:] == ["1 []", "True True"]


def mutated_arrangement(name: str, rng: random.Random) -> str:
    """A corpus arrangement file with a zero row, a duplicated row, a bad
    token or a row of the wrong width."""
    normals = CORPUS[name].normals
    rows = [[str(x) for x in row] for row in normals]
    n, d = len(rows), len(rows[0])
    i = rng.randrange(n)
    kind = rng.randrange(4)
    if kind == 0:
        rows[i] = ["0"] * d
    elif kind == 1:
        rows.insert(i, rows[i])
        n += 1
    elif kind == 2:
        rows[i][rng.randrange(d)] = rng.choice(["x", "1/0", "--1", "1.5.2"])
    else:
        rows[i] = rows[i][:-1] if rng.random() < 0.5 else rows[i] + ["1"]
    return "\n".join([f"{n} {d}"] + [" ".join(r) for r in rows]) + "\n"


def mutated_covectors(name: str, rng: random.Random) -> str:
    """A corpus covector file with a line dropped or added, the signs of one
    column flipped on some lines, one column deleted, or a bad character."""
    lines = [v.to_str() for v in load(name).covectors]
    n = len(lines[0])
    e = rng.randrange(n)
    kind = rng.randrange(5)
    if kind == 0:
        del lines[rng.randrange(len(lines))]
    elif kind == 1:
        lines.append("".join(rng.choice("+-0") for _ in range(n)))
    elif kind == 2:
        flip = {"+": "-", "-": "+", "0": "0"}
        for r in range(len(lines)):
            if rng.random() < 0.5:
                lines[r] = lines[r][:e] + flip[lines[r][e]] + lines[r][e + 1:]
    elif kind == 3:
        lines = [line[:e] + line[e + 1:] for line in lines]
    else:
        r = rng.randrange(len(lines))
        lines[r] = lines[r][:e] + rng.choice("x*1 ") + lines[r][e + 1:]
    rng.shuffle(lines)
    return "\n".join(lines) + "\n"


def test_fuzzed_inputs_exit_cleanly(tmp_path, capsys):
    rng = random.Random(8)
    path = tmp_path / "fuzz.txt"
    codes = set()
    for _ in range(60):
        name = rng.choice(["u11", "u22", "u23", "u34"])
        make = rng.choice([mutated_arrangement, mutated_covectors])
        path.write_text(make(name, rng))
        for argv in (["describe", str(path)], ["verify", str(path), "all"]):
            code = cli.main(argv)
            assert code in (0, 1, 2), (argv, path.read_text())
            codes.add(code)
    capsys.readouterr()
    assert {0, 2} <= codes
