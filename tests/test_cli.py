import builtins
import json
import os
import shutil
import resource
import subprocess
import sys
from pathlib import Path

import pytest

import paircodes
from paircodes import __version__, cli, galois
from paircodes.cli import main
from paircodes.theory import min_pair_distance_field

FIELD_RING = ["--p", "3", "--s", "1", "--n", "2", "--alpha0", "2"]
CHAIN_B0 = ["--p", "3", "--s", "2", "--n", "1", "--alpha0", "1", "--beta", "0"]


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(argv, capsys):
    code, out, err = run_cli(argv, capsys)
    return code, json.loads(out), err


def test_envelope_shape(capsys):
    code, doc, _ = run_json(["field-info", "--p", "3"], capsys)
    assert code == 0
    assert set(doc) == {"config", "results", "version"}
    assert doc["version"] == __version__
    assert isinstance(doc["results"], list)


def test_field_info_gf9(capsys):
    code, doc, _ = run_json(["field-info", "--p", "3", "--m", "2"], capsys)
    assert code == 0
    row = doc["results"][0]
    assert row["q"] == 9
    assert row["modulus"] == [1, 0, 1]
    assert len(row["primitive_elements"]) == 4           # phi(8)
    assert len(row["irreducible_binomial_constants"]) == 8   # n=1: all nonzero


def test_field_info_binomial_constants_gf5_n4(capsys):
    code, doc, _ = run_json(["field-info", "--p", "5", "--n", "4"], capsys)
    assert code == 0
    assert doc["results"][0]["irreducible_binomial_constants"] == ["2", "3"]


def test_check_binomial(capsys):
    code, doc, _ = run_json(
        ["check-binomial", "--p", "3", "--n", "2", "--alpha0", "2"], capsys)
    assert code == 0
    assert doc["results"][0] == {"irreducible": True, "order": 2}
    code, doc, _ = run_json(
        ["check-binomial", "--p", "3", "--n", "2", "--alpha0", "1"], capsys)
    assert code == 0
    assert doc["results"][0]["irreducible"] is False


def test_build_code(capsys):
    code, doc, _ = run_json(
        ["build-code", *FIELD_RING, "--spec", "field-power:i=1"], capsys)
    assert code == 0
    row = doc["results"][0]
    assert row["spec"] == "field-power:i=1"
    assert row["dim_p"] == row["log_size"] == 4
    assert row["size"] == 81
    assert "x^2" in row["generator"]
    assert doc["config"]["N"] == 6 and doc["config"]["beta"] is None


def test_distance_both_matches(capsys):
    code, doc, _ = run_json(
        ["distance", *FIELD_RING, "--spec", "field-power:i=2"], capsys)
    assert code == 0
    row = doc["results"][0]
    assert row["match"] is True
    assert row["formula"]["d_sp"] == 6
    assert row["brute"]["d_sp"] == 6
    assert row["brute"]["method"] == "exhaustive"
    assert row["formula"]["branch"] == "n>=2"


def test_distance_chain_counterexample(capsys):
    code, doc, _ = run_json(
        ["distance", *CHAIN_B0, "--spec", "type2:j=7,k=1,b=1"], capsys)
    assert code == 0
    row = doc["results"][0]
    assert row["match"] is True and row["formula"]["d_sp"] == 4


def test_distance_both_mismatch_exits_3(monkeypatch, capsys):
    # A closed form one above the enumerated distance: the envelope still
    # shows both blocks, and the error line names the mismatch.
    real = cli.min_pair_distance
    monkeypatch.setattr(cli, "min_pair_distance",
                        lambda ring, spec: real(ring, spec) + 1)
    code, out, err = run_cli(
        ["distance", *FIELD_RING, "--spec", "field-power:i=2"], capsys)
    assert code == 3
    row = json.loads(out)["results"][0]
    assert row["match"] is False
    assert row["formula"]["d_sp"] == 7 and row["brute"]["d_sp"] == 6
    assert row["brute"]["method"] == "exhaustive"
    lines = err.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"]["type"] == "VerificationMismatch"


CHAIN_B1 = ["--p", "3", "--s", "2", "--n", "1", "--alpha0", "1", "--beta", "1"]


@pytest.mark.parametrize("ring,spec,n,p,s,e1", [
    (FIELD_RING, "field-power:i=2", 2, 3, 1, 2),
    (CHAIN_B1, "chain:i=12", 1, 3, 2, 3),
    (CHAIN_B0, "type2:j=7,k=1,b=1", 1, 3, 2, 3),
    (CHAIN_B0, "type3:j=5,k=2,t=4,b=1", 1, 3, 2, 3),
    (CHAIN_B0, "type3:j=5,k=2,t=4,b=0", 1, 3, 2, 2),
])
def test_distance_formula_reports_its_branch(ring, spec, n, p, s, e1, capsys):
    # A chain code has the pair distance of the field code <(x^n-a0)^e1>,
    # so it reports that code's branch.
    code, doc, _ = run_json(
        ["distance", *ring, "--spec", spec, "--method", "formula"], capsys)
    assert code == 0
    d_sp, branch = min_pair_distance_field(n, p, s, e1)
    assert doc["results"][0]["formula"] == {
        "branch": branch, "d_sp": d_sp, "method": "closed-form"}


def test_distance_brute_over_budget_degrades(capsys):
    code, doc, _ = run_json(
        ["distance", *FIELD_RING, "--spec", "field-power:i=0",
         "--method", "brute", "--budget", "100"], capsys)
    assert code == 0
    row = doc["results"][0]["brute"]
    assert row["method"] == "upper-bound"
    assert "warning" in row


def test_distance_both_over_budget_refuses(capsys):
    code, out, err = run_cli(
        ["distance", *FIELD_RING, "--spec", "field-power:i=0",
         "--budget", "100"], capsys)
    assert code == 4
    assert json.loads(err)["error"]["type"] == "BudgetExceeded"


def test_distance_both_refuses_over_budget_before_building(monkeypatch,
                                                           capsys):
    # The closed form fixes the code's size, so an over-budget request is
    # refused before the code is built or scanned (--method brute still
    # builds it: test_distance_brute_over_budget_degrades).
    ring = ["--p", "2", "--n", "1", "--alpha0", "1",
            "--spec", "field-power:i=1"]
    built = []
    monkeypatch.setattr(cli, "build_code", lambda *a: built.append(a))
    for s, size in (("10", str(2 ** 1023)), ("40", "2^1099511627775")):
        code, out, err = run_cli(["distance", *ring, "--s", s], capsys)
        assert (code, out) == (4, "")
        assert json.loads(err) == {"error": {
            "type": "BudgetExceeded",
            "message": f"{size} codewords exceed --budget {1 << 21}; "
                       "cannot verify the closed form exactly"}}
    assert built == []
    monkeypatch.undo()
    # 3^6 words: a budget of 729 is exact, 728 is one word short.
    code, doc, _ = run_json(["distance", *FIELD_RING, "--spec",
                             "field-power:i=0", "--budget", "729"], capsys)
    assert code == 0 and doc["results"][0]["match"] is True
    code, _, err = run_cli(["distance", *FIELD_RING, "--spec",
                            "field-power:i=0", "--budget", "728"], capsys)
    assert code == 4
    assert json.loads(err)["error"]["message"].startswith(
        "729 codewords exceed --budget 728;")


def test_field_info_over_the_ceiling_exits_2(monkeypatch, capsys):
    # Neither the primality test nor a table runs; see test_galois.
    monkeypatch.setattr(galois, "prime_factors", None)
    monkeypatch.setattr(galois.Field, "_build_logs", None)
    for argv in (["--p", "2", "--m", "24"],
                 ["--p", "2305843009213693951", "--m", "1"]):
        code, out, err = run_cli(["field-info", *argv], capsys)
        assert (code, out) == (2, "")
        assert json.loads(err)["error"]["type"] == "InvalidValue"


def test_scan_consistency(capsys):
    code, doc, _ = run_json(["scan", "consistency", *FIELD_RING], capsys)
    assert code == 0
    rep = doc["results"][0]
    assert rep["ok"] is True
    assert rep["checked"] == 4 and rep["skipped_over_budget"] == 0
    sp = {e["spec"]: e for e in rep["entries"]}
    assert sp["field-power:i=1"]["formula_pair"] == 4
    assert sp["field-power:i=1"]["oracle_pair"] == 4


def test_scan_mds(capsys):
    code, doc, _ = run_json(["scan", "mds", *FIELD_RING], capsys)
    assert code == 0
    by_spec = {r["spec"]: r for r in doc["results"]}
    assert by_spec["field-power:i=1"]["is_mds"] is True
    assert by_spec["field-power:i=1"]["singleton_defect"] == 0
    assert by_spec["field-power:i=2"]["d_sp"] == 6
    assert by_spec["field-power:i=3"]["is_mds"] is False
    assert by_spec["field-power:i=0"]["trivial"] is True


def test_tables_markdown(capsys):
    code, out, _ = run_cli(["tables", *FIELD_RING], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "| generator | size | pair distance | remark |"
    body = lines[2:]
    assert len(body) == 2
    assert "| 3^4 | 4 |" in body[0]
    assert "| 3^2 | 6 |" in body[1]


def test_tables_csv(capsys):
    code, out, _ = run_cli(["tables", *FIELD_RING, "--format", "csv"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "generator,size,pair_distance,remark"
    assert len(lines) == 3


def test_tables_json_chain(capsys):
    code, doc, _ = run_json(
        ["tables", *CHAIN_B0, "--format", "json"], capsys)
    assert code == 0
    assert doc["results"], "chain ring should contribute MDS rows"
    for row in doc["results"]:
        assert set(row) == {"generator", "size", "pair_distance", "remark"}
        assert row["size"].startswith("3^")


def test_tables_deterministic_across_runs(capsys):
    _, out1, _ = run_cli(
        ["tables", *CHAIN_B0, "--format", "json", "--seed", "7"], capsys)
    _, out2, _ = run_cli(
        ["tables", *CHAIN_B0, "--format", "json", "--seed", "7"], capsys)
    assert out1 == out2


@pytest.mark.parametrize("fmt", ["json", "md"])
def test_tables_depend_only_on_the_ring(fmt, capsys):
    # One row per generator text, which does not show b, so the units the
    # seed draws never reach the output.
    outs = [run_cli(["tables", *CHAIN_B0, "--format", fmt, "--seed", seed],
                    capsys) for seed in ("1", "2")]
    assert outs[0][0] == 0 and outs[0][1]
    assert outs[0] == outs[1]


@pytest.mark.parametrize("argv", [
    ["--version"],
    ["--help"],
    ["tables", "--p", "3"],                    # usage error: missing options
    ["field-info", "--p", "4"],                # PairCodeError: NotPrime
])
def test_same_request_twice_in_one_process(argv, capsys):
    def once():
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    first = once()
    assert first[0] in (0, 2) and first[1] + first[2]
    assert once() == first
    assert cli.make_parser() is cli.make_parser()


def test_warm_parser_and_ring_give_the_same_output(monkeypatch, capsys):
    # A ring memoizes facts about each b; a stale or crossed memo would
    # change these outputs when the ring is reused.
    def requests(seed):
        return [["scan", "mds", *CHAIN_B0, "--seed", seed],
                ["tables", *CHAIN_B0, "--format", "json", "--seed", seed]]

    cli.make_parser.cache_clear()
    fresh = [run_cli(argv, capsys) for argv in requests("5")]
    ring = cli._ring_from(cli.make_parser().parse_args(requests("5")[0]))
    monkeypatch.setattr(cli, "_ring_from", lambda args: ring)
    for argv in requests("6"):                 # other units warm the memos
        run_cli(argv, capsys)
    for _ in range(2):
        assert [run_cli(argv, capsys) for argv in requests("5")] == fresh


def test_out_file(tmp_path, capsys):
    target = tmp_path / "info.json"
    code, out, _ = run_cli(
        ["field-info", "--p", "2", "--out", str(target)], capsys)
    assert code == 0
    assert out == ""
    doc = json.loads(target.read_text())
    assert doc["results"][0]["q"] == 2


@pytest.mark.parametrize("missing", [True, False])
def test_out_to_an_unwritable_path_exits_2(missing, tmp_path, capsys):
    # A missing directory, or a path that is a directory.
    target = tmp_path / "nowhere" / "info.json" if missing else tmp_path
    code, out, err = run_cli(
        ["field-info", "--p", "2", "--out", str(target)], capsys)
    assert code == 2 and out == ""
    assert err.count("\n") == 1
    error = json.loads(err)["error"]
    assert issubclass(getattr(builtins, error["type"]), OSError)
    assert str(target) in error["message"]


@pytest.mark.parametrize("argv,errtype", [
    (["field-info", "--p", "4"], "NotPrime"),
    (["build-code", "--p", "3", "--s", "1", "--n", "2", "--alpha0", "1",
      "--spec", "field-power:i=1"], "ConstructionRefused"),
    (["field-info", "--p", "2", "--m", "2", "--modulus", "1,0,1"],
     "ReducibleModulus"),
    (["build-code", *FIELD_RING, "--spec", "field-power:i=9"],
     "ConstraintViolation"),
    (["build-code", *FIELD_RING, "--spec", "nonsense:i=1"],
     "ConstraintViolation"),
    (["build-code", *FIELD_RING, "--spec", "type1:k=1"], "BetaMismatch"),
    (["build-code", "--p", "3", "--s", "1", "--n", "3", "--alpha0", "2",
      "--spec", "field-power:i=1"], "ConstructionRefused"),
    # wrong in two ways (b = 2 + x vanishes at alpha0 = 1, beta != 0): the
    # record refuses b before the ring is consulted
    (["build-code", "--p", "3", "--s", "2", "--n", "1", "--alpha0", "1",
      "--beta", "1", "--spec", "type2:j=7,k=1,b=2,1"], "NotUnitNorZero"),
])
def test_refusals_exit_2(argv, errtype, capsys):
    code, out, err = run_cli(argv, capsys)
    assert code == 2
    assert json.loads(err)["error"]["type"] == errtype


def _ring(alpha0="2", *extra):
    return ["--p", "3", "--s", "1", "--n", "2", "--alpha0", alpha0, *extra]


# Spec texts with a key unknown to the family or given twice, or with a
# trailing comma.
KEY_REPROS = [
    (FIELD_RING, "field-power:i=2,zz=5"),
    (CHAIN_B0, "type1:k=2,k=3"),
    (CHAIN_B0, "type2:j=7,k=1,t=4,b=1"),
    (FIELD_RING, "field-power:i=1,"),
    (CHAIN_B0, "type1:k=1,"),
]


@pytest.mark.parametrize("argv", [
    ["distance", *FIELD_RING, "--spec", "field-power:i=x"],
    ["distance", *FIELD_RING, "--spec", "field-power:i=1.5"],
    ["distance", *FIELD_RING, "--spec", "field-power:i="],
    ["distance", *_ring("abc"), "--spec", "field-power:i=1"],
    ["distance", *_ring("0x1"), "--spec", "field-power:i=1"],
    ["distance", *_ring("7"), "--spec", "field-power:i=1"],
    ["distance", *_ring("-2"), "--spec", "field-power:i=1"],
    ["build-code", *_ring("2", "--beta", "abc"), "--spec", "chain:i=1"],
    ["build-code", *_ring("2", "--beta", "3"), "--spec", "chain:i=1"],
    ["build-code", *CHAIN_B0, "--spec", "type2:j=7,k=1,b=4"],
    ["field-info", "--p", "2", "--modulus", "3,1"],
    ["field-info", "--p", "2", "--modulus", "1,abc"],
    ["field-info", "--p", "3", "--n", "0"],
    *[["distance", *FIELD_RING, "--spec", "field-power:i=1",
       "--method", "brute", "--budget", b] for b in ("0", "-1", "-4096")],
    # every budget below 1 is refused, also where no enumeration runs
    ["distance", *FIELD_RING, "--spec", "field-power:i=1",
     "--method", "formula", "--budget", "-5"],
    ["scan", "consistency", *FIELD_RING, "--budget", "0"],
    *[["build-code", *ring, "--spec", spec]
      for ring, spec in KEY_REPROS],
])
def test_malformed_input_exits_2(argv, capsys):
    code, out, err = run_cli(argv, capsys)
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1
    expected = ("ConstraintViolation"
                if argv[-1] in [spec for _, spec in KEY_REPROS]
                else "InvalidValue")
    assert json.loads(err)["error"]["type"] == expected


@pytest.mark.parametrize("budget", ["0", "5"])
def test_scan_mds_takes_no_budget(budget, capsys):
    # The MDS sweep enumerates no codeword, so it has no budget to take.
    with pytest.raises(SystemExit) as exc:
        main(["scan", "mds", *FIELD_RING, "--budget", budget])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"unrecognized arguments: --budget {budget}" in err


# Subprocesses import the same paircodes tree as this process, whatever the
# caller's environment holds (a stale installed copy, no PYTHONPATH=src).
TREE_ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [
    str(Path(paircodes.__file__).resolve().parent.parent),
    os.environ.get("PYTHONPATH")]))}

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

# What the console-script wrapper generated by pip/setuptools does: import the
# entry point's module, then exit with what its callable returns.
CONSOLE_WRAPPER = """\
import sys
from importlib.metadata import EntryPoint
sys.argv[0] = {name!r}
sys.exit(EntryPoint({name!r}, {value!r}, "console_scripts").load()())
"""


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "paircodes.cli", "--version"],
        capture_output=True, text=True, env=TREE_ENV)
    assert proc.returncode == 0
    assert proc.stdout.strip() == __version__


def test_installed_script(capsys):
    tomllib = pytest.importorskip("tomllib")
    with PYPROJECT.open("rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["paircodes"]
    argv = ["check-binomial", "--p", "2", "--m", "2", "--n", "3",
            "--alpha0", "0,1"]
    code, expected, _ = run_cli(argv, capsys)
    assert code == 0
    # x^3 - w over GF(4): ord(w) = 3, 3 | 3 and 3 does not divide (4-1)/3.
    assert json.loads(expected)["results"] == [
        {"irreducible": True, "order": 3}]

    commands = [[sys.executable, "-c",
                 CONSOLE_WRAPPER.format(name="paircodes", value=target)]]
    installed = shutil.which("paircodes")
    if installed is not None:
        commands.append([installed])
    for command in commands:
        proc = subprocess.run(command + argv, capture_output=True, text=True,
                              env=TREE_ENV)
        assert proc.returncode == 0, (command, proc.stderr)
        assert proc.stdout == expected, command



def test_a_ring_over_the_column_ceiling_is_refused_before_any_work():
    # N = 2^40 positions: refused before a generator is written down.  The
    # child's address space is capped, so a build that did start would end
    # in a MemoryError, not take the machine's memory.
    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 31, 1 << 31))

    ring = ["--p", "2", "--s", "40", "--n", "1", "--alpha0", "1",
            "--spec", "field-power:i=1"]
    for argv in (["build-code", *ring],
                 ["distance", *ring, "--method", "brute"]):
        proc = subprocess.run([sys.executable, "-m", "paircodes.cli", *argv],
                              capture_output=True, text=True, env=TREE_ENV,
                              preexec_fn=cap, timeout=60)
        assert (proc.returncode, proc.stdout) == (2, ""), proc.stderr
        assert json.loads(proc.stderr)["error"]["type"] == \
            "ConstructionRefused"


def test_a_ring_over_the_record_ceiling_is_refused_before_any_work():
    # 2^30 + 1 field records, and 4,194,305 Type2 (k, j) rows at s = 12,
    # four records each: refused before that key level is built.  The
    # child's address space is capped, so a level that was built would end
    # in a MemoryError, not take the machine's memory.
    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    ring = ["--p", "2", "--n", "1", "--alpha0", "1"]
    for argv in (["tables", *ring, "--s", "30"],
                 ["scan", "mds", *ring, "--s", "12", "--beta", "0"]):
        proc = subprocess.run([sys.executable, "-m", "paircodes.cli", *argv],
                              capture_output=True, text=True, env=TREE_ENV,
                              preexec_fn=cap, timeout=60)
        assert (proc.returncode, proc.stdout) == (2, ""), proc.stderr
        assert json.loads(proc.stderr)["error"]["type"] == \
            "ConstructionRefused"
