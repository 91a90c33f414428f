import hashlib
import json

import pytest
from click.testing import CliRunner

from ppcf.cli import main


def _run(*args, env=None):
    return CliRunner().invoke(main, list(args), env=env or {})


def test_parse_roundtrips_source():
    res = _run("parse", "let x = sample in x + x")
    assert res.exit_code == 0
    assert res.output.strip() == "let x = sample in x + x"


def test_parse_error_exit_code():
    res = _run("parse", "((")
    assert res.exit_code == 2
    assert "1:3" in res.output


def test_typecheck():
    res = _run("typecheck", "#bernoulli")
    assert res.exit_code == 0
    assert res.output.strip() == "real -> real"


def test_run_single():
    res = _run("run", "3 + 2")
    assert res.exit_code == 0
    assert res.output.strip() == "5.0"


def test_run_summary_deterministic_via_env_seed():
    a = _run("run", "sample", "--runs", "10", env={"PPCF_SEED": "9"})
    b = _run("run", "sample", "--runs", "10", "--seed", "1234", env={"PPCF_SEED": "9"})
    assert a.output == b.output


def test_run_summary_counts_stuck_runs():
    # a function of type real -> real is a normal form, but not a numeral
    res = _run("run", "(fun x : real -> fun y : real -> x + y) sample", "--runs", "5")
    assert res.exit_code == 0
    summary = json.loads(res.output)
    assert (summary["value_runs"], summary["exhausted_runs"], summary["stuck_runs"]) == (0, 0, 5)
    res = _run("run", "#observe([2,3]) sample", "--runs", "3", "--budget", "20")
    summary = json.loads(res.output)
    assert (summary["exhausted_runs"], summary["stuck_runs"]) == (3, 0)


def test_denote_default_reports_atoms():
    res = _run("denote", "3 + 2")
    data = json.loads(res.output)
    by_interval = {d["interval"]: d["mass"] for d in data}
    assert by_interval["{5}"] == 1.0
    assert by_interval["(-inf,5) + (5,inf)"] == 0.0


def test_denote_cdf_grid():
    res = _run("denote", "sample", "--cdf", "0:1:3")
    data = json.loads(res.output)
    assert [d["mass"] for d in data] == [0.0, 0.5, 1.0]


def test_denote_intervals_spec():
    res = _run("denote", "#bernoulli 0.3", "--intervals", "{0}; {1}")
    data = json.loads(res.output)
    assert [d["mass"] for d in data] == [0.7, 0.3]


def test_check_exit_codes():
    ok = _run("check", "3 + 2", "--intervals", "{5}", "--runs", "200")
    assert ok.exit_code == 0
    report = json.loads(ok.output)
    assert report["overall_pass"] is True

    # budget-starved observe: all runs exhaust, denotation keeps mass 0.5
    wrong = _run(
        "check", "#observe([0,0.5]) sample",
        "--intervals", "[0,0.25]", "--runs", "200", "--budget", "1",
    )
    assert wrong.exit_code == 1
    assert json.loads(wrong.output)["overall_pass"] is False


def test_check_csv():
    res = _run("check", "3 + 2", "--intervals", "{5}", "--runs", "150", "--format", "csv")
    assert res.output.splitlines()[0].startswith("interval,")


def test_stability_wpor_fails():
    res = _run("stability", "wpor", "--n", "1", "--grid", "4")
    assert res.exit_code == 1
    assert json.loads(res.output)["verdict"] == "fail"


def test_stability_expression():
    res = _run("stability", "x1 * x1", "--n", "2", "--grid", "4")
    assert res.exit_code == 0
    assert json.loads(res.output)["verdict"] == "pass"


def test_stability_fn_flag():
    res = _run("stability", "--fn", "x1 * x1", "--n", "2", "--grid", "4")
    assert res.exit_code == 0
    assert json.loads(res.output)["verdict"] == "pass"
    both = _run("stability", "wpor", "--fn", "x1")
    assert both.exit_code != 0


def test_file_input(tmp_path):
    path = tmp_path / "prog.ppcf"
    path.write_text("def two = 2;\ntwo + 3\n", encoding="utf-8")
    res = _run("typecheck", str(path))
    assert res.output.strip() == "real"
    res = _run("run", str(path))
    assert res.output.strip() == "5.0"


def test_stdin_input():
    res = CliRunner().invoke(main, ["run", "-"], input="1 + 1\n")
    assert res.exit_code == 0
    assert res.output.strip() == "2.0"



@pytest.mark.parametrize("args", [
    ["check", "1 +", "--intervals", "{0}"],
    ["check", "y", "--intervals", "{0}"],
    ["check", "sample", "--intervals", "[0,"],
    ["run", "1 +"],
    ["denote", "1 +"],
    ["stability", "--fn", "x1 + x2"],
    ["stability", "wpor", "--grid", "1"],
    ["stability", "wpor", "--n", "-1"],
    ["stability", "--fn", "x1", "--fn-arity", "0"],
    ["stability", "wpor", "--n", "1", "--grid", "4", "--slack", "nan"],
    ["stability", "wpor", "--n", "1", "--grid", "4", "--slack", "inf"],
    ["stability", "wpor", "--n", "1", "--grid", "4", "--slack", "-1"],
    ["check", "3+2", "--intervals", "{5}", "--runs", "0"],
    ["check", "3+2", "--intervals", "{5}", "--delta", "2"],
    ["run", "#expectation(0) (fun x : real -> x) sample"],
    ["check", "#expectation(0) (fun x : real -> x) sample", "--intervals", "{0}"],
    ["denote", "#expectation(0) (fun x : real -> x) sample"],
    ["parse", "#expectation(0) (fun x : real -> x) sample"],
    ["run", "3+2", "--budget", "-1"],
    ["run", "3+2", "--runs", "0"],
    ["run", "3+2", "--runs", "-2"],
    ["check", "3+2", "--intervals", "{5}", "--runs", "200", "--budget", "-1"],
])
def test_malformed_input_is_a_usage_error(args):
    res = _run(*args)
    assert res.exit_code == 2, res.output
    assert "Traceback" not in res.output


@pytest.mark.parametrize("args", [
    ["run", "sample"],
    ["check", "3+2", "--intervals", "{5}", "--runs", "200"],
])
def test_malformed_env_seed_is_a_usage_error(args):
    res = _run(*args, env={"PPCF_SEED": "abc"})
    assert res.exit_code == 2, res.output
    assert "PPCF_SEED" in res.output
    assert "Traceback" not in res.output


@pytest.mark.parametrize("expr", [
    "x1 + sample",
    "(fun y : real -> y) x1",
    "(fix (fun y : real -> y)) + x1",
])
def test_stability_rejects_nondeterministic_expressions(expr):
    res = _run("stability", "--fn", expr)
    assert res.exit_code == 2, res.output
    assert "deterministic" in res.output


# Pinned `ppcf stability` reports: a change to the enumeration or the
# difference sums must keep these bytes, violations and their order included.
_BILINEAR = "0.5 * x1 + 0.25 * x2 {} 0.75 * x1 * x2"
_GOLDEN_STABILITY = [
    (["wpor", "--n", "1", "--grid", "7"], 1,
     "70f0a2bf5206f0b8f9b71422442de8c4b148ef24e5bba553b5944db1bb7f2bdd"),
    (["wpor", "--n", "2", "--grid", "5"], 1,
     "ca9043d3bd1eed422a5239674dba516aa35dd3a88aae1453f18857a848d0705f"),
    (["--fn", _BILINEAR.format("+"), "--fn-arity", "2", "--n", "1", "--grid", "5"], 0,
     "7fc1f03f6ebb84d350fce2e8f1662f762edcd6b8cf497042baa413d24839d976"),
    (["--fn", _BILINEAR.format("-"), "--fn-arity", "2", "--n", "1", "--grid", "5"], 1,
     "fbcab7194d5f1bea26b2106ae74767c0e161160bd2578b68c410ceee21d5e45c"),
    (["poly", "--n", "2", "--grid", "8"], 0,
     "c2b6afe3f0c86784e5a71f4f3877cb75ed1ffecbe01450d1bfca451dc518bde6"),
    # the subsample path: n > 3, and k > 2
    (["identity", "--n", "4", "--grid", "8"], 0,
     "2ee41b35d1b91111c58f0abfdc8b79f10e9beb497fc31eeee28ec1e4e593f872"),
    (["--fn", "x1 + x2 + x3 - x1 * x2 * x3", "--fn-arity", "3", "--n", "1", "--grid", "4"], 1,
     "fb1127d07409d9d7baf03291c7f16df7f124a87822f33f3b4df6566069dc67ea"),
]


@pytest.mark.parametrize("args,code,digest", _GOLDEN_STABILITY,
                         ids=[" ".join(args) for args, _, _ in _GOLDEN_STABILITY])
def test_stability_report_is_byte_identical_to_golden(args, code, digest):
    res = _run("stability", *args)
    assert res.exit_code == code
    assert hashlib.sha256(res.output.encode()).hexdigest() == digest
