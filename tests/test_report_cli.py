import gc
import hashlib
import itertools
import json
import os
import re
import subprocess
import sys
import weakref
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from cgv import cli
from cgv.cli import main
from cgv.reportlib import (CONFIRMED, INDETERMINATE, REFUTED, CheckReport, make_check,
                           render_json, render_text, summarize)
from cgv.claims import Claim
from cgv.nf import NFElem
from cgv.parsing import parse_poly
from cgv.suites import SUITE_NAMES, run_suite

from conftest import count_calls, run_config


def test_make_check_agreement_rules():
    c = make_check("x", "4", Claim("4", "quote"))
    assert c.agreement == CONFIRMED
    c = make_check("x", "5", Claim("4", "quote"))
    assert c.agreement == REFUTED
    c = make_check("x", "4", None)
    assert c.agreement == INDETERMINATE
    c = make_check("x", "4", Claim(None, "quote"))
    assert c.agreement == INDETERMINATE
    c = make_check("x", "4", Claim("4", "quote"), ambiguous=True)
    assert c.agreement == INDETERMINATE


def test_config_validation():
    with pytest.raises(ValueError):
        run_config(survey=0)
    with pytest.raises(ValueError):
        run_config(bound=0)
    with pytest.raises(ValueError):
        run_config(m_expr="X + 1")
    cfg = run_config(m_expr="r^2")
    assert cfg.m_value == NFElem(0, 0, 1)


def test_reports_byte_identical():
    cfg = run_config(m_expr="1")
    for name in ("sigma", "divisors", "base-locus"):
        a = render_text(name, cfg, run_suite(name, cfg))
        b = render_text(name, cfg, run_suite(name, cfg))
        assert a == b
        ja = render_json(name, cfg, run_suite(name, cfg))
        jb = render_json(name, cfg, run_suite(name, cfg))
        assert ja == jb


def test_json_roundtrip_and_schema():
    cfg = run_config()
    checks = run_suite("divisors", cfg)
    text = render_json("divisors", cfg, checks)
    doc = json.loads(text)
    assert doc["suite"] == "divisors"
    assert set(doc["config"]) == {"m", "seed", "survey", "bound"}
    assert doc["config"]["seed"] == "1"
    for entry in doc["checks"]:
        assert set(entry) == {"check-id", "computed", "paper-claim", "agreement", "notes", "elapsed"}
        assert entry["elapsed"] == "0"
        assert entry["agreement"] in (CONFIRMED, REFUTED, INDETERMINATE)
    assert set(doc["summary"]) == {"confirmed", "refuted", "indeterminate", "errors"}
    for v in doc["summary"].values():
        assert isinstance(v, str)
    # round trip: serialize the parsed document again
    assert json.loads(json.dumps(doc)) == doc


def dumped_report(suite, config, checks):
    """Dual route for render_json: the report document built as a dict and
    printed by the json module's indent=2 encoder."""
    def check_doc(c):
        claim = None
        if c.claim_value is not None or c.citation is not None:
            claim = {"value": c.claim_value, "citation": c.citation}
        return {"check-id": c.check_id, "computed": c.computed, "paper-claim": claim,
                "agreement": c.agreement, "notes": list(c.notes), "elapsed": "0"}
    doc = {
        "suite": suite,
        "config": {"m": config.m_expr, "seed": str(config.seed),
                   "survey": str(config.survey), "bound": str(config.bound)},
        "checks": [check_doc(c) for c in checks],
        "summary": {k: str(v) for k, v in summarize(checks).items()},
    }
    return json.dumps(doc, indent=2) + "\n"


# any text, with lone surrogates, quotes, backslashes and control characters drawn often
texts = st.text(st.one_of(st.characters(), st.characters(categories=["Cs"]),
                          st.sampled_from('"\\\x00\x1f\x7f\u2028')))
claims = st.one_of(st.just((None, None)), st.tuples(texts, st.none()),
                   st.tuples(st.none(), texts), st.tuples(texts, texts))
reports = st.builds(
    lambda check_id, computed, claim, agreement, notes, error: CheckReport(
        check_id, computed, *claim, agreement, tuple(notes), error),
    texts, texts, claims, st.sampled_from([CONFIRMED, REFUTED, INDETERMINATE]),
    st.lists(texts, max_size=3), st.booleans())


@settings(max_examples=150, deadline=None)
@given(texts, st.one_of(st.none(), texts), st.integers(0, 2**64 - 1), st.integers(1, 10**6),
       st.integers(1, 10**6), st.lists(reports, max_size=4))
@example("all", None, 1, 100, 5, [])
def test_render_json_bytes_match_the_json_module(suite, m_expr, seed, survey, bound, checks):
    config = run_config(seed=seed, survey=survey, bound=bound)
    config.m_expr = m_expr   # any text: the writer does not parse m
    assert render_json(suite, config, checks) == dumped_report(suite, config, checks)


def test_summary_counts():
    checks = [
        make_check("a", "1", Claim("1", "q")),
        make_check("b", "2", Claim("1", "q")),
        make_check("c", "3"),
    ]
    s = summarize(checks)
    assert s == {"confirmed": 1, "refuted": 1, "indeterminate": 1, "errors": 0}


def test_divisor_suite_confirms_the_four_multiplicities():
    checks = run_suite("divisors", run_config())
    mult_checks = [c for c in checks if c.check_id.startswith("divisors/exceptional-multiplicity/")]
    assert len(mult_checks) == 4
    assert all(c.agreement == CONFIRMED for c in mult_checks)


def test_divisor_suite_computes_each_multiplicity_once(monkeypatch):
    # the multiplicity checks, the nK decompositions and the sign convention share them
    from cgv import divisors
    calls = count_calls(monkeypatch, "exceptional_multiplicity", divisors)
    run_suite("divisors", run_config())
    assert calls == [(1,), (2,), (3,), (5,)]


def test_a_failed_divisor_identity_is_an_error(monkeypatch, capsys):
    from cgv import divisors
    real = divisors.exceptional_multiplicity
    monkeypatch.setattr(divisors, "exceptional_multiplicity", lambda n: -2 if n == 3 else real(n))
    checks = run_suite("divisors", run_config())
    failed = [c for c in checks if c.check_id == "divisors/nK-decomposition/n=3"]
    assert len(failed) == 1 and failed[0].error
    assert summarize(checks)["errors"] == 1
    assert main(["check", "divisors"]) == 1
    capsys.readouterr()


def test_unknown_suite_rejected():
    with pytest.raises(KeyError):
        run_suite("nonsense", run_config())


def test_every_claimed_check_carries_a_citation():
    cfg = run_config(m_expr="1", survey=5)
    for c in run_suite("all", cfg):
        if c.claim_value is not None:
            assert c.citation


def test_full_json_roundtrip():
    cfg = run_config(m_expr="1", survey=5)
    checks = run_suite("all", cfg)
    doc = json.loads(render_json("all", cfg, checks))
    assert len(doc["checks"]) == len(checks)
    assert doc["config"]["m"] == "1"
    assert json.loads(json.dumps(doc)) == doc


def test_cli_evalves(capsys):
    assert main(["eval", "r^3 + r^2"]) == 0
    assert capsys.readouterr().out.strip() == "1"
    assert main(["eval", "9*r^6-12*r^5+4*r^4+6*r^3+11*r^2-25*r+10"]) == 0
    assert capsys.readouterr().out.strip() == "0"
    assert main(["eval", "(3*r-2)*(r+1)"]) == 0
    assert capsys.readouterr().out.strip() == "-2 + r + 3*r^2"
    assert main(["eval", "X + 2*Y"]) == 0
    assert capsys.readouterr().out.strip() == "X + 2*Y"


@pytest.mark.parametrize("expr, printed", [
    ("-r*X", "-r*X"), ("-X+1", "-X + 1"), ("-1/2*r", "-1/2*r"), ("0-r*X", "-r*X")])
def test_cli_eval_reads_an_expression_starting_with_minus(expr, printed, capsys):
    # printing followed by parsing is the identity, also for a print that starts with "-"
    assert main(["eval", expr]) == 0
    assert capsys.readouterr().out == printed + "\n"
    assert main(["eval", printed]) == 0
    assert capsys.readouterr().out == printed + "\n"


LARGE = "(1/2*X - 2/3*r*Y + 3/4*m + (1-r)*Z - 5/7*T + r^2)^6*(X - 1/6*r^2*T + 2)^2"


def test_cli_eval_large_output_is_pinned(capsys):
    # 1,134 terms over Q(r) in all five variables, byte for byte, and
    # printing followed by parsing is the identity
    assert main(["eval", LARGE]) == 0
    out = capsys.readouterr().out
    assert len(out) == 50783
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "f160490ab521ebc3551eb7c65332667a82dd6a0f2ae99f61e8ce5ec250763255")
    assert len(parse_poly(out).terms) == 1134
    assert main(["eval", out.strip()]) == 0
    assert capsys.readouterr().out == out


def test_cli_eval_help(capsys):
    assert main(["eval", "-h"]) == 0
    assert capsys.readouterr().out.startswith("usage: cgv eval")


def test_cli_eval_error(capsys):
    assert main(["eval", "X + "]) == 2
    err = capsys.readouterr().err
    assert "offset 4" in err


def test_cli_usage_errors(capsys):
    assert main(["check", "no-such-suite"]) == 2
    capsys.readouterr()
    assert main(["check", "sigma", "--m", "X+1"]) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err


def test_cli_without_a_command_prints_the_usage(capsys):
    # a bare `cgv` names its commands on stderr and is a usage error
    assert main([]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "usage: cgv [-h] {check,eval} ...\n"


# (command line, exit code, stdout, stderr) of a usage error, a help text or a
# command line that argparse resolves; a report is pinned by its sha256.
# argparse's wording and wrapping vary between Python versions: these bytes are
# Python 3.11's at 80 columns, the version the benchmark runs on
CLI_USAGE_PINS = (
    ("", 2, "", "usage: cgv [-h] {check,eval} ...\n"),
    ("-h", 0,
     "usage: cgv [-h] {check,eval} ...\n"
     "\n"
     "Exact-arithmetic verification of the tricanonical-system and quotient-curve\n"
     "computations on the invariant quintic.\n"
     "\n"
     "positional arguments:\n"
     "  {check,eval}\n"
     "    check       run a named check suite\n"
     "    eval        evaluate a polynomial expression to canonical form\n"
     "\n"
     "options:\n"
     "  -h, --help    show this help message and exit\n",
     ""),
    ("bogus", 2, "",
     "usage: cgv [-h] {check,eval} ...\n"
     "cgv: error: argument command: invalid choice: 'bogus' (choose from 'check', 'eval')\n"),
    ("check", 2, "",
     "usage: cgv check [-h] [--m M_EXPR] [--seed SEED] [--survey SURVEY]\n"
     "                 [--bound BOUND] [--format {text,json}] [--out OUT]\n"
     "                 {sigma,cubics,base-locus,quadric-independence,tangent,divisors,genus,pencil,all}\n"
     "cgv check: error: the following arguments are required: suite\n"),
    ("check -h", 0,
     "usage: cgv check [-h] [--m M_EXPR] [--seed SEED] [--survey SURVEY]\n"
     "                 [--bound BOUND] [--format {text,json}] [--out OUT]\n"
     "                 {sigma,cubics,base-locus,quadric-independence,tangent,divisors,genus,pencil,all}\n"
     "\n"
     "positional arguments:\n"
     "  {sigma,cubics,base-locus,quadric-independence,tangent,divisors,genus,pencil,all}\n"
     "\n"
     "options:\n"
     "  -h, --help            show this help message and exit\n"
     "  --m M_EXPR            specialize the parameter m to an exact expression,\n"
     "                        e.g. 1 or r^2\n"
     "  --seed SEED           64-bit seed for the rank survey\n"
     "  --survey SURVEY       number of survey points\n"
     "  --bound BOUND         scan bound for the witness search\n"
     "  --format {text,json}\n"
     "  --out OUT             write the report to this path instead of stdout\n",
     ""),
    ("check all --bogus", 2, "",
     "usage: cgv [-h] {check,eval} ...\n"
     "cgv: error: unrecognized arguments: --bogus\n"),
    ("check genus --fo=json", 0,
     "sha256:b3e3b378856d6330614b9b0134c78e1240629d10b9a4a625a85d91e5d08249fa", ""),
    ("eval", 2, "",
     "usage: cgv eval [-h] expr\n"
     "cgv eval: error: the following arguments are required: expr\n"),
    ("eval X Y", 2, "",
     "usage: cgv [-h] {check,eval} ...\n"
     "cgv: error: unrecognized arguments: Y\n"),
    ("eval -- -X", 0, "-X\n", ""),
    ("check all --m -r --format json", 0,
     "sha256:2002651874585a16247d60fc2889faae1a83ee948e5ccea7c41451bf585ff1d7", ""),
)


def top_level_pass(argv, capsys):
    """(exit code, stdout, stderr) of argparse's top-level pass: the `cgv`
    parser reading the whole command line, a bare one answered with the usage
    as `main` answers it; None when the command line parses to a command."""
    parser, check_options, *_ = cli._build_parser()
    try:
        args = parser.parse_args(cli._shield_dash_values(argv, check_options))
    except SystemExit as exc:
        code = 0 if exc.code in (0, None) else 2
    else:
        if args.command is not None:
            return None
        parser.print_usage(sys.stderr)
        code = 2
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("line, code, out, err", CLI_USAGE_PINS, ids=[p[0] or "-" for p in CLI_USAGE_PINS])
def test_cli_usage_bytes_are_pinned(line, code, out, err, monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    argv = line.split()
    got_code = main(argv)
    got = capsys.readouterr()
    shown = "sha256:" + hashlib.sha256(got.out.encode()).hexdigest() if out.startswith("sha256:") else got.out
    reference = top_level_pass(argv, capsys)
    if reference is not None:
        # argparse answered: with the bytes of its own top-level pass
        assert (got_code, got.out, got.err) == reference
    if reference is None or sys.version_info[:2] == (3, 11):
        assert (got_code, shown, got.err) == (code, out, err)


def test_cli_check_runs_and_writes(tmp_path, capsys):
    out = tmp_path / "report.json"
    rc = main(["check", "divisors", "--format", "json", "--out", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["summary"]["errors"] == "0"
    rc = main(["check", "sigma"])
    assert rc == 0
    text = capsys.readouterr().out
    assert "suite: sigma" in text and "summary:" in text


def test_cli_full_run_deterministic(capsys):
    assert main(["check", "all", "--m", "1", "--seed", "3", "--survey", "10"]) == 0
    first = capsys.readouterr().out
    assert main(["check", "all", "--m", "1", "--seed", "3", "--survey", "10"]) == 0
    second = capsys.readouterr().out
    assert first == second
    assert "refuted" in first


def test_suite_names_stable():
    assert SUITE_NAMES == ("sigma", "cubics", "base-locus", "quadric-independence",
                           "tangent", "divisors", "genus", "pencil", "all")


@pytest.mark.parametrize("m", ["-r", "-2/3*r^2+5", "--1"])
def test_cli_accepts_m_starting_with_minus(m, capsys):
    assert main(["check", "base-locus", "--m", m, "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["config"]["m"] == m
    assert doc["summary"]["errors"] == "0"


def test_cli_m_without_value_is_a_usage_error(capsys):
    assert main(["check", "sigma", "--m"]) == 2
    assert "expected one argument" in capsys.readouterr().err


@pytest.mark.parametrize("rest", [["--format", "json"], ["--format=json"], ["--out", "report.txt"],
                                  ["--seed", "3"], ["--survey=10"], ["--bound", "2"],
                                  ["--m", "1"], ["-h"], ["--help"],
                                  # abbreviations, which argparse accepts
                                  ["--form", "json"], ["--se", "3"], ["--o", "report.txt"],
                                  ["--fo=json"], ["--he"]])
def test_cli_m_never_takes_an_option_as_its_value(rest, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(["check", "all", "--m", *rest]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "argument --m: expected one argument" in captured.err
    assert not (tmp_path / "report.txt").exists()


def test_cli_option_list_matches_the_check_parser(capsys):
    # every option string the check help shows is one `--m` leaves unglued
    assert main(["check", "--help"]) == 0
    shown = set(re.findall(r"(?<![\w-])--?[a-z]+", capsys.readouterr().out))
    assert shown == set(cli._build_parser()[1])


def test_cli_unwritable_out_is_a_configuration_error(tmp_path, capsys):
    out = tmp_path / "no-such-dir" / "report.txt"
    assert main(["check", "sigma", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and str(out) in err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert not out.exists()


def test_cli_empty_out_is_a_configuration_error(capsys):
    # an empty path is a path that cannot be written, not a request for stdout
    assert main(["check", "sigma", "--out", ""]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("configuration error: cannot write")
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err


@pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("argv", [["eval", "(X+Y)^2"], ["check", "sigma"], ["--help"]],
                         ids=["eval", "check", "help"])
def test_cli_into_a_closed_pipe_prints_no_traceback(argv, unbuffered):
    # stdout is the write end of a pipe whose read end is already closed, so
    # every write to it fails with EPIPE; the run says nothing on stderr,
    # also at the interpreter's final flush, and exits PIPE_EXIT
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1]),
           "PYTHONUNBUFFERED": unbuffered}
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        run = subprocess.run([sys.executable, "-m", "cgv.cli", *argv], stdout=write_end,
                             stderr=subprocess.PIPE, env=env, timeout=120)
    finally:
        os.close(write_end)
    assert run.stderr == b""
    if argv == ["--help"]:
        # argparse swallows a failed write of the help text, which fails
        # there only when stdout is unbuffered
        assert run.returncode == (0 if unbuffered else cli.PIPE_EXIT)
    else:
        assert run.returncode == cli.PIPE_EXIT


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full here")
@pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("argv", [["eval", "1"], ["check", "sigma"]], ids=["eval", "check"])
def test_cli_into_a_full_device_is_a_configuration_error(argv, unbuffered):
    # every write to /dev/full fails with ENOSPC; the run says so in one
    # stderr line, adds nothing at the interpreter's final flush, and exits 2
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1]),
           "PYTHONUNBUFFERED": unbuffered}
    with open("/dev/full", "wb") as full:
        run = subprocess.run([sys.executable, "-m", "cgv.cli", *argv], stdout=full,
                             stderr=subprocess.PIPE, env=env, timeout=120)
    err = run.stderr.decode()
    assert run.returncode == cli.USAGE_EXIT
    assert err.startswith("configuration error: cannot write standard output: ")
    assert err.count("\n") == 1 and err.endswith("\n")
    assert "Traceback" not in err and "Exception ignored" not in err


def _printed_checks(capsys):
    """The check blocks of the text report just printed, one string each."""
    body = capsys.readouterr().out.split("\n\n")[1]
    return re.split(r"\n(?=\[)", body)


def _raise(*args, **kwargs):
    raise ArithmeticError("injected")


@pytest.mark.parametrize("suite, target, total, kept", [
    ("tangent", "cgv.tangent.rank_survey", 9, 8),
    ("pencil", "cgv.genus.cubic_one_root_probe", 8, 6),
], ids=["tangent", "pencil"])
def test_a_raising_suite_keeps_the_checks_it_made(monkeypatch, capsys, suite, target, total, kept):
    assert main(["check", suite, "--m=1"]) == 0
    whole = _printed_checks(capsys)
    assert len(whole) == total
    monkeypatch.setattr(target, _raise)
    assert main(["check", suite, "--m=1"]) == 1
    broken = _printed_checks(capsys)
    assert broken[:kept] == whole[:kept]
    assert len(broken) == kept + 1
    assert broken[kept].startswith(f"[indeterminate] {suite}/suite\n"
                                   "    computed : internal error: ArithmeticError: injected")


DEEP = "(" * 300 + "1" + ")" * 300


def test_cli_eval_deep_nesting_is_a_parse_error(capsys):
    assert main(["eval", DEEP]) == 2
    err = capsys.readouterr().err
    assert err.startswith("parse error: at offset ") and "nesting too deep" in err
    assert err.count("\n") == 1 and "Traceback" not in err


def test_cli_check_deep_nesting_is_a_configuration_error(capsys):
    assert main(["check", "sigma", "--m", DEEP]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: at offset ") and "nesting too deep" in err
    assert err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize("expr", ["\u00b2", "X^\u00b2", "\u0663"])
def test_cli_eval_non_ascii_digit_is_a_parse_error(expr, capsys):
    assert main(["eval", expr]) == 2
    err = capsys.readouterr().err
    assert err.startswith("parse error: at offset ")
    assert err.count("\n") == 1 and "Traceback" not in err


def test_cli_check_non_ascii_digit_m_is_a_configuration_error(capsys):
    # ARABIC-INDIC DIGIT THREE must not be read as m = 3
    assert main(["check", "sigma", "--m", "\u0663"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("configuration error: at offset 0")
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err


def test_cli_reused_parser_behaves_as_a_fresh_one(capsys):
    assert main(["eval", "r^3 + r^2"]) == 0
    capsys.readouterr()
    assert cli._build_parser() is cli._build_parser()
    # a usage error after a successful call goes to this test's stderr
    assert main(["check", "no-such-suite"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "invalid choice" in captured.err
    assert "Traceback" not in captured.err
    for _ in range(2):
        assert main(["check", "sigma", "--m", "-r", "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["config"]["m"] == "-r"
    # no value from the previous call carries over
    assert main(["check", "sigma", "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["config"]["m"] != "-r"
    assert main(["eval", "(3*r-2)*(r+1)"]) == 0
    assert capsys.readouterr().out == "-2 + r + 3*r^2\n"


@pytest.fixture
def int_digit_limit():
    """Restore the int <-> str digit limit of the process, which `main` lifts."""
    get_limit = getattr(sys, "get_int_max_str_digits", None)
    saved = get_limit() if get_limit is not None else None
    yield
    if saved is not None:
        sys.set_int_max_str_digits(saved)


def test_cli_eval_prints_integers_past_the_digit_limit(int_digit_limit, capsys):
    assert main(["eval", "2^20000"]) == 0
    out = capsys.readouterr().out
    assert len(out) == 6021 + 1 and int(out) == 1 << 20000
    assert main(["eval", out.strip()]) == 0
    assert capsys.readouterr().out == out


def test_cli_check_accepts_m_past_the_digit_limit(int_digit_limit, capsys):
    m = "9" * 4400
    assert main(["check", "sigma", "--format", "json", "--m", m]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["config"]["m"] == m and doc["summary"]["errors"] == "0"


def test_check_all_computes_quadric_independence_once(monkeypatch):
    import cgv.baselocus as baselocus
    calls = count_calls(monkeypatch, "matrix_rank", baselocus)
    run_suite("all", run_config(m_expr="1", survey=5))
    assert len(calls) == 1


def test_family_verified_once_and_fresh_per_run(monkeypatch):
    import cgv.baselocus as baselocus
    import cgv.claims as claims
    import cgv.geometry as geometry
    import cgv.suites as suites
    geometry._verified_family.cache_clear()
    # geometry reads the printed quadrics through `claims.parse_display`
    parses = count_calls(monkeypatch, "parse_display", claims)
    ranks = count_calls(monkeypatch, "matrix_rank", baselocus)
    families = []
    real_build = suites.build_cubics

    def recorded_build():
        families.append(real_build())
        return families[-1]

    monkeypatch.setattr(suites, "build_cubics", recorded_build)
    for runs in (1, 2):
        run_suite("all", run_config(m_expr="1", survey=5))
        # results cached on the family last one run: the rank is computed again
        assert len(ranks) == runs
    assert sorted(text for text, in parses) == sorted(claims.QUADRIC_TEXTS)
    first, second = families
    assert first is not second
    assert all(a is b for a, b in zip(first.cubics + first.quadrics, second.cubics + second.quadrics))


def test_family_is_collected_after_its_run(monkeypatch):
    import cgv.suites as suites
    families = []
    real_build = suites.build_cubics
    monkeypatch.setattr(suites, "build_cubics", lambda: families.append(real_build()) or families[-1])
    run_suite("base-locus", run_config(m_expr="1"))
    # the quadric-independence result is cached on the family, not in the
    # process, so nothing holds the family once the run has returned
    family = weakref.ref(families.pop())
    gc.collect()
    assert family() is None


# the values the printed family alone determines: what the process keeps
STORE_KEYS = {"M", ("chart gradient", 0), ("chart gradient", 1), ("chart gradient", 2),
              "tangent determinant", "pencil on r", "quadrics on r"}
# m symbolic, 0, 1, r and the ledger's a, where the torus stratum has base points
STORE_M = (None, "0", "1", "r", "5/7 + 18/7*r + 8/7*r^2")


def _stored_polys(store):
    """The terms of each polynomial of each stored value, by key."""
    return {key: [dict(p.terms) for p in itertools.chain.from_iterable(
        e if isinstance(e, tuple) else (e,) for e in value)] for key, value in store.items()}


def test_check_all_keeps_a_fixed_set_of_values_per_process():
    from cgv.geometry import _verified_family
    _verified_family.cache_clear()
    assert set(_verified_family()._store) == {"M"}
    for m_expr in STORE_M:
        run_suite("all", run_config(m_expr=m_expr, survey=5))
        # a value with m fixed lasts its run, so the keys do not grow with m
        assert set(_verified_family()._store) == STORE_KEYS


def test_check_all_leaves_the_shared_polynomials_unchanged():
    import cgv.genus as genus
    import cgv.tangent as tangent
    from cgv.geometry import CubicFamily, _verified_family
    verified = _verified_family()
    cubics, quadrics = verified.cubics, verified.quadrics
    before = [dict(p.terms) for p in cubics + quadrics]
    run_suite("all", run_config(m_expr="1", survey=5))
    stored = dict(verified._store)
    stored_before = _stored_polys(stored)
    for m_expr in STORE_M:
        run_suite("all", run_config(m_expr=m_expr))
    assert _verified_family() is verified
    assert (verified.cubics, verified.quadrics) == (cubics, quadrics)
    assert [p.terms for p in cubics + quadrics] == before
    # each stored value is the same object with the same terms, and equals
    # the value that a family with a store of its own builds
    assert verified._store.keys() == stored.keys()
    assert all(verified._store[k] is v for k, v in stored.items())
    assert _stored_polys(verified._store) == stored_before
    own = CubicFamily(cubics, quadrics, verified.sigma_index_map)
    own.mixed_matrix, tangent.tangent_determinant(own), genus.pencil_factorization(own)
    assert own._store == stored


def test_check_all_builds_each_chart_gradient_row_once(monkeypatch):
    import cgv.tangent as tangent
    from cgv.geometry import _verified_family
    _verified_family.cache_clear()
    calls = count_calls(monkeypatch, "chart_gradient", tangent)
    # rows 0, 1, 2 of the run's symbolic family for the suite and, from a
    # cleared store, again to build D; the survey at m = 1 reads D alone, so
    # it builds no row with m fixed, and a second run reads D from the store
    for rows in ([0, 1, 2, 0, 1, 2], [0, 1, 2]):
        calls.clear()
        run_suite("all", run_config(m_expr="1", survey=5))
        assert [i for _, i in calls] == rows
        assert len({id(family) for family, _ in calls}) == 1


@pytest.mark.parametrize("m_expr, builds", [(None, 4), ("1", 8)])
def test_base_locus_builds_each_single_hyperplane_system_once(monkeypatch, m_expr, builds):
    import cgv.baselocus as baselocus
    import cgv.suites as suites
    calls = count_calls(monkeypatch, "single_hyperplane_system", suites, baselocus)
    run_suite("base-locus", run_config(m_expr=m_expr))
    # one system per hyperplane for the matrix and determinant checks, and
    # one per kernel lift once m is fixed
    assert len(calls) == builds
    assert sorted(h for _, h in calls[:4]) == ["T", "X", "Y", "Z"]


def test_quadric_independence_entries_compared_with_the_display(monkeypatch):
    import cgv.suites as suites

    def entries_check():
        checks = run_suite("quadric-independence", run_config())
        return next(c for c in checks if c.check_id == "quadric-independence/entries")

    assert entries_check().agreement == CONFIRMED
    # alter one displayed entry: the computed XY coefficients must refute it
    altered = ("(r+1)*(3*r-2)", "3*r-2", "r^2*(3*r-2)", "-2*r^2-5*r+4")
    monkeypatch.setattr(suites, "PRINTED_CIRCULANT_ENTRIES", altered)
    check = entries_check()
    assert check.agreement == REFUTED
    assert check.computed == "a=-2 + r + 3*r^2, b=-2 + 3*r, c=3 - 5*r^2, d=5 - 5*r - 2*r^2"
    assert check.notes == ("the XY coefficients of Q0..Q3 differ from the displayed entries",)


def test_the_cubics_suite_refutes_a_cubic_off_its_cofactor(monkeypatch):
    import cgv.suites as suites
    from cgv.geometry import CubicFamily, build_cubics
    family = build_cubics()
    # C1 gains r*X^3 and the quadrics stay: C1 is no longer X*Q1, and it is r at [0:1:0:0]
    cubics = (family.cubics[0], family.cubics[1] + parse_poly("r*X^3")) + family.cubics[2:]
    monkeypatch.setattr(suites, "build_cubics",
                        lambda: CubicFamily(cubics, family.quadrics, family.sigma_index_map))
    checks = {c.check_id: c for c in run_suite("cubics", run_config())}
    for i in range(4):
        check = checks[f"cubics/factorization/C{i}"]
        assert check.computed == ("factorization fails" if i == 1 else "exact factorization")
        assert check.agreement == (REFUTED if i == 1 else CONFIRMED)
    vanishing = checks["cubics/reference-point-vanishing"]
    assert (vanishing.computed, vanishing.agreement) == ("vanishing fails", REFUTED)


def test_check_all_reads_every_claim(monkeypatch):
    import cgv.suites as suites
    from cgv.claims import CLAIMS
    calls = count_calls(monkeypatch, "claim", suites)
    run_suite("all", run_config(survey=5))
    # a registered claim that no check reads is unverified data
    assert set(CLAIMS) - {key for key, *_ in calls} == set()


@pytest.mark.parametrize("seed", ["-1", str(2 ** 64 + 1)])
def test_cli_seed_outside_64_bits_is_a_configuration_error(seed, capsys):
    # the survey's generator keeps 64 bits, so these seeds would alias 2^64 - 1 and 1
    assert main(["check", "sigma", "--seed", seed]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("configuration error: seed must be in [0, 2^64)")
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err


@pytest.mark.parametrize("m", ["1\n", "1\r", "1\r\n", "1\x85", "1\u2028", "1\x1c", "\n1", "1\n+ r"],
                         ids=repr)
def test_cli_m_with_a_line_break_is_a_configuration_error(m, capsys):
    # the parser skips these as white space, and the text report would print
    # m across two config lines
    assert main(["check", "divisors", "--m", m]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "configuration error: m must not contain a line break\n"
    # the empty string is still a parse error, and one line is still read
    assert main(["check", "divisors", "--m", ""]) == 2
    assert capsys.readouterr().err.startswith("configuration error: at offset 0")
    assert main(["check", "divisors", "--m", "1 \t"]) == 0
    assert "\nconfig: m=1 \t seed=1 survey=100 bound=5\n\n" in capsys.readouterr().out


def test_cli_largest_64_bit_seed_is_accepted(capsys):
    seed = str(2 ** 64 - 1)
    assert main(["check", "sigma", "--seed", seed]) == 0
    assert f"seed={seed} " in capsys.readouterr().out
