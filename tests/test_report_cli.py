import json
import sys

import pytest

from cgv import cli
from cgv.cli import main
from cgv.reportlib import (CONFIRMED, INDETERMINATE, REFUTED, RunConfig,
                           make_check, render_json,
                           render_text, summarize)
from cgv.claims import Claim
from cgv.suites import SUITE_NAMES, run_suite


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
        RunConfig(survey=0)
    with pytest.raises(ValueError):
        RunConfig(bound=0)
    with pytest.raises(ValueError):
        RunConfig(m_expr="X + 1")
    cfg = RunConfig(m_expr="r^2")
    assert cfg.m_value is not None and not cfg.m_defaulted()


def test_reports_byte_identical():
    cfg = RunConfig(m_expr="1")
    for name in ("sigma", "divisors", "base-locus"):
        a = render_text(name, cfg, run_suite(name, cfg))
        b = render_text(name, cfg, run_suite(name, cfg))
        assert a == b
        ja = render_json(name, cfg, run_suite(name, cfg))
        jb = render_json(name, cfg, run_suite(name, cfg))
        assert ja == jb


def test_json_roundtrip_and_schema():
    cfg = RunConfig()
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


def test_summary_counts():
    checks = [
        make_check("a", "1", Claim("1", "q")),
        make_check("b", "2", Claim("1", "q")),
        make_check("c", "3"),
    ]
    s = summarize(checks)
    assert s == {"confirmed": 1, "refuted": 1, "indeterminate": 1, "errors": 0}


def test_divisor_suite_confirms_the_four_multiplicities():
    checks = run_suite("divisors", RunConfig())
    mult_checks = [c for c in checks if c.check_id.startswith("divisors/exceptional-multiplicity/")]
    assert len(mult_checks) == 4
    assert all(c.agreement == CONFIRMED for c in mult_checks)


def test_unknown_suite_rejected():
    with pytest.raises(KeyError):
        run_suite("nonsense", RunConfig())


def test_every_claimed_check_carries_a_citation():
    cfg = RunConfig(m_expr="1", survey=5)
    for c in run_suite("all", cfg):
        if c.claim_value is not None:
            assert c.citation


def test_full_json_roundtrip():
    cfg = RunConfig(m_expr="1", survey=5)
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


@pytest.mark.parametrize("m", ["-r", "-2/3*r^2+5"])
def test_cli_accepts_m_starting_with_minus(m, capsys):
    assert main(["check", "base-locus", "--m", m, "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["config"]["m"] == m
    assert doc["summary"]["errors"] == "0"


def test_cli_m_without_value_is_a_usage_error(capsys):
    assert main(["check", "sigma", "--m"]) == 2
    assert "expected one argument" in capsys.readouterr().err


def test_cli_unwritable_out_is_a_configuration_error(tmp_path, capsys):
    out = tmp_path / "no-such-dir" / "report.txt"
    assert main(["check", "sigma", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and str(out) in err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert not out.exists()


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


def count_calls(monkeypatch, name, *modules):
    """Record the arguments of each call to the function `name`, patched in each module given."""
    calls = []
    real = getattr(modules[0], name)

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    for module in modules:
        monkeypatch.setattr(module, name, counted)
    return calls


def test_check_all_computes_quadric_independence_once(monkeypatch):
    import cgv.baselocus as baselocus
    calls = count_calls(monkeypatch, "matrix_rank", baselocus)
    run_suite("all", RunConfig(m_expr="1", survey=5))
    assert len(calls) == 1


def test_family_verified_once_and_fresh_per_run(monkeypatch):
    import cgv.baselocus as baselocus
    import cgv.geometry as geometry
    import cgv.suites as suites
    geometry._verified_family.cache_clear()
    parses = count_calls(monkeypatch, "parse_poly", geometry)
    ranks = count_calls(monkeypatch, "matrix_rank", baselocus)
    families = []
    real_build = suites.build_cubics

    def recorded_build():
        families.append(real_build())
        return families[-1]

    monkeypatch.setattr(suites, "build_cubics", recorded_build)
    for runs in (1, 2):
        run_suite("all", RunConfig(m_expr="1", survey=5))
        # results cached on the family last one run: the rank is computed again
        assert len(ranks) == runs
    assert sorted(text for text, in parses) == sorted(geometry.QUADRIC_TEXTS)
    first, second = families
    assert first is not second
    assert all(a is b for a, b in zip(first.cubics + first.quadrics, second.cubics + second.quadrics))


def test_check_all_leaves_the_shared_polynomials_unchanged():
    from cgv.geometry import _verified_family
    cubics, quadrics, _ = _verified_family()
    before = [dict(p.terms) for p in cubics + quadrics]
    for m_expr in (None, "0", "1", "r"):
        run_suite("all", RunConfig(m_expr=m_expr))
    assert _verified_family()[:2] == (cubics, quadrics)
    assert [p.terms for p in cubics + quadrics] == before


def test_check_all_builds_each_chart_gradient_row_once(monkeypatch):
    import cgv.tangent as tangent
    calls = count_calls(monkeypatch, "chart_gradient", tangent)
    run_suite("all", RunConfig(m_expr="1", survey=5))
    # rows 0, 1, 2 of the symbolic family, then of the family at m = 1 for the survey
    assert [i for _, i in calls] == [0, 1, 2, 0, 1, 2]
    assert len({id(family) for family, _ in calls}) == 2


@pytest.mark.parametrize("m_expr, builds", [(None, 4), ("1", 8)])
def test_base_locus_builds_each_single_hyperplane_system_once(monkeypatch, m_expr, builds):
    import cgv.baselocus as baselocus
    import cgv.suites as suites
    calls = count_calls(monkeypatch, "single_hyperplane_system", suites, baselocus)
    run_suite("base-locus", RunConfig(m_expr=m_expr))
    # one system per hyperplane for the matrix and determinant checks, and
    # one per kernel lift once m is fixed
    assert len(calls) == builds
    assert sorted(h for _, h in calls[:4]) == ["T", "X", "Y", "Z"]


def test_quadric_independence_entries_compared_with_the_display(monkeypatch):
    import cgv.suites as suites

    def entries_check():
        checks = run_suite("quadric-independence", RunConfig())
        return next(c for c in checks if c.check_id == "quadric-independence/entries")

    assert entries_check().agreement == CONFIRMED
    # alter one displayed entry: the computed XY coefficients must refute it
    altered = ("(r+1)*(3*r-2)", "3*r-2", "r^2*(3*r-2)", "-2*r^2-5*r+4")
    monkeypatch.setattr(suites, "PRINTED_CIRCULANT_ENTRIES", altered)
    check = entries_check()
    assert check.agreement == REFUTED
    assert check.computed == "a=-2 + r + 3*r^2, b=-2 + 3*r, c=3 - 5*r^2, d=5 - 5*r - 2*r^2"
    assert check.notes == ("the XY coefficients of Q0..Q3 differ from the displayed entries",)


def test_check_all_reads_every_claim(monkeypatch):
    import cgv.suites as suites
    from cgv.claims import CLAIMS
    calls = count_calls(monkeypatch, "claim", suites)
    run_suite("all", RunConfig(survey=5))
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


def test_cli_largest_64_bit_seed_is_accepted(capsys):
    seed = str(2 ** 64 - 1)
    assert main(["check", "sigma", "--seed", seed]) == 0
    assert f"seed={seed} " in capsys.readouterr().out
