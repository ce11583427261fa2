"""`check all` reports at m values outside the golden set stay byte-identical.

The goldens in `perfbench/goldens.json` cover m symbolic, 0, 1 and r.  These
pins add a negative irrational, a fractional irrational and a fractional
rational m, in text and JSON, so that a change in how m is specialised
cannot drift the reports unnoticed.  The goldens run the tangent rank survey
at 100 points and seed 1; the survey pins run it at 1000 points and two
seeds, so that a change in how the survey decides rank cannot drift it.
The base-locus pins run `check base-locus` at the exceptional m values a,
b, c and -c of the torus stratum, where its `refuted` and `indeterminate`
branches are taken.  The eval pins run `cgv eval` on the 100 expressions of
the benchmark's `expand` workload at two seeds, so that a printer or product
change that keeps every value but alters a byte cannot drift the output.
"""

import contextlib
import hashlib
import importlib
import io
from pathlib import Path

import pytest

from cgv.cli import main

PINS = {
    ("-r", "text"): "4085c2b94a67db49026bfa09331667e2c3a0c6caeea162268c6334f02f1320f2",
    ("-r", "json"): "2002651874585a16247d60fc2889faae1a83ee948e5ccea7c41451bf585ff1d7",
    ("2/3*r^2-5", "text"): "f48febc305a573545e859eb627fa962914a4023235ef490513ad13f31905d218",
    ("2/3*r^2-5", "json"): "97640e4cb5f7d0ca8322b64ba13742f0a7dd6165d39edd3c0327ab0a2670b595",
    ("7/3", "text"): "3f5f3123f233e0a020bee7bcf1a1f21ab9e927837fbf48d64132bf58544f0add",
    ("7/3", "json"): "1a1db08d3f69ce336d085ae80696ab57f95e768b5839263568bd9588f83a4df8",
}


@pytest.mark.parametrize("m,fmt", sorted(PINS), ids=[f"m={m}/{fmt}" for m, fmt in sorted(PINS)])
def test_check_all_report_pinned(m, fmt):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = main(["check", "all", "--format", fmt, f"--m={m}"])
    assert rc == 0
    assert hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest() == PINS[(m, fmt)]


SURVEY_PINS = {
    ("1", "1"): "bca671c1ae7b3caa31666adfa78a897d2a070e8f0fa7a307eb50d22b5671c764",
    ("1", "0"): "3f0115d91faa6fb5776e700b37bfbad62dd15a708120c7d40ca5201d52aa080f",
    ("1", "r"): "2059acdc73adbc0dd8e78ca8297175fd5f3b91d0dfd922381dcb93326afbe1e5",
    ("1", "7/3"): "ae650acb16b707bf049b4fe27111ec4933814ee26e9c4d6d04bc8fc803208ec4",
    ("7", "1"): "9e2775e8041f6ba9770ddfac2c96a95431226ce8f2b2256383b6550ee78fc58d",
    ("7", "0"): "a92c7df9129d107297bc0391f88076374efb9d24710029e1f8029a5d421c86a9",
    ("7", "r"): "fe8186131495e49be92d3211d687e031a1bf0e3d35a74c58e859139208cff2bd",
    ("7", "7/3"): "1dfc33b53cac0609a0921ca4bac9b99e3a7452322fcc622f60d635b43dd376c8",
}


@pytest.mark.parametrize("seed,m", sorted(SURVEY_PINS),
                         ids=[f"seed={seed}/m={m}" for seed, m in sorted(SURVEY_PINS)])
def test_tangent_survey_report_pinned(seed, m):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = main(["check", "tangent", "--survey", "1000", "--format", "json",
                   "--seed", seed, f"--m={m}"])
    assert rc == 0
    assert hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest() == SURVEY_PINS[(seed, m)]


# a and b put a torus point off the reference points (`refuted`); at c and -c
# one consistency quadratic vanishes identically (`indeterminate`)
EXCEPTIONAL_M = {
    "a": "5/7+18/7*r+8/7*r^2",
    "b": "-9/7-10/7*r-20/7*r^2",
    "c": "2/7-4/7*r+6/7*r^2",
    "-c": "-2/7+4/7*r-6/7*r^2",
}

BASE_LOCUS_PINS = {
    ("a", "text"): "29b8d6c248c4490df682a04fab401925b415956f189e1c9ba7bc5ce3f8b164e8",
    ("a", "json"): "6dbeb614b4102bc57327042c98f1c17908974ac33a638248c23225cd05e8d822",
    ("b", "text"): "650223b10ab50388dd504af58cd92b58f8e24009cfcc7b5ecc00311a69e311f0",
    ("b", "json"): "f3aabdeabd88c0a8ff2884f66f2fa6fff9c9797779340fdbf4fa7a8de47ece3e",
    ("c", "text"): "fdcb81d5978a89b84960059ff563366e8c7cb34291e43446a769ca049d4f8aff",
    ("c", "json"): "33d9eb04835719100e9cf0c47f1f1bf5e6d27b7ca15001bc1a32638ce1f61630",
    ("-c", "text"): "6f14944d8026cc8f15e14c578b4e51518a2169f13d4a96a57da79835d9c84aaf",
    ("-c", "json"): "bdcc9f674b6f40e3f4f75e2fe1c6b1c90b831fb989e4fe71d6383b1135a3062d",
}


@pytest.mark.parametrize("name,fmt", sorted(BASE_LOCUS_PINS),
                         ids=[f"m={name}/{fmt}" for name, fmt in sorted(BASE_LOCUS_PINS)])
def test_base_locus_report_pinned_at_exceptional_m(name, fmt):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = main(["check", "base-locus", "--format", fmt, f"--m={EXCEPTIONAL_M[name]}"])
    assert rc == 0
    assert hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest() == BASE_LOCUS_PINS[(name, fmt)]


PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

# sha256 of the stdout of `cgv eval` on every expression of expand_exprs(seed), in order
EVAL_PINS = {
    1: "e954107da95b2d6f474df912e927d5e812749f6d44c458728c6be935099a3f9b",
    2: "8850cbff3fdc8b8fa846722851ea2b2aee9f16df5baed5f9e3149569478d1bb9",
}


@pytest.fixture(scope="module")
def expand_exprs():
    # perfbench/workloads.py is read, never written; it imports its siblings by name
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(PERFBENCH))
        return importlib.import_module("workloads").expand_exprs


@pytest.mark.parametrize("seed", sorted(EVAL_PINS), ids=[f"seed={s}" for s in sorted(EVAL_PINS)])
def test_expand_eval_output_pinned(seed, expand_exprs):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        for expr, _ in expand_exprs(seed):
            assert main(["eval", expr]) == 0
    assert hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest() == EVAL_PINS[seed]
