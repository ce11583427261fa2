"""`check all` reports at m values outside the golden set stay byte-identical.

The goldens in `perfbench/goldens.json` cover m symbolic, 0, 1 and r.  These
pins add a negative irrational, a fractional irrational and a fractional
rational m, in text and JSON, so that a change in how m is specialised
cannot drift the reports unnoticed.  The goldens run the tangent rank survey
at 100 points and seed 1; the survey pins run it at 1000 points and two
seeds, so that a change in how the survey decides rank cannot drift it.
"""

import contextlib
import hashlib
import io

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
