"""`check all` reports at m values outside the golden set stay byte-identical.

The goldens in `perfbench/goldens.json` cover m symbolic, 0, 1 and r.  These
pins add a negative irrational, a fractional irrational and a fractional
rational m, in text and JSON, so that a change in how m is specialised
cannot drift the reports unnoticed.
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
