"""The fixed report set stays byte-identical to the committed goldens.

Runs the 8 `cgv check all` reports (m symbolic, 0, 1 and r, each as text
and JSON) in-process and compares their sha256 with
`perfbench/goldens.json`, which is read and never written here.
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

import pytest

from cgv.cli import main

GOLDENS = Path(__file__).resolve().parents[1] / "perfbench" / "goldens.json"

REPORTS = [(f"all/m={m or '-'}/{fmt}",
            ["check", "all", "--format", fmt] + ([f"--m={m}"] if m else []))
           for m in (None, "0", "1", "r") for fmt in ("text", "json")]


@pytest.fixture(scope="module")
def digests():
    return json.loads(GOLDENS.read_text(encoding="utf-8"))["report-set-sha256"]


def test_report_set_matches_goldens_keys(digests):
    assert sorted(digests) == sorted(name for name, _ in REPORTS)


@pytest.mark.parametrize("name,argv", REPORTS, ids=[name for name, _ in REPORTS])
def test_report_byte_identical_to_golden(name, argv, digests):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = main(argv)
    assert rc == 0
    assert hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest() == digests[name]
