"""The verdicts of `check all` at eleven values of m match `tests/verdicts.tsv`.

The sha256 goldens and pins say that a report changed; this ledger says
which check changed and how.  After a change that alters a verdict on
purpose, rewrite the ledger with `tests/make_verdicts.py` and review the diff.
"""

import difflib

import pytest

from make_verdicts import LEDGER, M_VALUES, _field, ledger


def test_ledger_matches_the_reports():
    want = LEDGER.read_text(encoding="utf-8")
    got = ledger()
    if got != want:
        diff = difflib.unified_diff(want.splitlines(keepends=True), got.splitlines(keepends=True),
                                    "tests/verdicts.tsv", "rebuilt", n=0)
        pytest.fail("the verdict ledger changed; rewrite it with tests/make_verdicts.py "
                    "if the change is meant:\n" + "".join(diff), pytrace=False)


def test_ledger_has_one_line_per_m_and_check():
    rows = [line.split("\t") for line in LEDGER.read_text(encoding="utf-8").splitlines()]
    assert all(len(row) == 4 for row in rows)
    keys = [(m, check_id) for m, check_id, _, _ in rows]
    assert len(set(keys)) == len(keys)
    assert [m for m in dict.fromkeys(m for m, _ in keys)] == [m or "-" for m in M_VALUES]


@pytest.mark.parametrize("text", ["a\tb", "a\nb", "\t", "\n"])
def test_a_field_with_a_tab_or_newline_is_refused(text):
    with pytest.raises(ValueError, match="tab or a newline"):
        _field(text)
