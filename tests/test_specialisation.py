"""The symbolic verdict predicts every specialised one, in `tests/verdicts.tsv`.

A check that is `confirmed` or `refuted` with m left symbolic has the same
verdict at each of the ten specialised values of m in the ledger.  The
rows that break this today are listed, and the test asserts that each
listed row still breaks it, so both lists can only shrink.
"""

import pytest

from make_verdicts import LEDGER, M_VALUES

DECIDED = ("confirmed", "refuted")

# (m, check id) rows whose verdict differs from the decided symbolic one.
# At m = 0 both quadrics of a double stratum vanish on a whole coordinate
# line; the exact verdict there is refuted, and the report says indeterminate
# until a verdict says for which m it holds.
KNOWN_DISCORDS = {
    ("0", "base-locus/stratum/T.Y|Q1.Q3"),
    ("0", "base-locus/stratum/X.Z|Q0.Q2"),
}

# check ids that are indeterminate with m symbolic but decided at some
# specialised m: the symbolic analysis does not yet reach what m fixed does
GAPS = {
    "base-locus/stratum/T|Q1.Q2.Q3",
    "base-locus/stratum/X|Q0.Q2.Q3",
    "base-locus/stratum/Y|Q0.Q1.Q3",
    "base-locus/stratum/Z|Q0.Q1.Q2",
    "base-locus/stratum/-|Q0.Q1.Q2.Q3",
    "base-locus/aggregate",
}


@pytest.fixture(scope="module")
def verdicts():
    """{check id: {m: agreement}}, with "-" for m symbolic."""
    table = {}
    for line in LEDGER.read_text(encoding="utf-8").splitlines():
        m, check_id, agreement, _ = line.split("\t")
        table.setdefault(check_id, {})[m] = agreement
    return table


def test_the_ledger_has_every_check_at_eleven_values_of_m(verdicts):
    ms = {m or "-" for m in M_VALUES}
    assert len(ms) == 11
    assert all(set(row) == ms for row in verdicts.values())


def test_a_decided_symbolic_verdict_holds_at_every_m(verdicts):
    discords = {(m, check_id) for check_id, row in verdicts.items() if row["-"] in DECIDED
                for m, agreement in row.items() if agreement != row["-"]}
    assert discords == KNOWN_DISCORDS


def test_an_undecided_symbolic_verdict_is_decided_at_some_m_only_for_the_gaps(verdicts):
    gaps = {check_id for check_id, row in verdicts.items() if row["-"] not in DECIDED
            and any(agreement in DECIDED for agreement in row.values())}
    assert gaps == GAPS
