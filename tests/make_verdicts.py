"""Write the verdict ledger `tests/verdicts.tsv`.

The ledger has one line per (m, check id) of `cgv check all`:

    m <TAB> check-id <TAB> agreement <TAB> computed

with `-` in the m column for m left symbolic.  It covers m symbolic, 0, 1,
r, -r, 2/3*r^2 - 5, 7/3 and the exceptional torus values a, b, c and -c.
A report-neutral change leaves the file as it is; for a change that alters
a verdict on purpose, `git diff tests/verdicts.tsv` lists the checks it
changed.  `tests/test_verdict_ledger.py` rebuilds the ledger and compares.

Run from the repository root, with the package importable:

    PYTHONPATH=src python tests/make_verdicts.py
"""

import contextlib
import io
import json
from pathlib import Path

from cgv.cli import main

LEDGER = Path(__file__).resolve().parent / "verdicts.tsv"

# None leaves m symbolic; the last four are a, b, c and -c, the exceptional
# values of the torus stratum
M_VALUES = (None, "0", "1", "r", "-r", "2/3*r^2-5", "7/3",
            "5/7+18/7*r+8/7*r^2", "-9/7-10/7*r-20/7*r^2",
            "2/7-4/7*r+6/7*r^2", "-2/7+4/7*r-6/7*r^2")


def _field(text: str) -> str:
    if "\t" in text or "\n" in text:
        raise ValueError(f"a ledger field holds a tab or a newline: {text!r}")
    return text


def ledger() -> str:
    """The ledger text, built in-process from the JSON reports of `check all`."""
    lines = []
    for m in M_VALUES:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            rc = main(["check", "all", "--format", "json"] + ([f"--m={m}"] if m else []))
        if rc != 0:
            raise RuntimeError(f"cgv check all --m={m} exited {rc}")
        for c in json.loads(out.getvalue())["checks"]:
            lines.append("\t".join(_field(f) for f in (m or "-", c["check-id"], c["agreement"],
                                                       c["computed"])))
    return "\n".join(lines) + "\n"


if __name__ == "__main__":
    LEDGER.write_text(ledger(), encoding="utf-8")
