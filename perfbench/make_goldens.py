"""Write goldens.json from the program as it stands.

    python3 perfbench/make_goldens.py

Records the sha256 of each report-set output and, for each strata suite,
its list of check ids.  Run it only at a commit whose reports are meant to
be the reference; a change that alters a report must say so.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402
from cgv.cli import main  # noqa: E402


def run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = main(list(argv))
    if rc != 0:
        raise SystemExit(f"{' '.join(argv)} exited {rc}")
    return out.getvalue()


def build():
    digests = {name: hashlib.sha256(run(argv).encode("utf-8")).hexdigest()
               for name, argv in workloads.report_set_argvs()}
    ids = {suite: [c["check-id"] for c in json.loads(run(workloads.strata_argv(suite, "1")))["checks"]]
           for suite in workloads.STRATA_SUITES}
    return {"report-set-sha256": digests, "strata-check-ids": ids}


if __name__ == "__main__":
    workloads.GOLDENS_PATH.write_text(json.dumps(build(), indent=1) + "\n", encoding="utf-8")
    print(f"wrote {workloads.GOLDENS_PATH}")
