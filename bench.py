"""Layer and operation timings for cgv, written as one JSON file.

Usage: python3 bench.py [--repeat N] [--out FILE]

Each row runs a fixed input and reports the best of N runs (default 5) of
`time.perf_counter`, in seconds, for the whole row; a row named "xN"
repeats its operation N times.  A "warm" row runs its `cgv check` op once
before it is timed, as a process that runs many ops would have; the
"fresh interpreter" row times the first op of a new Python process, inside
that process, after its imports.  The JSON also records the commit of the
`cgv` package that ran and the Python version.  `cgv` is imported from
PYTHONPATH when it is set there, else from this checkout's `src`, so
`PYTHONPATH=<other checkout>/src python3 bench.py` times another commit with
the same rows.  Standard library only; tracing and counts live in
`perfbench/`.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import platform
import subprocess
import sys
import time
from pathlib import Path

sys.path.append(str(Path(__file__).resolve().parent / "src"))

import cgv  # noqa: E402
from cgv.baselocus import ALL_STRATA, SLICES, classify_stratum  # noqa: E402
from cgv.claims import QUADRIC_TEXTS  # noqa: E402
from cgv.cli import main as cli_main  # noqa: E402
from cgv.geometry import LINE_R, X, Z, build_cubics, eval_at_point  # noqa: E402
from cgv.linalg import matrix_det, nf_rref  # noqa: E402
from cgv.nf import NFElem  # noqa: E402
from cgv.parsing import parse_poly  # noqa: E402

# the m of the classify_stratum row: no exceptional value, so every stratum is decided
STRATA_M = "8/3 + 3*r - 3/2*r^2"
# one `cgv check` op whose suite is cheap, so that the row times the fixed cost
# around a suite: parsing the command line and --m, and writing the report
GENUS_ARGV = ["check", "genus", "--format", "json", "--m=-3/7-7/6*r-9*r^2"]
# the end-to-end `cgv check` ops, each timed warm in this process
WARM_ARGVS = (["check", "all"], ["check", "all", "--m=1"], ["check", "tangent", "--m=1", "--survey", "1000"],
              ["check", "pencil", "--m=1", "--bound", "40"])
FRESH_ARGV = ["check", "all", "--m=1"]
# run in a new interpreter: argv[1] is the directory of the `cgv` that ran
# here, the rest the op; prints the seconds of the op alone
FRESH_CHILD = """
import contextlib, io, sys, time
sys.path.insert(0, sys.argv[1])
from cgv.cli import main
start = time.perf_counter()
with contextlib.redirect_stdout(io.StringIO()):
    main(sys.argv[2:])
print(time.perf_counter() - start)
"""


def _rows():
    """(name, zero-argument function) for each row, inputs built once here."""
    a, b = NFElem(3, -5, 2, 7), NFElem(-4, 1, 9, 5)
    family = build_cubics()
    one = NFElem(1)
    p = parse_poly("X + r*Y - m + 2/3*T")
    xz_c0 = X * Z * family.cubics[0]
    mixed = [[e.as_nfelem() for e in row] for row in family.at_m(one).mixed_matrix]
    # the h = T slice read off M through `SLICES`, which older checkouts share
    _, rows_t, _, cols_t = SLICES["T"]
    slice_t = [[mixed[j][k] for k in cols_t] for j in rows_t]
    symbolic_t = tuple(tuple(family.mixed_matrix[j][k] for k in cols_t) for j in rows_t)
    strata_m = parse_poly(STRATA_M).as_nfelem()

    def loop(n, op):
        return lambda: [op() for _ in range(n)]

    def classify_all():
        fixed = build_cubics().at_m(strata_m)   # a fresh family: its memo starts empty
        return [classify_stratum(fixed, s) for s in ALL_STRATA]

    def base_locus_op():
        with contextlib.redirect_stdout(io.StringIO()):
            cli_main(["check", "base-locus", "--m=1"])

    def genus_ops():
        with contextlib.redirect_stdout(io.StringIO()):
            for _ in range(100):
                cli_main(GENUS_ARGV)

    def warm(argv):
        def op():
            with contextlib.redirect_stdout(io.StringIO()):
                cli_main(argv)
        op()
        return op

    def fresh_op():
        out = subprocess.run([sys.executable, "-c", FRESH_CHILD, str(Path(cgv.__file__).parent.parent),
                              *FRESH_ARGV], capture_output=True, text=True, check=True)
        return float(out.stdout)

    return (
        ("nf.mul x1000", loop(1000, lambda: a * b)),
        ("nf.add x1000", loop(1000, lambda: a + b)),
        ("nf.inverse x1000", loop(1000, a.inverse)),
        ("mpoly.mul C0*C1", lambda: family.cubics[0] * family.cubics[1]),
        ("mpoly.pow (X + r*Y - m + 2/3*T)^6", lambda: p ** 6),
        ("mpoly.substitute m in the four cubics",
         lambda: [c.substitute({"m": strata_m}) for c in family.cubics]),
        ("nf_rref 3x3 slice h=T at m=1 x100", loop(100, lambda: nf_rref(slice_t))),
        ("nf_rref 4x6 M at m=1 x100", loop(100, lambda: nf_rref(mixed))),
        ("matrix_det symbolic 3x3 slice h=T x100", loop(100, lambda: matrix_det(symbolic_t))),
        ("parse_poly the four quadrics", lambda: [parse_poly(t) for t in QUADRIC_TEXTS]),
        (f"classify_stratum 16 strata at m={STRATA_M}", classify_all),
        ("check base-locus --m=1 in-process", base_locus_op),
        (f"{' '.join(GENUS_ARGV)} in-process x100", genus_ops),
        ("eval_at_point X*Z*C0 on LINE_R x100", loop(100, lambda: eval_at_point(xz_c0, LINE_R))),
        *((f"{' '.join(argv)} in-process warm", warm(argv)) for argv in WARM_ARGVS),
        (f"first {' '.join(FRESH_ARGV)} in a fresh interpreter", fresh_op),
    )


def best_of(fn, repeat: int) -> float:
    """The least time of `repeat` calls of fn; a call that returns a float
    reports that time instead (the fresh-interpreter row, timed in its child)."""
    best = None
    for _ in range(repeat):
        start = time.perf_counter()
        own = fn()
        elapsed = own if type(own) is float else time.perf_counter() - start
        best = elapsed if best is None else min(best, elapsed)
    return best


def commit() -> str:
    """The commit of the imported cgv package, "-dirty" when its checkout has edits."""
    try:
        out = subprocess.run(["git", "describe", "--always", "--dirty", "--abbrev=40"],
                             cwd=Path(cgv.__file__).parent, capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return out.stdout.strip()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeat", type=int, default=5, help="runs per row; the best is kept")
    parser.add_argument("--out", default="BENCH.json", help="the JSON file to write")
    args = parser.parse_args(argv)
    if args.repeat < 1:
        parser.error("--repeat must be at least 1")
    rows = {name: best_of(fn, args.repeat) for name, fn in _rows()}
    doc = {"commit": commit(), "python": platform.python_version(), "repeat": args.repeat,
           "unit": "s", "rows": rows}
    Path(args.out).write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    for name, seconds in rows.items():
        print(f"{seconds * 1e3:10.3f} ms  {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
