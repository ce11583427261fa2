"""cgv benchmark: a closed-loop, single-process, single-thread load generator.

    python3 perfbench/run.py --workload report-set|strata|expand \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout.  One op is one `cgv` command, run
in-process through `cgv.cli.main(argv)` with its output captured; the next
op is sent only when the previous one has returned.  After one warm-up
pass, whole passes over the op list repeat until S seconds have passed.
Every output is checked.  The last line of stdout is one JSON object:
with --trace 0 it holds the end-to-end metrics, with --trace 1 the
per-layer metrics of a traced run (see tracer.py).  NOTES.md explains the
workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calib
import predictions
import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TRACE_DIR = ROOT / ".bench_trace"
SETUP_RUNS = 9
CAL_EVERY_S = 0.2     # most time between two calibrations, unless one op takes longer

SETUP_SNIPPET = (
    "import time\n"
    "t0 = time.perf_counter()\n"
    "import cgv\n"
    "cgv.build_cubics()\n"
    "t1 = time.perf_counter()\n"
    "import calib\n"
    "print(repr(t1 - t0), repr(min(calib.calibrate())))\n"
)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=tuple(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        p.error("--seed must be >= 0 and --seconds >= 1")
    return args


def measure_setup():
    """Median quiet-host time of `import cgv` plus build_cubics() in fresh
    interpreters, each scaled by the fastest calibration run made in the same
    interpreter right after it (the first run is cold).

    One unmeasured start first writes the bytecode cache, which users also
    have after their first run.
    """
    env = dict(os.environ, PYTHONPATH=os.pathsep.join((str(SRC), str(HERE))))
    times = []
    for i in range(SETUP_RUNS + 1):
        proc = subprocess.run([sys.executable, "-c", SETUP_SNIPPET], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=120, check=True)
        setup, cal = (float(v) for v in proc.stdout.split())
        if i:
            times.append(setup * calib.CAL_REF_S / cal)
    return statistics.median(times)


class Runner:
    """Runs ops through cgv.cli.main and checks each output."""

    def __init__(self, ops, cli):
        self.ops = ops
        self.cli = cli       # looked up per op, so the tracer's wrapper is seen
        self.verified = {}    # op index -> sha256 of an output that passed its check
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def run_op(self, i):
        op = self.ops[i]
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = self.cli.main(list(op.argv))
        except Exception as exc:  # noqa: BLE001 - a raising op is a failed op
            elapsed = time.perf_counter() - start
            reason = f"raised {type(exc).__name__}: {exc}"
        else:
            elapsed = time.perf_counter() - start
            reason = self.check(i, rc, out.getvalue())
        self.attempted += 1
        if reason is not None:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(f"{op.name}: {reason}")
        return elapsed

    def check(self, i, rc, text):
        digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
        if rc == 0 and self.verified.get(i) == digest:
            return None
        reason = self.ops[i].check(rc, text)
        if reason is None:
            self.verified[i] = digest
        return reason

    def run_pass(self, tracer=None):
        """Quiet-host latency of each op (see calib.py), and the raw pass time."""
        events = [("cal", calib.calibrate())]
        last_cal = time.perf_counter()
        raw = 0.0
        for i in range(len(self.ops)):
            if time.perf_counter() - last_cal >= CAL_EVERY_S:
                events.append(("cal", calib.calibrate()))
                last_cal = time.perf_counter()
            if tracer is not None:
                tracer.op = i
            latency = self.run_op(i)
            raw += latency
            events.append(("op", latency))
        events.append(("cal", calib.calibrate()))
        return calib.normalise(events), raw


def per_op(passes):
    """Each op's median quiet-host latency over the passes."""
    return [statistics.median(t) for t in zip(*(times for times, _ in passes))]


def end_to_end(passes, setup_s, runner):
    """wall_s sums each op's latency; the percentiles are over the ops."""
    lat = per_op(passes)
    p90 = statistics.quantiles(lat, n=10, method="inclusive")[8]
    return {
        "wall_s": (sum(lat), "s"),
        "op_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "op_p90_ms": (p90 * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "ok_ratio": (1 - runner.failed / runner.attempted, "ratio"),
        "setup_s": (setup_s, "s"),
    }


def per_layer(traced, untraced):
    """Each span's calls, and its least self and inclusive time over traced passes.

    Span times are raw; the overhead compares quiet-host pass times.
    """
    out = {}
    for name in tracer.SPAN_NAMES:
        out[f"{name}.calls"] = (traced[0][0]["calls"][name], "count")
        out[f"{name}.self_s"] = (min(t["self_s"][name] for t, _ in traced), "s")
        if name in tracer.INCLUSIVE:
            out[f"{name}.incl_s"] = (min(t["incl_s"][name] for t, _ in traced), "s")
    for count in ("mpoly.mul.term_pairs", "parsing.chars", "tangent.rank_survey.points"):
        out[count] = (traced[0][0]["counts"].get(count, 0), "count")
    out["mpoly.pow.mul_calls"] = (traced[0][0]["edges"].get(("mpoly.pow", "mpoly.mul"), 0), "count")
    survey_s = min(t["incl_s"]["tangent.rank_survey"] for t, _ in traced)
    points = out["tangent.rank_survey.points"][0]
    out["tangent.rank_survey.points_per_s"] = (points / survey_s if survey_s else 0.0, "1/s")
    traced_wall = sum(per_op([run for _, run in traced]))
    untraced_wall = sum(per_op(untraced))
    out["trace.overhead_s"] = (traced_wall - untraced_wall, "s")
    out["trace.overhead_ratio"] = ((traced_wall - untraced_wall) / untraced_wall, "ratio")
    return out


def write_trace(workload, seed, runner, traced):
    TRACE_DIR.mkdir(exist_ok=True)
    doc = {
        "workload": workload, "seed": seed,
        "ops": [{"op": i, "name": op.name, "argv": list(op.argv)} for i, op in enumerate(runner.ops)],
        "passes": [{"op_seconds": times, "raw_seconds": raw,
                    "spans": [dict(zip(("op", "parent", "name", "calls", "incl_s", "self_s"), r))
                              for r in t["records"]]}
                   for t, (times, raw) in traced],
    }
    path = TRACE_DIR / f"{workload}-seed{seed}.json"
    path.write_text(json.dumps(doc) + "\n", encoding="utf-8")
    return path


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "cgv" / "__init__.py").is_file():
        print(f"error: no cgv sources at {SRC}; run from the root of a cgv checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    setup_s = measure_setup() if not args.trace else None

    import cgv.cli
    runner = Runner(workloads.build_ops(args.workload, args.seed), cgv.cli)
    runner.run_pass()                       # warm-up, checked but not timed

    deadline = time.perf_counter() + args.seconds
    passes, traced, missing, coverage = [], [], [], []
    if not args.trace:
        while not passes or time.perf_counter() < deadline:
            passes.append(runner.run_pass())
    else:
        spans = tracer.Tracer()
        while not traced or time.perf_counter() < deadline:
            passes.append(runner.run_pass())
            missing = spans.install()
            try:
                run = runner.run_pass(spans)
            finally:
                spans.uninstall()
            traced.append((spans.take(), run))
        coverage = predictions.coverage_errors(args.workload, traced[0][0]["calls"])
        path = write_trace(args.workload, args.seed, runner, traced)
        print(f"spans written to {path.relative_to(ROOT)}")

    for line in runner.failures + [f"not traced: {m}" for m in missing] + coverage:
        print(line, file=sys.stderr)
    if args.trace:
        metrics = per_layer(traced, passes)
        print(f"workload={args.workload} seed={args.seed} traced_passes={len(traced)} "
              f"untraced_passes={len(passes)} ops_per_pass={len(runner.ops)}")
    else:
        metrics = end_to_end(passes, setup_s, runner)
        raw = statistics.median(r for _, r in passes)
        print(f"workload={args.workload} seed={args.seed} passes={len(passes)} "
              f"latency_samples={len(runner.ops)} setup_runs={SETUP_RUNS} "
              f"raw_pass_s={raw:.4f}")
    result = {
        "correct": runner.failed == 0 and not missing and not coverage,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
