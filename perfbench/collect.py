"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/collect.py --workloads strata expand --seeds 1-10 \
        --seconds 24 --trace 0 --out results.json

Runs one seed at a time, from the root of a checkout, and writes every
run's result line plus, per workload and metric, the median, the quartiles
(statistics.quantiles, n=4) and the interquartile spread as a share of the
median.
"""

from __future__ import annotations

import argparse
import json
import platform
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_list(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_one(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    return {"seed": seed, "run_s": elapsed, "info": lines[-2] if len(lines) > 1 else "",
            "stderr": proc.stderr.strip(), "result": json.loads(lines[-1])}


def summarise(runs):
    out = {}
    for name in runs[0]["result"]["metrics"]:
        values = [r["result"]["metrics"][name]["value"] for r in runs]
        q1, med, q3 = statistics.quantiles(values, n=4)
        out[name] = {"median": statistics.median(values), "q1": q1, "q3": q3,
                     "spread": (q3 - q1) / statistics.median(values) if statistics.median(values) else None}
    return out


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workloads", nargs="+", required=True)
    p.add_argument("--seeds", type=seed_list, required=True, help="N or N-M")
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", required=True)
    args = p.parse_args()
    doc = {"python": platform.python_version(), "machine": platform.machine(),
           "cpus": os.cpu_count(), "seconds": args.seconds, "trace": args.trace, "workloads": {}}
    for w in args.workloads:
        runs = []
        for seed in args.seeds:
            runs.append(run_one(w, seed, args.seconds, args.trace))
            res = runs[-1]["result"]
            print(f"{w} seed={seed} run={runs[-1]['run_s']:.1f}s correct={res['correct']} "
                  + " ".join(f"{k}={v['value']:.4g}" for k, v in res["metrics"].items()
                             if args.trace == 0), flush=True)
        doc["workloads"][w] = {"runs": runs, "summary": summarise(runs) if len(runs) > 1 else None}
        if len(runs) > 1 and args.trace == 0:
            for name, s in doc["workloads"][w]["summary"].items():
                print(f"  {w} {name}: median={s['median']:.4g} spread={s['spread']:.4f}", flush=True)
    Path(args.out).write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
