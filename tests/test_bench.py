"""Smoke test of the layer bench at the repository root."""

import json
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_bench_writes_one_time_per_row(tmp_path):
    out = tmp_path / "bench.json"
    subprocess.run([sys.executable, str(ROOT / "bench.py"), "--repeat", "1", "--out", str(out)],
                   check=True, capture_output=True, timeout=120)
    doc = json.loads(out.read_text(encoding="utf-8"))
    assert set(doc) == {"commit", "python", "repeat", "unit", "rows"}
    assert (doc["python"], doc["repeat"], doc["unit"]) == (platform.python_version(), 1, "s")
    assert doc["commit"]
    rows = doc["rows"]
    assert len(rows) == 19 and all(type(t) is float and t > 0 for t in rows.values())
    assert {"nf.mul x1000", "nf_rref 4x6 M at m=1 x100", "check base-locus --m=1 in-process",
            "check genus --format json --m=-3/7-7/6*r-9*r^2 in-process x100",
            "eval_at_point X*Z*C0 on LINE_R x100",
            "check all in-process warm", "check all --m=1 in-process warm",
            "check tangent --m=1 --survey 1000 in-process warm",
            "check pencil --m=1 --bound 40 in-process warm",
            "first check all --m=1 in a fresh interpreter"} <= set(rows)
    assert any(name.startswith("classify_stratum 16 strata at m=") for name in rows)
