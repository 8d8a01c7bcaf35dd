#!/usr/bin/env python3
"""Smoke test of the benchmark itself: every workload, tiny grids, no timing bounds.

    python3 perfbench/smoke.py

Runs ``run.py --smoke`` (256 samples, 3 scan steps) for every workload
defined in ``workloads.py``, untraced and traced, and checks that each run exits 0,
passes its output checks and emits exactly the metrics BENCHMARK.json
names, each with its unit.  Exits 1 if any run fails.
"""
from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    failures = 0
    for workload in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                   "--seed", "1", "--seconds", "1", "--trace", str(trace), "--smoke"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
            problem = None
            if proc.returncode != 0:
                problem = f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}"
            else:
                result = json.loads(proc.stdout.strip().splitlines()[-1])
                units = {k: v["unit"] for k, v in result["metrics"].items()}
                if not result["correct"]:
                    problem = f"output check failed: {proc.stderr.strip()[-500:]}"
                elif units != expected[trace]:
                    problem = f"metrics {units} != BENCHMARK.json {expected[trace]}"
            print(f"{workload:<20} trace {trace}: {problem or 'ok'}")
            failures += problem is not None
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
