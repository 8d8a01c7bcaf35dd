"""The benchmark harness runs end to end on a tiny grid (no timing bounds)."""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_bench_smoke(workload, tmp_path):
    # the harness imports mp4wm from its own tree's src/ and writes its spans
    # under that tree, so it runs from a copy and the checkout stays untouched
    skip = shutil.ignore_patterns("__pycache__")
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=skip)
    shutil.copytree(ROOT / "src" / "mp4wm", tmp_path / "src" / "mp4wm", ignore=skip)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", "1", "--smoke"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True


def test_tracer_finds_every_span_target(monkeypatch):
    # a renamed span target would read as absent, and its metrics as 0
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import mp4wm.cli  # noqa: F401  (loads every module the tracer wraps)
    from tracer import SCAN_NAME, SPAN_TARGETS, Tracer

    absent = Tracer().absent
    assert [f"{module}.{path}" for module, path, _ in SPAN_TARGETS
            if f"{module}.{path}" in absent] == []
    assert SCAN_NAME not in absent
