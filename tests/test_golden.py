"""Byte-for-byte regression of CLI outputs on the configs in golden/.

Each `<command>_<case>.cfg` is run through `mp4wm <command>`: a scan is
compared in both CSV and JSON, a `run` by the metrics JSON it prints.
The stored files pin the scan header, the 9-digit formatting and the
blank cells of failed scan points.  `scan-density_benchmark` and
`scan-delta_offband` are the two scans of `perfbench/` at its default
seed, 201 points on 4096 samples, whose outputs the benchmark's checks
only bound.
"""
from pathlib import Path

import pytest

from mp4wm.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
CASES = sorted(path.stem for path in GOLDEN.glob("*.cfg"))


def test_golden_set_covers_every_command():
    assert {case.split("_")[0] for case in CASES} == {
        "run", "scan-delta", "scan-density", "scan-pump"
    }


@pytest.mark.filterwarnings("ignore")  # validity warnings are not outputs
@pytest.mark.parametrize("case", CASES)
def test_outputs_match_golden_bytes(case, tmp_path, capsys):
    command = case.split("_")[0]
    cfg = str(GOLDEN / f"{case}.cfg")
    if command == "run":
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "t.csv")]) == 0
        assert capsys.readouterr().out.encode() == (GOLDEN / f"{case}.json").read_bytes()
        return
    for fmt in ("csv", "json"):
        out = tmp_path / f"{case}.{fmt}"
        assert main([command, "--config", cfg, "--out", str(out), "--format", fmt]) == 0
        assert out.read_bytes() == (GOLDEN / f"{case}.{fmt}").read_bytes()
