"""Benchmark workloads: config text generated from a seed, and output checks.

Every workload runs the README medium (Omega/2pi = 420 MHz,
Delta/2pi = 4000 MHz, eta0 = 960, z = 2.5 cm) through ``mp4wm.cli.main``.
Seed 0 is the reference configuration whose outputs are stored under
``reference/``; any other seed shifts the scan endpoints by a fraction of
one scan step (or moves the ``run-64k`` pulse centre), so the program sees
new inputs while the physics it must reproduce stays the same.
"""
from __future__ import annotations

import csv
import gzip
import io
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
DEFAULT_SEED = 0

C_LIGHT = 299_792_458.0
ETA0 = 960.0
CELL_CM = 2.5
TAU0_NS = ETA0 * CELL_CM * 1e-2 / (2.0 * C_LIGHT) * 1e9  # common delay eta z / 2c

MEDIUM = """\
omega_rabi_mhz = 420
delta_raman_mhz = 4000
delta_two_photon_mhz = 11.025
eta0 = 960
cell_length_cm = 2.5
"""

# Tolerances of the output checks.  Reference cells agree to REF_RTOL of
# the stored value; cells below REF_FLOOR of their column's peak are FFT
# round-off in the pulse wings and only have to stay below that floor.
REF_RTOL = 1e-6
REF_FLOOR = 1e-12
DENSITY_DELAY_RTOL = 0.01    # conjugate delay vs s * tau0
OFFBAND_DELAY_RTOL = 0.05    # conjugate delay vs tau0 where the gain is >= 100
OFFBAND_MIN_GAIN = 100.0
RUN_TAU_RTOL = 0.01          # conjugate delay vs the analytic tau
RUN_DTAU_RTOL = 0.03         # probe-conjugate delay vs the analytic locked dtau
RUN_PEAK_ATOL_NS = 0.5       # trace argmax vs fitted peak time, plus one sample


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    command: str          # mp4wm subcommand
    body: str             # config lines after the medium, without the seeded keys
    n_samples: int
    threads: str | None   # MP4WM_THREADS for the job; None leaves it unset
    scan: tuple[float, float, int] | None = None  # start, stop, steps

    def config(self, seed: int, smoke: bool = False) -> tuple[str, dict]:
        """Config text for `seed`, and the seeded values the checks need."""
        shift = 0.0
        if seed != DEFAULT_SEED:
            shift = 0.9 * (random.Random(seed).random() - 0.5)  # in (-0.45, 0.45)
        n_samples = 256 if smoke else self.n_samples
        lines = [MEDIUM + self.body, f"n_samples = {n_samples}\n"]
        info: dict = {"n_samples": n_samples, "points": 1}
        if self.scan is not None:
            start, stop, steps = self.scan
            if smoke:
                steps = 3
            step = (stop - start) / (self.scan[2] - 1)
            start, stop = start + shift * step, stop + shift * step
            lines.append(
                f"scan_start = {start!r}\nscan_stop = {stop!r}\nscan_steps = {steps}\n"
            )
            width = (stop - start) / (steps - 1)
            info["values"] = [start + i * width for i in range(steps)]
            info["points"] = steps
        else:
            center = 100.0 * shift  # ns, within +-45 ns of the window centre
            lines.append(f"pulse_center_ns = {center!r}\n")
            info["center_ns"] = center
        return "".join(lines), info


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="scan-density",
            why=(
                "paper's gain/delay-locking curve: 201-point density scan at 4096 "
                "samples on the default thread pool; exercises every scan-side cost"
            ),
            command="scan-density",
            body=(
                "gamma_c_over_gamma = 0\n"
                "dispersion_mode = constant\n"
                "propagation_mode = relative\n"
            ),
            n_samples=4096,
            threads=None,
            scan=(0.2, 1.5, 201),
        ),
        Workload(
            name="scan-delta-offband",
            why=(
                "serial detuning scan with gain off line centre, full eta(w), exact "
                "vacuum reference and 36 FitError points; a band-limited kernel must not help"
            ),
            command="scan-delta",
            body=(
                "gamma_c_over_gamma = 0.01\n"
                "delta_one_mhz = 30\n"
                "dispersion_mode = full\n"
                "propagation_mode = exact\n"
            ),
            n_samples=4096,
            threads="1",
            scan=(-40.0, 60.0, 201),
        ),
        Workload(
            name="run-64k",
            why=(
                "one pulse run at 65536 samples writing the 65536-row trace CSV: "
                "large FFTs and per-row formatting, no scan engine and no pool"
            ),
            command="run",
            body="gamma_c_over_gamma = 0\n",
            n_samples=65536,
            threads=None,
        ),
    )
}


# ---------------------------------------------------------------- parsing

def parse_table(text: str) -> tuple[list[str], list[list[float | None]]]:
    """CSV output as a header and rows of floats, blanks as None."""
    reader = csv.reader(io.StringIO(text))
    header = next(reader)
    rows = [[float(c) if c else None for c in row] for row in reader]
    return header, rows


def _column(header, rows, name):
    j = header.index(name)
    return [r[j] for r in rows]


# ---------------------------------------------------------- physics checks

def _check_scan_grid(header, rows, values) -> list[str]:
    if len(rows) != len(values):
        return [f"expected {len(values)} rows, got {len(rows)}"]
    problems = []
    for got, want in zip(_column(header, rows, "var"), values):
        if not math.isclose(got, want, rel_tol=1e-8, abs_tol=1e-8):
            problems.append(f"scan variable {got!r} != requested {want!r}")
            break
    return problems


def check_scan_density(output: str, info: dict) -> list[str]:
    """Conjugate delay of every row equals s * tau0 within 1%."""
    header, rows = parse_table(output)
    problems = _check_scan_grid(header, rows, info["values"])
    conj = _column(header, rows, "conj_delay_ns")
    if all(c is None for c in conj):
        problems.append("no row has a conjugate delay")
    for s, c in zip(info["values"], conj):
        if c is not None and abs(c - s * TAU0_NS) > DENSITY_DELAY_RTOL * s * TAU0_NS:
            problems.append(f"scale {s:.6g}: conjugate delay {c} ns != s*tau0 {s * TAU0_NS:.6g} ns")
            break
    return problems


def check_scan_offband(output: str, info: dict) -> list[str]:
    """Where the gain is high, the conjugate lags by tau0 and the probe trails it."""
    header, rows = parse_table(output)
    problems = _check_scan_grid(header, rows, info["values"])
    gain = _column(header, rows, "gain_peak")
    conj = _column(header, rows, "conj_delay_ns")
    dtau = _column(header, rows, "dtau_ns")
    high = [i for i, g in enumerate(gain) if g is not None and g >= OFFBAND_MIN_GAIN]
    if not high:
        problems.append(f"no row reaches gain {OFFBAND_MIN_GAIN:g}")
    for i in high:
        if conj[i] is None or abs(conj[i] - TAU0_NS) > OFFBAND_DELAY_RTOL * TAU0_NS:
            problems.append(f"row {i}: conjugate delay {conj[i]} ns far from tau0 {TAU0_NS:.6g} ns")
            break
        if dtau[i] is None or dtau[i] <= 0:
            problems.append(f"row {i}: probe does not trail the conjugate (dtau {dtau[i]})")
            break
    return problems


def check_run(output: str, stdout: str, info: dict) -> list[str]:
    """Fitted delays match the job's own analytic block and its trace."""
    try:
        metrics = json.loads(stdout)
        probe, conj, analytic = metrics["probe"], metrics["conjugate"], metrics["analytic"]
    except (ValueError, KeyError, TypeError) as exc:
        return [f"run metrics JSON unusable: {exc!r}"]
    if conj is None:
        return ["no conjugate generated"]
    problems = []
    tau, dtau = analytic["tau_ns"], analytic["dtau_locked_ns"]
    if abs(conj["delay_ns"] - tau) > RUN_TAU_RTOL * tau:
        problems.append(f"conjugate delay {conj['delay_ns']} ns != analytic tau {tau} ns")
    diff = probe["delay_ns"] - conj["delay_ns"]
    if abs(diff - dtau) > RUN_DTAU_RTOL * dtau:
        problems.append(f"differential delay {diff:.6g} ns != analytic locked {dtau} ns")

    header, rows = parse_table(output)
    if len(rows) != info["n_samples"]:
        problems.append(f"expected {info['n_samples']} trace rows, got {len(rows)}")
        return problems
    t = _column(header, rows, "t_ns")
    ref = _column(header, rows, "ref")
    if not math.isclose(max(ref), 1.0, rel_tol=1e-9):
        problems.append(f"reference trace peak {max(ref)} is not normalised to 1")
    for col, fit in (("probe", probe), ("conj", conj)):
        vals = _column(header, rows, col)
        t_peak = t[max(range(len(vals)), key=vals.__getitem__)]
        if abs(t_peak - fit["peak_time_ns"]) > RUN_PEAK_ATOL_NS + (t[1] - t[0]):
            problems.append(
                f"{col} trace peaks at {t_peak} ns, fit says {fit['peak_time_ns']} ns"
            )
    return problems


def check_physics(workload: Workload, output: str, stdout: str, info: dict) -> list[str]:
    if workload.command == "run":
        return check_run(output, stdout, info)
    if workload.command == "scan-density":
        return check_scan_density(output, info)
    return check_scan_offband(output, info)


# ------------------------------------------------------- reference outputs

def reference_paths(workload: Workload) -> tuple[Path, Path]:
    """Stored seed-0 output file (gzip CSV) and captured stdout."""
    return (
        REFERENCE_DIR / f"{workload.name}.csv.gz",
        REFERENCE_DIR / f"{workload.name}.stdout.txt",
    )


def floor_small_cells(text: str) -> str:
    """Write cells below REF_FLOOR/10 of their column peak as 0 (reference storage)."""
    raw = list(csv.reader(io.StringIO(text)))
    header, rows = parse_table(text)
    peaks = [_column_peak(rows, j) for j in range(len(header))]
    out = [",".join(raw[0])]
    for cells, row in zip(raw[1:], rows):
        out.append(",".join(
            "0" if v is not None and abs(v) < 0.1 * REF_FLOOR * peak else c
            for c, v, peak in zip(cells, row, peaks)
        ))
    return "\n".join(out) + "\n"


def _column_peak(rows, j) -> float:
    return max((abs(r[j]) for r in rows if r[j] is not None), default=0.0)


def _close(got: float, want: float, floor: float) -> bool:
    return abs(got - want) <= REF_RTOL * abs(want) + floor


def compare_table(output: str, reference: str) -> list[str]:
    header, rows = parse_table(output)
    ref_header, ref_rows = parse_table(reference)
    if header != ref_header:
        return [f"header {header} != reference {ref_header}"]
    if len(rows) != len(ref_rows):
        return [f"{len(rows)} rows, reference has {len(ref_rows)}"]
    problems = []
    for j, name in enumerate(header):
        floor = REF_FLOOR * _column_peak(ref_rows, j)
        for i, (row, ref) in enumerate(zip(rows, ref_rows)):
            got, want = row[j], ref[j]
            if (got is None) != (want is None):
                problems.append(f"row {i} {name}: blank pattern differs ({got!r} vs {want!r})")
            elif got is not None and not _close(got, want, floor):
                problems.append(f"row {i} {name}: {got!r} != reference {want!r}")
            if len(problems) >= 5:
                return problems
    return problems


def _leaves(obj, prefix=""):
    if isinstance(obj, dict):
        for k, v in obj.items():
            yield from _leaves(v, f"{prefix}.{k}" if prefix else k)
    else:
        yield prefix, obj


def compare_stdout(stdout: str, reference: str) -> list[str]:
    if not reference.strip():
        return [] if not stdout.strip() else ["unexpected stdout"]
    got, want = dict(_leaves(json.loads(stdout))), dict(_leaves(json.loads(reference)))
    if got.keys() != want.keys():
        return [f"stdout keys {sorted(got)} != reference {sorted(want)}"]
    return [
        f"stdout {k}: {got[k]!r} != reference {want[k]!r}"
        for k in want
        if (got[k] is None) != (want[k] is None)
        or (want[k] is not None and not _close(got[k], want[k], 1e-12))
    ]


def check_reference(workload: Workload, output: str, stdout: str) -> list[str]:
    """Compare a seed-0 job with the outputs stored at the seed commit."""
    csv_path, stdout_path = reference_paths(workload)
    with gzip.open(csv_path, "rt", encoding="utf-8", newline="") as fh:
        reference = fh.read()
    return compare_table(output, reference) + compare_stdout(
        stdout, stdout_path.read_text(encoding="utf-8")
    )
