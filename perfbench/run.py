#!/usr/bin/env python3
"""mp4wm benchmark: whole CLI jobs, one client in a closed loop.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--smoke]

Run from the repository root.  The program is imported from ``src/`` and
driven only through ``mp4wm.cli.main(argv)`` with generated config text
(see ``workloads.py``); each job is started after the previous one ends.
Every job's output is checked: the first one against the physics, every
later one for byte-identity with it, and a seed-0 job against the outputs
stored in ``reference/``.

``--trace 0`` reports the end-to-end metrics.  Their times are scaled to a
reference machine speed: the fixed kernel in ``calibrate.py`` is timed
around every job and after every setup, and each time is multiplied by the
kernel's nominal time over its measured time.  ``--trace 1`` alternates
untraced and traced jobs and reports the per-layer metrics, with the
tracing overhead as the difference of their median scaled job times; the
spans are written to ``.bench_out/``.  ``--smoke`` shrinks every workload to
256 samples and 3 scan steps.  The last line of stdout is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import calibrate
from tracer import Tracer, job_layers
from workloads import DEFAULT_SEED, WORKLOADS, Workload, check_physics, check_reference

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
THREADS_ENV = "MP4WM_THREADS"

SETUP_SAMPLES = 5        # setups per run (this process + probes); setup_s is their median
TAIL_BEYOND = 10         # job_ms_tail: highest percentile with this many jobs beyond it
PROBE_TIMEOUT_S = 60

END_TO_END_UNITS = {
    "job_ms_p50": "ms",
    "job_ms_tail": "ms",
    "points_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER_UNITS = {
    "coupling.transfer_entries.calls": "count",
    "coupling.transfer_entries.self_ms": "ms",
    "coupling.transfer_entries.bins": "count",
    "coupling.transfer_entries.bytes_computed": "B",
    **{
        f"pulses.{fn}.{kind}": unit
        for fn in ("to_spectrum", "from_spectrum", "make_gaussian_pulse",
                   "check_containment", "fit_gaussian")
        for kind, unit in (("calls", "count"), ("self_ms", "ms"))
    },
    "pulses.fft_bins": "count",
    "pulses.intensity.calls": "count",
    "experiments.run_single.calls": "count",
    "experiments.run_single.self_ms": "ms",
    "experiments.run_single.busy_ms": "ms",
    "experiments.scan.wall_ms": "ms",
    "experiments.scan.concurrency": "ratio",
    "experiments.points_ok": "count",
    "experiments.points_blank.FitError": "count",
    "experiments.points_blank.ContainmentError": "count",
    "experiments.points_blank.AliasingError": "count",
    "experiments.points_blank.GuardError": "count",
    "experiments.inference.calls": "count",
    "params.derive_coefficients.calls": "count",
    "config.parse_config.ms": "ms",
    "cli.main.ms": "ms",
    "cli.self_ms": "ms",
    "cli.bytes_written": "B",
    "trace.overhead_ms": "ms",
}


class ProgramMissing(Exception):
    """mp4wm cannot be imported from this checkout's src/."""


class Terminated(BaseException):
    """SIGTERM arrived; unwinds past the job runner's handlers so cleanup runs."""


def _terminate(signum, frame):
    raise Terminated()


def import_cli():
    sys.path.insert(0, str(SRC))
    try:
        import mp4wm.cli as cli
    except ImportError as exc:
        raise ProgramMissing(f"cannot import mp4wm.cli from {SRC}: {exc}") from None
    where = Path(cli.__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise ProgramMissing(f"mp4wm.cli was imported from {where}, outside {SRC}")
    return cli


@dataclass(frozen=True)
class JobResult:
    seconds: float
    problem: str | None   # why the job failed, None when it ran cleanly
    output: bytes
    stdout: str

    @property
    def digest(self) -> str:
        return hashlib.sha256(self.output + b"\0" + self.stdout.encode()).hexdigest()


class Jobs:
    """Config files, the CLI argv and the job runner for one workload."""

    def __init__(self, cli, workload: Workload, workdir: Path):
        self.cli = cli
        self.workload = workload
        self.workdir = workdir
        self.out_path = workdir / "out"

    def argv(self, config_path: Path) -> list[str]:
        return [self.workload.command, "--config", str(config_path),
                "--out", str(self.out_path)]

    def run(self, argv) -> JobResult:
        with contextlib.suppress(FileNotFoundError):
            self.out_path.unlink()
        gc.collect()
        stdout, stderr = io.StringIO(), io.StringIO()
        problem = None
        t0 = perf_counter()
        try:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                rc = self.cli.main(argv)
        except (Exception, SystemExit) as exc:
            rc, problem = None, f"raised {exc!r}"
        seconds = perf_counter() - t0
        if problem is None and rc != 0:
            problem = f"exit code {rc}: {stderr.getvalue().strip()}"
        try:
            output = self.out_path.read_bytes()
        except OSError as exc:
            output, problem = b"", problem or f"no output file: {exc}"
        return JobResult(seconds, problem, output, stdout.getvalue())


def write_config(workdir: Path, name: str, text: str) -> Path:
    path = workdir / name
    path.write_text(text, encoding="utf-8")
    return path


def full_check(workload, job: JobResult, info, reference: bool) -> list[str]:
    if job.problem:
        return [job.problem]
    output = job.output.decode("utf-8")
    problems = check_physics(workload, output, job.stdout, info)
    if reference:
        problems += check_reference(workload, output, job.stdout)
    return problems


def tail(times: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND jobs beyond it.

    With too few jobs for that, the maximum is returned as the 100th percentile.
    """
    ordered = sorted(times)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def setup_probe(workload: Workload, seed: int, smoke: bool) -> tuple[float, float]:
    """Set up in a fresh interpreter: import mp4wm.cli plus one warm-up job.

    Returns the setup time and the kernel time measured after it.
    """
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-probe",
           "--workload", workload.name, "--seed", str(seed)] + (["--smoke"] if smoke else [])
    proc = subprocess.run(cmd, cwd=ROOT, env=os.environ.copy(), capture_output=True,
                          text=True, timeout=PROBE_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"setup probe failed: {proc.stderr.strip()}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return result["setup_s"], result["kernel_s"]


def src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "mp4wm").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def git_sha() -> str | None:
    if not (ROOT / ".git").exists():  # a plain checkout: do not report an enclosing repo
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment(workload: Workload, n_samples: int) -> dict:
    import numpy
    import scipy
    return {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_sha": git_sha(),
        "src_sha256": src_digest(),
        "workload": workload.name,
        "n_samples": n_samples,
        THREADS_ENV: os.environ.get(THREADS_ENV, "unset"),
    }


def layer_metrics(layers: dict, points_ok: int, bytes_written: int) -> dict[str, float]:
    """Per-layer metric values of one traced job."""
    out = {name: float(layers.get(name, 0.0)) for name in PER_LAYER_UNITS}
    scan_wall = layers.get("experiments.scan.busy_ms", 0.0)
    run_busy = layers.get("experiments.run_single.busy_ms", 0.0)
    out.update({
        "coupling.transfer_entries.bytes_computed":
            layers.get("coupling.transfer_entries.bins", 0) * 4 * 16,  # 4 complex128 outputs
        "experiments.scan.wall_ms": scan_wall,
        "experiments.scan.concurrency": run_busy / scan_wall if scan_wall else 0.0,
        "experiments.points_ok": float(points_ok),
        "config.parse_config.ms": layers.get("config.parse_config.busy_ms", 0.0),
        "cli.main.ms": layers.get("cli.main.busy_ms", 0.0),
        "cli.self_ms": layers.get("cli.main.self_ms", 0.0),
        "cli.bytes_written": float(bytes_written),
    })
    return out


def points_ok(workload: Workload, output: bytes) -> int:
    """Non-blank result rows of one job (a run job is one point)."""
    if workload.scan is None:
        return 1
    rows = output.decode("utf-8").splitlines()[1:]
    return sum(1 for row in rows if row.split(",")[1])


def report(correct, attempted, failed, metrics: dict, units: dict):
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }))


def probe_main(args, workload: Workload) -> int:
    workdir = Path(tempfile.mkdtemp(prefix="probe-", dir=OUT_DIR))
    try:
        text, _ = workload.config(args.seed, args.smoke)
        config = write_config(workdir, "job.cfg", text)
        t0 = perf_counter()
        jobs = Jobs(import_cli(), workload, workdir)
        job = jobs.run(jobs.argv(config))
        setup = perf_counter() - t0
        kernel_s = calibrate.settled()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if job.problem:
        print(f"perfbench: warm-up job failed: {job.problem}", file=sys.stderr)
        return 1
    print(json.dumps({"setup_s": setup, "kernel_s": kernel_s}))
    return 0


def bench_main(args, workload: Workload) -> int:
    text, info = workload.config(args.seed, args.smoke)
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=OUT_DIR))
    try:
        config = write_config(workdir, "job.cfg", text)
        ref_config = write_config(workdir, "ref.cfg", workload.config(DEFAULT_SEED)[0])

        t0 = perf_counter()
        jobs = Jobs(import_cli(), workload, workdir)
        argv = jobs.argv(config)
        warm = jobs.run(argv)
        setups = [(perf_counter() - t0, calibrate.settled())]
        if warm.problem:
            print(f"perfbench: warm-up job failed: {warm.problem}", file=sys.stderr)
            return 1
        problems = full_check(workload, warm, info,
                              reference=args.seed == DEFAULT_SEED and not args.smoke)
        attempted, failed = 1, int(bool(problems))

        tracer = Tracer() if args.trace else None
        untraced, traced = [], []
        scaled, scaled_traced = [], []   # job times at reference speed
        kernel = [calibrate.measure()]
        end = perf_counter() + args.seconds
        while perf_counter() < end:
            trace_this = tracer is not None and len(untraced) > len(traced)
            if trace_this:
                tracer.install()
                tracer.begin_job(attempted)
            try:
                job = jobs.run(argv)
            finally:
                if trace_this:
                    tracer.end_job()
                    tracer.uninstall()
            attempted += 1
            problem = job.problem or (
                None if job.digest == warm.digest else "output differs from the first job"
            )
            if problem:
                failed += 1
                problems.append(problem)
            else:
                (traced if trace_this else untraced).append(job.seconds)
            kernel.append(calibrate.measure())
            if not problem:
                (scaled_traced if trace_this else scaled).append(
                    job.seconds * calibrate.NOMINAL_S / statistics.mean(kernel[-2:]))
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        if args.seed != DEFAULT_SEED and not args.smoke:
            ref = jobs.run(jobs.argv(ref_config))
            attempted += 1
            ref_problems = full_check(workload, ref, workload.config(DEFAULT_SEED)[1], True)
            failed += int(bool(ref_problems))
            problems += [f"seed-{DEFAULT_SEED} job: {p}" for p in ref_problems]

        if not untraced or (tracer is not None and not traced):
            problems.append("no job completed cleanly within the measured window")
            failed += 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for p in problems[:10]:
        print(f"perfbench: check failed: {p}", file=sys.stderr)
    correct = not problems
    env = environment(workload, info["n_samples"])
    print(f"workload {workload.name}: {workload.why}")
    print(f"seed {args.seed}  trace {args.trace}  jobs {attempted} attempted, "
          f"{failed} failed (failed_ops_share {failed / attempted:.4g})")

    if tracer is None:
        setups += [setup_probe(workload, args.seed, args.smoke)
                   for _ in range(SETUP_SAMPLES - 1)]
        tail_s, tail_pct = tail(scaled)
        metrics = {
            "job_ms_p50": statistics.median(scaled) * 1e3,
            "job_ms_tail": tail_s * 1e3,
            "points_per_s": info["points"] * len(scaled) / sum(scaled),
            "setup_s": statistics.median(t * calibrate.NOMINAL_S / k for t, k in setups),
            "peak_rss_mb": peak_rss_mb,
        }
        print(f"  machine speed: kernel median {statistics.median(kernel) * 1e3:.4g} ms "
              f"(nominal {calibrate.NOMINAL_S * 1e3:.4g} ms); unscaled job_ms_p50 "
              f"{statistics.median(untraced) * 1e3:.6g} ms, setup_s "
              f"{statistics.median(t for t, _ in setups):.6g} s")
        notes = {
            "job_ms_p50": f"median of {len(untraced)} jobs",
            "job_ms_tail": f"p{tail_pct:.1f} of {len(untraced)} jobs, "
                           f"{0 if tail_pct == 100 else TAIL_BEYOND} beyond it",
            "points_per_s": f"{info['points']} points/job at "
                            f"n_samples {info['n_samples']}",
            "setup_s": f"median of {len(setups)} setups",
            "peak_rss_mb": "ru_maxrss of this process",
        }
        for name, unit in END_TO_END_UNITS.items():
            print(f"  {name:<18} {metrics[name]:>12.6g} {unit:<5} {notes[name]}")
        print(f"  {'failed_ops_share':<18} {failed / attempted:>12.6g} {'':<5} "
              f"{failed} of {attempted} jobs")
        units = END_TO_END_UNITS
    else:
        ok = points_ok(workload, warm.output)
        written = len(warm.output) + len(warm.stdout.encode())
        per_job = [layer_metrics(job_layers(spans, counts), ok, written)
                   for spans, counts in tracer.jobs]
        metrics = {name: statistics.median(m[name] for m in per_job)
                   for name in PER_LAYER_UNITS if name != "trace.overhead_ms"}
        metrics["trace.overhead_ms"] = (
            statistics.median(scaled_traced) - statistics.median(scaled)) * 1e3
        trace_path = OUT_DIR / f"trace-{workload.name}-seed{args.seed}.jsonl.gz"
        tracer.write(trace_path)
        print(f"  per job: median of {len(traced)} traced jobs; untraced job_ms_p50 "
              f"{statistics.median(untraced) * 1e3:.6g} ms over {len(untraced)} jobs; "
              f"spans in {trace_path.relative_to(ROOT)}")
        for name, unit in PER_LAYER_UNITS.items():
            print(f"  {name:<42} {metrics[name]:>14.6g} {unit}")
        if tracer.absent:
            print(f"  absent (reported as 0): {', '.join(tracer.absent)}")
        units = PER_LAYER_UNITS
    print("env " + json.dumps(env))
    report(correct, attempted, failed, metrics, units)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="256 samples and 3 scan steps; no reference comparison")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, _terminate)

    workload = WORKLOADS[args.workload]
    if workload.threads is None:
        os.environ.pop(THREADS_ENV, None)
    else:
        os.environ[THREADS_ENV] = workload.threads
    OUT_DIR.mkdir(exist_ok=True)
    try:
        return (probe_main if args.setup_probe else bench_main)(args, workload)
    except ProgramMissing as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    except Terminated:
        return 128 + signal.SIGTERM


if __name__ == "__main__":
    sys.exit(main())
