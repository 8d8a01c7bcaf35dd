#!/usr/bin/env python3
"""Regenerate ``reference/`` from the program in ``src/``, at seed 0.

    python3 perfbench/make_reference.py

Run it only at a commit whose outputs are meant to become the reference:
the benchmark's correctness check compares every later commit with them.
"""
from __future__ import annotations

import gzip
import os
import shutil
import sys
import tempfile
from pathlib import Path

from run import OUT_DIR, THREADS_ENV, Jobs, import_cli, write_config
from workloads import DEFAULT_SEED, REFERENCE_DIR, WORKLOADS, floor_small_cells, reference_paths


def main() -> int:
    cli = import_cli()
    OUT_DIR.mkdir(exist_ok=True)
    REFERENCE_DIR.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="reference-", dir=OUT_DIR)
    try:
        for workload in WORKLOADS.values():
            if workload.threads is None:
                os.environ.pop(THREADS_ENV, None)
            else:
                os.environ[THREADS_ENV] = workload.threads
            jobs = Jobs(cli, workload, Path(workdir))
            text, _ = workload.config(DEFAULT_SEED)
            job = jobs.run(jobs.argv(write_config(jobs.workdir, "job.cfg", text)))
            if job.problem:
                print(f"{workload.name}: {job.problem}", file=sys.stderr)
                return 1
            csv_path, stdout_path = reference_paths(workload)
            table = floor_small_cells(job.output.decode("utf-8")).encode("utf-8")
            with open(csv_path, "wb") as raw:
                with gzip.GzipFile(fileobj=raw, mode="wb", mtime=0) as fh:
                    fh.write(table)
            stdout_path.write_text(job.stdout, encoding="utf-8")
            print(f"{workload.name}: {csv_path.stat().st_size} B gzip, "
                  f"{job.seconds * 1e3:.1f} ms")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
