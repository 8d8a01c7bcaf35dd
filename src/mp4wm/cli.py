"""Command-line surface: run, scan-delta, scan-density, scan-pump, derive.

Exit codes: 0 success, 2 config or file error, 3 numerical/guard error.
All CSV output uses 9 significant digits, '.' decimals and '\\n' endings,
so repeated runs with the same config are byte-identical.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
import warnings

import numpy as np

from .config import MHZ, Config, parse_config
from .coupling import analytic_delays
from .errors import ConfigError, GuardError, Mp4wmError
from .experiments import run_single, scan
from .params import derive_coefficients

TRACE_HEADER = "t_ns,ref,probe,conj"
# scan output column -> (ScanRecord field, factor from SI units); every row
# starts with a "var" column holding the scan value in config units
_SCAN_COLUMNS = {
    "gain_peak": ("gain_peak", 1.0),
    "gain_energy": ("gain_energy", 1.0),
    "probe_delay_ns": ("probe_delay", 1e9),
    "conj_delay_ns": ("conj_delay", 1e9),
    "dtau_ns": ("differential_delay", 1e9),
    "probe_broad": ("probe_broadening", 1.0),
    "conj_broad": ("conj_broadening", 1.0),
    "L": ("renorm_length", 1.0),
    "eta_inf": ("inferred_eta", 1.0),
    "xi_inf_per_s": ("inferred_xi", 1.0),
    "gain_pred": ("predicted_gain", 1.0),
}
SCAN_HEADER = ",".join(["var", *_SCAN_COLUMNS])


def _fmt(x) -> str:
    if x is None:
        return ""
    return f"{x:.9g}"


def _round9(x):
    """Round to 9 significant digits so JSON output round-trips exactly."""
    if x is None:
        return None
    return float(f"{x:.9g}")


def _load_config(path: str) -> Config:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc.strerror}")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"cannot read config {path}: not UTF-8 at byte {exc.start}")
    return parse_config(text)


def _write(path: str, content: str):
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(content)
    except OSError as exc:
        raise ConfigError(f"cannot write output {path}: {exc.strerror}")


def _metrics_dict(m, pulse) -> dict:
    inten = pulse.intensity  # fitted, so its sum is > 0
    with np.errstate(over="ignore", invalid="ignore"):
        centroid = float((pulse.grid.times * inten).sum() / float(inten.sum()))
    if not math.isfinite(centroid):
        raise GuardError("centroid overflows double precision; the gain is too large")
    return {
        "peak_time_ns": _round9(pulse.fit.center * 1e9),
        "fwhm_ns": _round9(pulse.fit.fwhm * 1e9),
        "gain_peak": _round9(m.gain_peak),
        "gain_energy": _round9(m.gain_energy),
        "delay_ns": _round9(m.delay_vs_reference * 1e9),
        "broadening_fraction": _round9(m.broadening_fraction),
        "fractional_delay": _round9(m.fractional_delay),
        "centroid_ns": _round9(centroid * 1e9),
    }


def _cmd_derive(cfg: Config, args) -> int:
    d = derive_coefficients(cfg.to_medium_params())
    out = {
        "eta0": _round9(d.eta0),
        "delta_r_mhz": _round9(d.delta_r / MHZ),
        "light_shift_mhz": _round9(d.delta_r / MHZ),  # equal to the Raman bandwidth
        "v_group_m_s": _round9(d.v_group),
        "saturation_rabi_mhz": _round9(d.saturation_rabi / MHZ),
    }
    for key, value in out.items():  # JSON has no non-finite numbers
        if not math.isfinite(value):
            raise GuardError(f"derived {key} is not finite: {value!r}")
    print(json.dumps(out, indent=2))
    return 0


def _cmd_run(cfg: Config, args) -> int:
    p = cfg.to_medium_params()
    res = run_single(p, cfg.to_pulse_config())
    tr = res.traces
    norm = tr.reference.intensity.max()
    cols = np.column_stack((
        tr.reference.grid.times * 1e9,
        tr.reference.intensity / norm,
        tr.probe.intensity / norm,
        tr.conjugate.intensity / norm,
    ))
    # one %-format over every cell writes the same digits as _fmt, row by row
    rows = ("%.9g,%.9g,%.9g,%.9g\n" * len(cols)) % tuple(cols.ravel().tolist())
    _write(args.out, f"{TRACE_HEADER}\n{rows}")

    metrics = {"probe": _metrics_dict(res.probe_metrics, tr.probe), "conjugate": None}
    if res.conjugate_metrics:
        metrics["conjugate"] = _metrics_dict(res.conjugate_metrics, tr.conjugate)
    try:
        ad = analytic_delays(p)
        metrics["analytic"] = {
            "tau_ns": _round9(ad.tau * 1e9),
            "dtau_locked_ns": _round9(ad.dtau_locked * 1e9),
            "peak_gain": _round9(ad.peak_gain),
        }
    except GuardError:
        pass
    print(json.dumps(metrics, indent=2))
    return 0


# scan subcommand -> (scan axis, SI value of one config unit of the scan variable)
_SCANS = {
    "scan-delta": ("delta", MHZ),
    "scan-density": ("density", 1.0),
    "scan-pump": ("pump", MHZ),
}


def _cmd_scan(cfg: Config, args) -> int:
    axis, unit = _SCANS[args.command]
    values = cfg.scan_values()
    records = scan(
        cfg.to_medium_params(),
        axis,
        [v * unit for v in values],
        cfg.to_pulse_config(),
        cfg.delta_policy,
    )
    rows = []
    for var, r in zip(values, records):
        row = [var]
        for field, factor in _SCAN_COLUMNS.values():
            x = getattr(r, field)
            row.append(None if x is None else x * factor)
        rows.append(row)
    if args.format == "json":
        header = SCAN_HEADER.split(",")
        payload = [dict(zip(header, map(_round9, row))) for row in rows]
        _write(args.out, json.dumps(payload, indent=2) + "\n")
    else:
        lines = [SCAN_HEADER] + [",".join(map(_fmt, row)) for row in rows]
        _write(args.out, "\n".join(lines) + "\n")
    return 0


_COMMANDS = {
    "run": _cmd_run,
    **{name: _cmd_scan for name in _SCANS},
    "derive": _cmd_derive,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mp4wm",
        description="Ultraslow matched-pulse propagation in double-lambda 4WM",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        sp = sub.add_parser(name)
        sp.add_argument("--config", required=True, help="path to key=value config")
        if name != "derive":  # derive prints to stdout and writes no file
            sp.add_argument("--out", required=True, help="output file path")
        if name in _SCANS:
            sp.add_argument("--format", choices=("csv", "json"), default="csv")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handler = _COMMANDS[args.command]
    # the active filters still decide which warnings count; the distinct
    # caught ones share one line after a success, and are dropped after an error
    with warnings.catch_warnings(record=True) as caught:
        try:
            cfg = _load_config(args.config)
            status = handler(cfg, args)
        except ConfigError as exc:
            print(f"mp4wm: config error: {exc}", file=sys.stderr)
            return 2
        except Mp4wmError as exc:
            print(f"mp4wm: error: {exc}", file=sys.stderr)
            return 3
    if caught:
        messages = "; ".join(dict.fromkeys(str(w.message) for w in caught))
        print(f"mp4wm: warning: {messages}", file=sys.stderr)
    return status


if __name__ == "__main__":
    sys.exit(main())
