"""Flat `key = value` configuration files.

All frequencies and rates are given as ordinary frequencies in MHz
(value = quantity / 2 pi), lengths in cm, times in ns; conversion to the
internal angular (rad/s) SI quantities happens here and nowhere else.
Unknown and duplicate keys are errors, with line numbers.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .coupling import DISPERSION_MODES, PROPAGATION_MODES
from .errors import ConfigError, GuardError
from .experiments import DELTA_POLICIES, PulseConfig
from .params import MediumParams

MHZ = 2.0 * math.pi * 1e6  # rad/s per MHz of ordinary frequency

_FLOAT_KEYS = {
    "omega_rabi_mhz",
    "delta_raman_mhz",
    "delta_one_mhz",
    "delta_two_photon_mhz",
    "gamma_mhz",
    "gamma_c_over_gamma",
    "eta0",
    "g2n_mhz2",
    "cell_length_cm",
    "fwhm_ns",
    "window_ns",
    "pulse_center_ns",
    "scan_start",
    "scan_stop",
}
_INT_KEYS = {"n_samples", "scan_steps"}
_STR_KEYS = {"dispersion_mode", "propagation_mode", "delta_policy"}
_ALL_KEYS = _FLOAT_KEYS | _INT_KEYS | _STR_KEYS

_DEFAULTS = {
    "delta_one_mhz": 0.0,
    "delta_two_photon_mhz": 0.0,
    "gamma_mhz": 6.0,
    "gamma_c_over_gamma": 0.5,
    "fwhm_ns": 70.0,
    "window_ns": 2000.0,
    "pulse_center_ns": 0.0,
    "n_samples": 4096,
    "dispersion_mode": "constant",
    "propagation_mode": "relative",
    "delta_policy": "track",
}

_REQUIRED = ("omega_rabi_mhz", "delta_raman_mhz", "cell_length_cm")


@dataclass(frozen=True)
class Config:
    """Parsed and validated configuration in config units."""

    omega_rabi_mhz: float
    delta_raman_mhz: float
    delta_one_mhz: float
    delta_two_photon_mhz: float
    gamma_mhz: float
    gamma_c_over_gamma: float
    eta0: float | None
    g2n_mhz2: float | None
    cell_length_cm: float
    fwhm_ns: float
    window_ns: float
    pulse_center_ns: float
    n_samples: int
    dispersion_mode: str
    propagation_mode: str
    delta_policy: str
    scan_start: float | None
    scan_stop: float | None
    scan_steps: int | None

    def to_medium_params(self) -> MediumParams:
        omega_rabi = self.omega_rabi_mhz * MHZ
        if self.eta0 is not None:
            g2n = self.eta0 * omega_rabi**2 / 4.0
        else:
            g2n = self.g2n_mhz2 * MHZ**2
        gamma = self.gamma_mhz * MHZ
        return MediumParams(
            omega_rabi=omega_rabi,
            delta_raman=self.delta_raman_mhz * MHZ,
            delta_one=self.delta_one_mhz * MHZ,
            delta_two_photon=self.delta_two_photon_mhz * MHZ,
            gamma=gamma,
            gamma_c=self.gamma_c_over_gamma * gamma,
            coupling_g2n=g2n,
            cell_length=self.cell_length_cm * 1e-2,
        )

    def to_pulse_config(self) -> PulseConfig:
        return PulseConfig(
            fwhm=self.fwhm_ns * 1e-9,
            window=self.window_ns * 1e-9,
            n_samples=self.n_samples,
            center=self.pulse_center_ns * 1e-9,
            propagation_mode=self.propagation_mode,
            dispersion_mode=self.dispersion_mode,
        )

    def scan_values(self):
        """The scan grid in config units (MHz or dimensionless scale)."""
        if self.scan_start is None or self.scan_stop is None or self.scan_steps is None:
            raise ConfigError(
                "scan_start, scan_stop and scan_steps are required for scans"
            )
        n = self.scan_steps
        step = (self.scan_stop - self.scan_start) / (n - 1)
        return [self.scan_start + i * step for i in range(n)]


def _parse_number(key: str, raw: str, line: int):
    try:
        if key in _INT_KEYS:
            return int(raw)
        value = float(raw)
    except ValueError:
        raise ConfigError(f"malformed number for {key}: {raw!r}", line)
    if not math.isfinite(value):
        raise ConfigError(f"{key} must be finite, got {raw!r}", line)
    return value


def parse_config(text: str) -> Config:
    """Parse and validate config text; raises :class:`ConfigError`."""
    values: dict = {}
    for lineno, rawline in enumerate(text.splitlines(), start=1):
        line = rawline.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"expected 'key = value', got {rawline.strip()!r}", lineno)
        key, _, raw = line.partition("=")
        key = key.strip()
        raw = raw.strip()
        if key not in _ALL_KEYS:
            raise ConfigError(f"unknown key {key!r}", lineno)
        if key in values:
            raise ConfigError(f"duplicate key {key!r}", lineno)
        if key in _STR_KEYS:
            values[key] = raw
        else:
            values[key] = _parse_number(key, raw, lineno)

    for key in _REQUIRED:
        if key not in values:
            raise ConfigError(f"missing required key {key!r}")
    if "eta0" in values and "g2n_mhz2" in values:
        raise ConfigError("eta0 and g2n_mhz2 are mutually exclusive")
    if "eta0" not in values and "g2n_mhz2" not in values:
        raise ConfigError("one of eta0 or g2n_mhz2 is required")

    merged = dict(_DEFAULTS)
    merged.update(values)
    merged.setdefault("eta0", None)
    merged.setdefault("g2n_mhz2", None)
    merged.setdefault("scan_start", None)
    merged.setdefault("scan_stop", None)
    merged.setdefault("scan_steps", None)

    if merged["scan_steps"] is not None and merged["scan_steps"] < 2:
        raise ConfigError("scan_steps must be >= 2")
    for key, allowed in (
        ("dispersion_mode", DISPERSION_MODES),
        ("propagation_mode", PROPAGATION_MODES),
        ("delta_policy", DELTA_POLICIES),
    ):
        if merged[key] not in allowed:
            raise ConfigError(f"unknown {key} {merged[key]!r}")
    for key in ("window_ns", "fwhm_ns"):
        if merged[key] <= 0:
            raise ConfigError(f"{key} must be > 0")

    cfg = Config(**merged)
    # surface parameter and grid invariant violations now
    cfg.to_medium_params()
    try:
        cfg.to_pulse_config().make_grid()
    except GuardError as exc:
        raise ConfigError(str(exc)) from None
    return cfg
