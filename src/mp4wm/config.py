"""Flat `key = value` configuration files.

All frequencies and rates are given as ordinary frequencies in MHz
(value = quantity / 2 pi), lengths in cm, times in ns; conversion to the
internal angular (rad/s) SI quantities happens here and nowhere else.
Unknown and duplicate keys are errors, with line numbers.
"""
from __future__ import annotations

import math
from dataclasses import MISSING, dataclass, fields

from .errors import ConfigError, GuardError
from .experiments import DELTA_POLICIES, PulseConfig
from .params import MediumParams

MHZ = 2.0 * math.pi * 1e6  # rad/s per MHz of ordinary frequency

# the keys that do not parse as floats; every other key is a float
_INT_KEYS = {"n_samples", "scan_steps"}
_STR_KEYS = {"dispersion_mode", "propagation_mode", "delta_policy"}
MAX_SCAN_STEPS = 100_000  # scan_values() builds the whole grid as a list


@dataclass(frozen=True, kw_only=True)
class Config:
    """Parsed and validated configuration in config units.

    Each field is one config key; a field without a default is required.
    """

    omega_rabi_mhz: float
    delta_raman_mhz: float
    cell_length_cm: float
    eta0: float | None = None  # exactly one of eta0 and g2n_mhz2 is set
    g2n_mhz2: float | None = None
    delta_one_mhz: float = 0.0
    delta_two_photon_mhz: float = 0.0
    gamma_mhz: float = 6.0
    gamma_c_over_gamma: float = 0.5
    fwhm_ns: float = 70.0
    window_ns: float = 2000.0
    pulse_center_ns: float = 0.0
    n_samples: int = 4096
    dispersion_mode: str = "constant"
    propagation_mode: str = "relative"
    delta_policy: str = "track"
    scan_start: float | None = None
    scan_stop: float | None = None
    scan_steps: int | None = None

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
    keys = {f.name: f for f in fields(Config)}
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
        if key not in keys:
            raise ConfigError(f"unknown key {key!r}", lineno)
        if key in values:
            raise ConfigError(f"duplicate key {key!r}", lineno)
        if key in _STR_KEYS:
            values[key] = raw
        else:
            values[key] = _parse_number(key, raw, lineno)

    for key, f in keys.items():
        if f.default is MISSING and key not in values:
            raise ConfigError(f"missing required key {key!r}")
    if "eta0" in values and "g2n_mhz2" in values:
        raise ConfigError("eta0 and g2n_mhz2 are mutually exclusive")
    if "eta0" not in values and "g2n_mhz2" not in values:
        raise ConfigError("one of eta0 or g2n_mhz2 is required")

    cfg = Config(**values)
    if cfg.scan_steps is not None and cfg.scan_steps < 2:
        raise ConfigError("scan_steps must be >= 2")
    if cfg.scan_steps is not None and cfg.scan_steps > MAX_SCAN_STEPS:
        raise ConfigError(f"scan_steps must be <= {MAX_SCAN_STEPS}")
    if cfg.delta_policy not in DELTA_POLICIES:
        raise ConfigError(f"unknown delta_policy {cfg.delta_policy!r}")
    for key in ("window_ns", "fwhm_ns"):
        if getattr(cfg, key) <= 0:
            raise ConfigError(f"{key} must be > 0")

    # surface parameter, mode and grid invariant violations now
    cfg.to_medium_params()
    try:
        cfg.to_pulse_config().make_grid()
    except GuardError as exc:
        raise ConfigError(str(exc)) from None
    return cfg
