"""Flat `key = value` configuration files.

All frequencies and rates are given as ordinary frequencies in MHz
(value = quantity / 2 pi), lengths in cm, times in ns; conversion to the
internal angular (rad/s) SI quantities happens here and nowhere else.
Unknown and duplicate keys are errors, with line numbers.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import MISSING, dataclass, field, fields

from .errors import ConfigError, GuardError
from .experiments import DELTA_POLICIES
from .params import DISPERSION_MODES, MediumParams
from .pulses import PROPAGATION_MODES, Propagator, TimeGrid

MHZ = 2.0 * math.pi * 1e6  # rad/s per MHz of ordinary frequency

# the keys that do not parse as floats: integers, and strings with their values
_INT_KEYS = {"n_samples", "scan_steps"}
_STR_KEYS = {"dispersion_mode": DISPERSION_MODES, "propagation_mode": PROPAGATION_MODES,
             "delta_policy": DELTA_POLICIES}
MAX_SCAN_STEPS = 100_000  # scan_values() builds the whole grid as a list


@dataclass(frozen=True, kw_only=True)
class Config:
    """Validated configuration in config units, with its medium and time grid.

    Each ``init`` field is one config key; a field without a default is
    required.  A Config checks its rules when it is built, however it is
    built, and builds :attr:`medium` (SI units) and :attr:`grid` then, once.
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
    medium: MediumParams = field(init=False, repr=False, compare=False)
    grid: TimeGrid = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for key, allowed in _STR_KEYS.items():
            if getattr(self, key) not in allowed:
                raise ConfigError(f"unknown {key} {getattr(self, key)!r}")
        if self.eta0 is not None and self.g2n_mhz2 is not None:
            raise ConfigError("eta0 and g2n_mhz2 are mutually exclusive")
        if self.eta0 is None and self.g2n_mhz2 is None:
            raise ConfigError("one of eta0 or g2n_mhz2 is required")
        if self.scan_steps is not None and not isinstance(self.scan_steps, numbers.Integral):
            raise ConfigError(f"scan_steps must be an integer, got {self.scan_steps!r}")
        if self.scan_steps is not None and self.scan_steps < 2:
            raise ConfigError("scan_steps must be >= 2")
        if self.scan_steps is not None and self.scan_steps > MAX_SCAN_STEPS:
            raise ConfigError(f"scan_steps must be <= {MAX_SCAN_STEPS}")
        for key in ("window_ns", "fwhm_ns"):
            if getattr(self, key) <= 0:
                raise ConfigError(f"{key} must be > 0")

        omega_rabi = self.omega_rabi_mhz * MHZ
        if self.eta0 is not None:
            try:
                g2n = self.eta0 * omega_rabi**2 / 4.0
            except OverflowError:  # MediumParams rejects this Omega and says why
                g2n = math.inf
        else:
            g2n = self.g2n_mhz2 * MHZ**2
        gamma = self.gamma_mhz * MHZ
        object.__setattr__(self, "medium", MediumParams(
            omega_rabi=omega_rabi,
            delta_raman=self.delta_raman_mhz * MHZ,
            delta_one=self.delta_one_mhz * MHZ,
            delta_two_photon=self.delta_two_photon_mhz * MHZ,
            gamma=gamma,
            gamma_c=self.gamma_c_over_gamma * gamma,
            coupling_g2n=g2n,
            cell_length=self.cell_length_cm * 1e-2,
            dispersion_mode=self.dispersion_mode,
        ))
        try:
            grid = TimeGrid.centered(self.window_ns * 1e-9, self.n_samples,
                                     self.pulse_center_ns * 1e-9)
        except GuardError as exc:
            raise ConfigError(str(exc)) from None
        object.__setattr__(self, "grid", grid)

    def propagator(self) -> Propagator:
        """A :meth:`Propagator.gaussian` of a newly built input pulse."""
        return Propagator.gaussian(self.grid, self.fwhm_ns * 1e-9, self.pulse_center_ns * 1e-9,
                                   self.propagation_mode)

    def scan_values(self):
        """The scan grid in config units (MHz or dimensionless scale)."""
        if self.scan_start is None or self.scan_stop is None or self.scan_steps is None:
            raise ConfigError(
                "scan_start, scan_stop and scan_steps are required for scans"
            )
        step = (self.scan_stop - self.scan_start) / (self.scan_steps - 1)
        return [self.scan_start + i * step for i in range(self.scan_steps)]


def _parse_number(key: str, raw: str, line: int):
    try:
        if key in _INT_KEYS:
            return int(raw)
        value = float(raw)
    except ValueError:
        raise ConfigError(f"line {line}: malformed number for {key}: {raw!r}")
    if not math.isfinite(value):
        raise ConfigError(f"line {line}: {key} must be finite, got {raw!r}")
    return value


def parse_config(text: str) -> Config:
    """The :class:`Config` of config text; raises :class:`ConfigError`."""
    keys = {f.name: f for f in fields(Config) if f.init}
    values: dict = {}
    for lineno, rawline in enumerate(text.splitlines(), start=1):
        line = rawline.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(
                f"line {lineno}: expected 'key = value', got {rawline.strip()!r}"
            )
        key, _, raw = line.partition("=")
        key = key.strip()
        raw = raw.strip()
        if key not in keys:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        if key in _STR_KEYS and raw not in _STR_KEYS[key]:
            raise ConfigError(f"line {lineno}: unknown {key} {raw!r}")
        values[key] = raw if key in _STR_KEYS else _parse_number(key, raw, lineno)

    for key, f in keys.items():
        if f.default is MISSING and key not in values:
            raise ConfigError(f"missing required key {key!r}")
    return Config(**values)
