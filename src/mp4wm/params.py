"""Physical parameters of the double-lambda medium and derived scalars.

All frequencies and rates are stored as angular quantities (rad/s).
Conversion from the ordinary-frequency (MHz) units used in configuration
files happens exactly once, at the config boundary (see :mod:`mp4wm.config`).
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, fields, replace

from scipy.constants import c as C_LIGHT

from .errors import ConfigError

TWO_PI = 2.0 * math.pi

# "much greater than" threshold for the model-validity warnings
_VALIDITY_FACTOR = 10.0


class ModelValidityWarning(UserWarning):
    """The parameters leave the asymptotic regime the model assumes."""


@dataclass(frozen=True)
class MediumParams:
    """All physical inputs of the propagation model.

    Attributes
    ----------
    omega_rabi : float
        Peak pump Rabi frequency (rad/s). Both lambda transitions are
        driven with the same value.
    delta_raman : float
        Detuning of the far-detuned ("upper") lambda from the excited
        state (rad/s).
    delta_one : float
        One-photon detuning of the near-resonant ("lower") lambda (rad/s).
    delta_two_photon : float
        Two-photon detuning from the bare Raman resonance (rad/s).
    gamma : float
        Atomic transition linewidth (rad/s).
    gamma_c : float
        Ground-state decoherence rate (rad/s).
    coupling_g2n : float
        Collective coupling strength g^2 N ((rad/s)^2). Opaque product;
        may be set directly or derived from a target slow-down factor.
    cell_length : float
        Propagation distance through the medium (m).
    """

    omega_rabi: float
    delta_raman: float
    delta_one: float
    delta_two_photon: float
    gamma: float
    gamma_c: float
    coupling_g2n: float
    cell_length: float

    def __post_init__(self):
        # Omega first: an overflowing Omega^2 also makes a g^2 N from eta0 infinite
        if self.omega_rabi <= 0:
            raise ConfigError("omega_rabi must be > 0")
        if not 0.0 < self.omega_rabi * self.omega_rabi < math.inf:
            raise ConfigError(
                f"omega_rabi squared must be finite and > 0, got {self.omega_rabi!r} rad/s"
            )
        for f in fields(self):
            value = float(getattr(self, f.name))
            if not math.isfinite(value):
                raise ConfigError(f"{f.name} must be finite, got {value!r}")
        if self.delta_raman <= 0:
            raise ConfigError("delta_raman must be > 0")
        if self.gamma <= 0:
            raise ConfigError("gamma must be > 0")
        if self.gamma_c < 0:
            raise ConfigError("gamma_c must be >= 0")
        if self.coupling_g2n <= 0:
            raise ConfigError("coupling_g2n must be > 0")
        # z = 0 is a legal degenerate run (identity propagation)
        if self.cell_length < 0:
            raise ConfigError("cell_length must be >= 0")
        self._check_validity()

    def _check_validity(self):
        """Warn (never raise) when the asymptotic limits do not hold."""
        if self.delta_one > 0:
            scale = self.omega_rabi**2 / (4.0 * self.delta_one)
            small = max(abs(self.delta_two_photon), self.gamma_c)
            if small > 0 and scale < _VALIDITY_FACTOR * small:
                warnings.warn(
                    "pump Rabi coupling does not dominate the two-photon "
                    "detuning/decoherence; dispersive corrections to the "
                    "slow-down factor may be significant",
                    ModelValidityWarning,
                )
        if self.delta_raman < _VALIDITY_FACTOR * max(self.delta_one, self.gamma):
            warnings.warn(
                "upper-lambda detuning is not far off resonance compared "
                "with the lower lambda and the linewidth",
                ModelValidityWarning,
            )

    def scaled_density(self, s: float) -> "MediumParams":
        """Multiply the coupling strength g^2 N by `s` (density scaling)."""
        if s <= 0:
            raise ConfigError("density scale must be > 0")
        return replace(self, coupling_g2n=self.coupling_g2n * s)

    def replace(self, **kwargs) -> "MediumParams":
        return replace(self, **kwargs)


@dataclass(frozen=True)
class DerivedCoefficients:
    """Scalar coefficients derived from :class:`MediumParams`."""

    eta0: float           # slow-down factor, 4 g^2 N / Omega^2
    delta_r: float        # Raman bandwidth, also the light shift Omega^2/4Delta (rad/s)
    alpha0: float         # cross-coupling eta0 * delta_r (rad/s)
    delta_tilde: float    # light-shifted two-photon detuning (rad/s)
    v_group: float        # c / eta0 (m/s)
    saturation_rabi: float  # 2 sqrt(Delta * gamma) (rad/s)


def derive_coefficients(p: MediumParams) -> DerivedCoefficients:
    """Compute every derived scalar of the model. Pure and deterministic."""
    eta0 = 4.0 * p.coupling_g2n / p.omega_rabi**2
    delta_r = p.omega_rabi**2 / (4.0 * p.delta_raman)
    return DerivedCoefficients(
        eta0=eta0,
        delta_r=delta_r,
        alpha0=eta0 * delta_r,
        delta_tilde=p.delta_two_photon - delta_r,
        v_group=C_LIGHT / eta0,
        saturation_rabi=2.0 * math.sqrt(p.delta_raman * p.gamma),
    )


def eta_of_omega(p: MediumParams, omega, mode: str = "constant"):
    """Slow-down factor at envelope frequency `omega`.

    `mode="full"` evaluates the dispersive form
    g^2 N / [Omega^2/4 + Delta_1 (delta + omega + i gamma_c)];
    `mode="constant"` returns the flat approximation 4 g^2 N / Omega^2.
    Accepts scalar or ndarray `omega`; returns complex values.
    """
    if mode == "constant":
        return (4.0 * p.coupling_g2n / p.omega_rabi**2) + 0j * omega
    if mode == "full":
        denom = p.omega_rabi**2 / 4.0 + p.delta_one * (
            p.delta_two_photon + omega + 1j * p.gamma_c
        )
        return p.coupling_g2n / denom
    raise ConfigError(f"unknown dispersion mode {mode!r}")
