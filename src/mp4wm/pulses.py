"""Time/frequency grids, Gaussian pulses, propagation and pulse metrics.

Spectra use the NumPy FFT convention (forward kernel e^{-i w t}); see
:mod:`mp4wm.coupling` for how that fixes the sign of delays.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy.constants import c as C_LIGHT

from .coupling import transfer_entries
from .errors import AliasingError, ContainmentError, FitError, GuardError
from .params import MediumParams

_CONTAINMENT_RATIO = 1e-6   # boundary intensity vs peak
_ALIASING_RATIO = 1e-6      # edge spectral magnitude vs spectral peak
_FIT_MIN_SAMPLES = 8
_FOUR_LN2 = 4.0 * math.log(2.0)


@dataclass(frozen=True)
class TimeGrid:
    """Uniform time grid with n_samples a power of two from 256 to 2**20."""

    n_samples: int
    t_start: float
    t_step: float

    def __post_init__(self):
        n = self.n_samples
        if not 256 <= n <= 2**20 or (n & (n - 1)) != 0:
            raise GuardError(
                f"n_samples must be a power of two in [256, 2**20], got {n}"
            )
        if not (self.t_step > 0 and math.isfinite(self.t_step)):
            raise GuardError("t_step must be positive and finite")

    @property
    def span(self) -> float:
        return self.n_samples * self.t_step

    @property
    def times(self) -> np.ndarray:
        return self.t_start + self.t_step * np.arange(self.n_samples)

    @property
    def omegas(self) -> np.ndarray:
        """Angular frequency bins in FFT order."""
        return 2.0 * math.pi * np.fft.fftfreq(self.n_samples, self.t_step)

    @classmethod
    def centered(cls, window: float, n_samples: int, center: float = 0.0) -> "TimeGrid":
        return cls(n_samples=n_samples, t_start=center - window / 2.0,
                   t_step=window / n_samples)


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class SampledPulse:
    """Complex envelope sampled on a :class:`TimeGrid`."""

    grid: TimeGrid
    envelope: np.ndarray
    intensity: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        env = np.asarray(self.envelope, dtype=complex)
        if env.shape != (self.grid.n_samples,):
            raise GuardError("envelope length must match the grid")
        with np.errstate(over="ignore", invalid="ignore"):
            inten = np.abs(env) ** 2
        if not np.all(np.isfinite(inten)):
            if not np.all(np.isfinite(env)):
                raise GuardError("envelope must be finite everywhere")
            raise GuardError("intensity overflows double precision; the gain is too large")
        object.__setattr__(self, "envelope", _read_only(env.copy()))
        object.__setattr__(self, "intensity", _read_only(inten))

    @cached_property
    def spectrum(self) -> np.ndarray:
        """Aliasing-checked :func:`to_spectrum` of the pulse, computed once."""
        return _read_only(to_spectrum(self))

    @cached_property
    def energy(self) -> float:
        return float(np.sum(self.intensity) * self.grid.t_step)

    @cached_property
    def fit(self) -> "GaussianFit":
        """:func:`fit_gaussian` of the pulse, computed once."""
        return fit_gaussian(self)

    def check_containment(self, label: str = "pulse"):
        inten = self.intensity
        peak = float(inten.max())
        if peak == 0.0:
            return
        edge = max(inten[0], inten[-1])
        if edge >= _CONTAINMENT_RATIO * peak:
            raise ContainmentError(
                f"{label} intensity at the window edge is {edge / peak:.2e} of "
                f"the peak (limit {_CONTAINMENT_RATIO:g}); enlarge the time window"
            )


def make_gaussian_pulse(
    grid: TimeGrid, fwhm_intensity: float, center: float = 0.0,
    peak_amplitude: float = 1.0,
) -> SampledPulse:
    """Gaussian pulse whose *intensity* FWHM is `fwhm_intensity`."""
    if fwhm_intensity <= 0:
        raise GuardError("fwhm must be > 0")
    t = grid.times
    env = peak_amplitude * np.exp(
        -2.0 * math.log(2.0) * ((t - center) / fwhm_intensity) ** 2
    )
    pulse = SampledPulse(grid=grid, envelope=env.astype(complex))
    try:
        pulse.check_containment("input pulse")
    except ContainmentError:
        # report the window the caller actually needs
        half = fwhm_intensity * math.sqrt(-math.log(_CONTAINMENT_RATIO) / _FOUR_LN2)
        raise ContainmentError(
            f"gaussian of fwhm {fwhm_intensity:g} s centered at {center:g} s "
            f"needs a window covering [{center - half:g}, {center + half:g}] s"
        ) from None
    return pulse


def to_spectrum(pulse: SampledPulse, check: bool = True) -> np.ndarray:
    """Spectrum on the grid's FFT-ordered frequency bins.

    Continuous normalization: S(w) = sum E(t) e^{-i w t} dt.  With
    `check`, errors out if spectral magnitude at the edge bins exceeds
    1e-6 of the spectral peak (aliasing guard).
    """
    g = pulse.grid
    spec = np.fft.fft(np.asarray(pulse.envelope)) * g.t_step
    spec = spec * np.exp(-1j * g.omegas * g.t_start)
    if check:
        peak = float(np.abs(spec).max())
        if peak > 0.0:
            n = g.n_samples
            edge = float(np.abs(spec[n // 2 - 1: n // 2 + 2]).max())
            if edge >= _ALIASING_RATIO * peak:
                raise AliasingError(
                    f"spectral magnitude at the grid edge is {edge / peak:.2e} "
                    f"of the peak (limit {_ALIASING_RATIO:g}); refine t_step"
                )
    return spec


def from_spectrum(spectrum: np.ndarray, grid: TimeGrid) -> SampledPulse:
    """Inverse of :func:`to_spectrum` on the same grid."""
    spec = np.asarray(spectrum, dtype=complex)
    if spec.shape != (grid.n_samples,):
        raise GuardError("spectrum length must match the grid")
    env = np.fft.ifft(spec * np.exp(1j * grid.omegas * grid.t_start)) / grid.t_step
    return SampledPulse(grid=grid, envelope=env)


@dataclass(frozen=True)
class PropagationResult:
    reference: SampledPulse
    probe: SampledPulse
    conjugate: SampledPulse


def propagate_pulse(
    p: MediumParams,
    pulse: SampledPulse,
    propagation_mode: str = "relative",
    dispersion_mode: str = "constant",
) -> PropagationResult:
    """Propagate a probe pulse (no seed conjugate) through the cell.

    Returns the vacuum reference, the amplified probe and the generated
    conjugate, all on the input grid.  The conjugate is returned as
    E_c(t), conjugated back from the E_c*(-w) solution so that its
    intensity is directly plottable.
    """
    pulse.check_containment("input pulse")
    spec0 = pulse.spectrum
    grid = pulse.grid
    omegas = grid.omegas
    m_pp, _, m_cp, _ = transfer_entries(
        p, omegas, None, propagation_mode, dispersion_mode
    )

    probe = from_spectrum(m_pp * spec0, grid)
    conj_star = from_spectrum(m_cp * spec0, grid)  # E_c*(-w) synthesized in time
    conjugate = SampledPulse(grid=grid, envelope=np.conj(conj_star.envelope))

    if propagation_mode == "exact":
        vac = np.exp(-1j * omegas * p.cell_length / C_LIGHT)
        reference = from_spectrum(vac * spec0, grid)
    else:
        reference = pulse

    probe.check_containment("propagated probe")
    conjugate.check_containment("generated conjugate")
    return PropagationResult(reference=reference, probe=probe, conjugate=conjugate)


@dataclass(frozen=True)
class GaussianFit:
    center: float
    fwhm: float
    peak: float  # peak *intensity*


def fit_gaussian(pulse: SampledPulse) -> GaussianFit:
    """Fit a Gaussian to the pulse intensity.

    Weighted linear least squares of a parabola on log-intensity over the
    samples within 1/e^2 of the peak; exact for noiseless Gaussians.
    Errors out when no unique dominant peak exists, when fewer than
    8 samples lie above threshold, or when the curvature is not negative.
    """
    inten = pulse.intensity
    peak = float(inten.max())
    if peak <= 0.0:
        raise FitError("cannot fit an all-zero pulse")
    mask = inten >= peak * math.exp(-2.0)
    idx = np.flatnonzero(mask)
    if idx.size < _FIT_MIN_SAMPLES:
        raise FitError(f"only {idx.size} samples above the 1/e^2 threshold")
    if np.any(np.diff(idx) != 1):
        raise FitError("no unique dominant peak: 1/e^2 region is not contiguous")

    t = pulse.grid.times[idx]
    t0 = t[np.argmax(inten[idx])]
    # fit in nanoseconds around the discrete peak to keep the Vandermonde sane
    x = (t - t0) / 1e-9
    y = np.log(inten[idx])
    # polyfit squares the weights: effective weight I^2, scaled by the peak
    # so that squaring cannot overflow
    w = inten[idx] / peak
    a, b, c = np.polyfit(x, y, 2, w=w)
    if a >= 0.0:
        raise FitError("non-negative log-intensity curvature: not a pulse")
    center_ns = -b / (2.0 * a)
    return GaussianFit(
        center=t0 + center_ns * 1e-9,
        fwhm=math.sqrt(-_FOUR_LN2 / a) * 1e-9,
        peak=math.exp(c - b * b / (4.0 * a)),
    )


@dataclass(frozen=True)
class PulseMetrics:
    """Experiment-style figures of one output pulse vs the reference."""

    peak_time: float
    fwhm_intensity: float
    gain_peak: float
    gain_energy: float
    delay_vs_reference: float
    broadening_fraction: float
    fractional_delay: float
    centroid_time: float  # diagnostic; delays are taken from the fit


def _centroid(pulse: SampledPulse) -> float:
    inten = pulse.intensity
    total = float(inten.sum())
    if total == 0.0:
        return math.nan
    return float((pulse.grid.times * inten).sum() / total)


def _metrics_vs(ref: SampledPulse, out: SampledPulse) -> PulseMetrics:
    ref_fit = ref.fit
    fit = out.fit
    delay = fit.center - ref_fit.center
    return PulseMetrics(
        peak_time=fit.center,
        fwhm_intensity=fit.fwhm,
        gain_peak=fit.peak / ref_fit.peak,
        gain_energy=out.energy / ref.energy,
        delay_vs_reference=delay,
        broadening_fraction=fit.fwhm / ref_fit.fwhm - 1.0,
        fractional_delay=delay / ref_fit.fwhm,
        centroid_time=_centroid(out),
    )


def pulse_metrics(
    reference: SampledPulse,
    probe_out: SampledPulse,
    conjugate_out: SampledPulse | None = None,
) -> tuple[PulseMetrics, PulseMetrics | None]:
    """Metrics of the probe and conjugate outputs against the reference.

    The conjugate metrics are None when `conjugate_out` is None.
    """
    probe_m = _metrics_vs(reference, probe_out)
    if conjugate_out is None:
        return probe_m, None
    return probe_m, _metrics_vs(reference, conjugate_out)
