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

from .coupling import entry_bounds, transfer_entries
from .errors import AliasingError, ContainmentError, FitError, GuardError
from .params import MediumParams

_CONTAINMENT_RATIO = 1e-6   # boundary intensity vs peak
_ALIASING_RATIO = 1e-6      # edge spectral magnitude vs spectral peak
_BAND_RATIO = 1e-16         # spectral magnitude vs peak that the kernel evaluates
_BAND_TOLERANCE = 1e-13     # bound of the skipped bins' output vs the output peak
_FIT_MIN_SAMPLES = 8
_FOUR_LN2 = 4.0 * math.log(2.0)


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _check_sample_count(n: int):
    if not 256 <= n <= 2**20 or (n & (n - 1)) != 0:
        raise GuardError(f"n_samples must be a power of two in [256, 2**20], got {n}")


@dataclass(frozen=True)
class TimeGrid:
    """Uniform time grid with n_samples a power of two from 256 to 2**20."""

    n_samples: int
    t_start: float
    t_step: float

    def __post_init__(self):
        _check_sample_count(self.n_samples)
        if not (self.t_step > 0 and math.isfinite(self.t_step)):
            raise GuardError("t_step must be positive and finite")

    @property
    def span(self) -> float:
        return self.n_samples * self.t_step

    @cached_property
    def times(self) -> np.ndarray:
        return _read_only(self.t_start + self.t_step * np.arange(self.n_samples))

    @cached_property
    def omegas(self) -> np.ndarray:
        """Angular frequency bins in FFT order."""
        return _read_only(2.0 * math.pi * np.fft.fftfreq(self.n_samples, self.t_step))

    @classmethod
    def centered(cls, window: float, n_samples: int, center: float = 0.0) -> "TimeGrid":
        _check_sample_count(n_samples)  # before the window is divided by it
        return cls(n_samples=n_samples, t_start=center - window / 2.0,
                   t_step=window / n_samples)


@dataclass(frozen=True)
class SpectralBand:
    """Split of a spectrum's FFT bins at `_BAND_RATIO` of its peak magnitude."""

    inside: np.ndarray     # indices where |S| > _BAND_RATIO * max |S|
    outside: np.ndarray    # the other indices
    outside_abs: np.ndarray  # |S| on `outside`


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
    def band(self) -> SpectralBand:
        """:class:`SpectralBand` of :attr:`spectrum`, computed once."""
        mag = np.abs(self.spectrum)
        kept = mag > _BAND_RATIO * mag.max()
        outside = np.flatnonzero(~kept)
        return SpectralBand(
            inside=_read_only(np.flatnonzero(kept)),
            outside=_read_only(outside),
            outside_abs=_read_only(mag[outside]),
        )

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
    with np.errstate(over="ignore"):  # far wings square to inf and exp to 0
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

    Continuous normalization, phase origin at the grid's first sample:
    S(w) = sum E(t) e^{-i w (t - t_start)} dt.  With `check`, errors out
    if spectral magnitude at the edge bins exceeds 1e-6 of the spectral
    peak (aliasing guard).
    """
    g = pulse.grid
    spec = np.fft.fft(pulse.envelope) * g.t_step
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


def from_spectrum(spectrum: np.ndarray, grid: TimeGrid) -> np.ndarray:
    """Envelope array of `spectrum`: :func:`to_spectrum` inverted, same phase origin."""
    spec = np.asarray(spectrum, dtype=complex)
    if spec.shape != (grid.n_samples,):
        raise GuardError("spectrum length must match the grid")
    return np.fft.ifft(spec) / grid.t_step


def _output_envelopes(
    p: MediumParams, pulse: SampledPulse, propagation_mode: str, dispersion_mode: str
) -> tuple[np.ndarray, np.ndarray]:
    """ifft(m_pp S0) and ifft(m_cp S0) as envelopes, the kernel run on the band.

    The bins outside the input's band add at most sum_k B_k |S0_k| / (N dt)
    to any output sample, with B_k from :func:`entry_bounds` (0 when no bin
    is outside).  Unless that is finite and within `_BAND_TOLERANCE` of the
    peak amplitude of each output, the kernel also fills the outside bins
    and both outputs are transformed again, which makes them the full-grid
    outputs.
    """
    grid = pulse.grid
    band = pulse.band
    specs = np.zeros((2, grid.n_samples), dtype=complex)  # m_pp S0 and m_cp S0

    def fill(bins: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        m_pp, _, m_cp, _ = transfer_entries(
            p, grid.omegas[bins], None, propagation_mode, dispersion_mode
        )
        for spec, m in zip(specs, (m_pp, m_cp)):
            spec[bins] = m * pulse.spectrum[bins]
        return from_spectrum(specs[0], grid), from_spectrum(specs[1], grid)

    # non-finite entries pass through silently; the output guards report them
    with np.errstate(invalid="ignore", over="ignore"):
        outputs = fill(band.inside)
        bounds = entry_bounds(p, grid.omegas[band.outside], None, dispersion_mode)
        scale = 1.0 / (grid.n_samples * grid.t_step)
        if all(
            _within_tolerance(float(np.dot(b, band.outside_abs)) * scale, env)
            for b, env in zip(bounds, outputs)
        ):
            return outputs
        return fill(band.outside)


def _within_tolerance(error_bound: float, envelope: np.ndarray) -> bool:
    """Whether `error_bound` is finite and at most `_BAND_TOLERANCE` of max |envelope|."""
    return math.isfinite(error_bound) and (
        error_bound <= _BAND_TOLERANCE * float(np.abs(envelope).max())
    )


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
    probe_env, conj_star_env = _output_envelopes(
        p, pulse, propagation_mode, dispersion_mode
    )
    probe = SampledPulse(grid, probe_env)
    # E_c*(-w) synthesized in time, conjugated back to E_c(t)
    conjugate = SampledPulse(grid, np.conj(conj_star_env))

    if propagation_mode == "exact":
        vac = np.exp(-1j * grid.omegas * p.cell_length / C_LIGHT)
        reference = SampledPulse(grid, from_spectrum(vac * spec0, grid))
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


def pulse_metrics(reference: SampledPulse, out: SampledPulse) -> PulseMetrics:
    """Metrics of one output pulse against the reference."""
    ref_fit = reference.fit
    fit = out.fit
    delay = fit.center - ref_fit.center
    return PulseMetrics(
        peak_time=fit.center,
        fwhm_intensity=fit.fwhm,
        gain_peak=fit.peak / ref_fit.peak,
        gain_energy=out.energy / reference.energy,
        delay_vs_reference=delay,
        broadening_fraction=fit.fwhm / ref_fit.fwhm - 1.0,
        fractional_delay=delay / ref_fit.fwhm,
    )
