"""Time/frequency grids, Gaussian pulses, propagation and pulse metrics.

Spectra use the NumPy FFT convention (forward kernel e^{-i w t}); see
:mod:`mp4wm.coupling` for how that fixes the sign of delays.
"""
from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .coupling import entry_bounds, peak_entry_bounds, transfer_entries
from .errors import AliasingError, ContainmentError, FitError, GuardError
from .params import C_LIGHT, MediumParams

PROPAGATION_MODES = ("exact", "relative")

_CONTAINMENT_RATIO = 1e-6   # boundary intensity vs peak
_ALIASING_RATIO = 1e-6      # edge spectral magnitude vs spectral peak
_BAND_RATIO = 1e-16         # spectral magnitude vs peak that the kernel evaluates
_BAND_TOLERANCE = 1e-13     # bound of the skipped bins' output vs the output peak
_PEAK_BOUND_SLACK = 1e-9    # relative rounding allowance of the one-bound check
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
    outside_abs_sum: float   # sum of `outside_abs`
    outside_omegas: np.ndarray  # the grid's angular frequencies on `outside`


@dataclass(frozen=True)
class SampledPulse:
    """Complex envelope sampled on a :class:`TimeGrid`."""

    grid: TimeGrid
    envelope: np.ndarray
    intensity: np.ndarray = field(init=False, repr=False, compare=False)
    # per thread: the (2, N) spectra and envelopes that propagating this pulse
    # reuses, and the (length, spectrum, pulse) of its last exact vacuum transit
    _work: threading.local = field(
        default_factory=threading.local, init=False, repr=False, compare=False
    )

    def __post_init__(self):
        env = np.array(self.envelope, dtype=complex)  # a copy the caller cannot change
        if env.shape != (self.grid.n_samples,):
            raise GuardError("envelope length must match the grid")
        with np.errstate(over="ignore", invalid="ignore"):
            inten = np.abs(env) ** 2
        if not np.all(np.isfinite(inten)):
            if not np.all(np.isfinite(env)):
                raise GuardError("envelope must be finite everywhere")
            raise GuardError("intensity overflows double precision; the gain is too large")
        object.__setattr__(self, "envelope", _read_only(env))
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
        outside_abs = mag[outside]
        return SpectralBand(
            inside=_read_only(np.flatnonzero(kept)),
            outside=_read_only(outside),
            outside_abs=_read_only(outside_abs),
            outside_abs_sum=float(outside_abs.sum()),
            outside_omegas=_read_only(self.grid.omegas[outside]),
        )

    def _workspace(self) -> tuple[np.ndarray, np.ndarray]:
        """This thread's (2, N) complex spectra and envelopes, made once and reused."""
        work = self._work
        if not hasattr(work, "arrays"):
            shape = (2, self.grid.n_samples)
            work.arrays = (np.empty(shape, dtype=complex), np.empty(shape, dtype=complex))
        return work.arrays

    @cached_property
    def energy(self) -> float:
        with np.errstate(over="ignore"):
            energy = float(np.sum(self.intensity) * self.grid.t_step)
        if not math.isfinite(energy):
            raise GuardError("energy overflows double precision; the gain is too large")
        return energy

    @cached_property
    def fit(self) -> "GaussianFit":
        """:func:`fit_gaussian` of the pulse, computed once."""
        return fit_gaussian(self)

    def check_containment(self, label: str):
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
    grid: TimeGrid, fwhm_intensity: float, center: float = 0.0
) -> SampledPulse:
    """Gaussian pulse whose *intensity* FWHM is `fwhm_intensity`."""
    if fwhm_intensity <= 0:
        raise GuardError("fwhm must be > 0")
    t = grid.times
    with np.errstate(over="ignore"):  # far wings square to inf and exp to 0
        env = np.exp(-2.0 * math.log(2.0) * ((t - center) / fwhm_intensity) ** 2)
    pulse = SampledPulse(grid=grid, envelope=env)
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


def to_spectrum(pulse: SampledPulse) -> np.ndarray:
    """Spectrum on the grid's FFT-ordered frequency bins.

    Continuous normalization, phase origin at the grid's first sample:
    S(w) = sum E(t) e^{-i w (t - t_start)} dt.  Errors out if spectral
    magnitude at the edge bins exceeds 1e-6 of the spectral peak
    (aliasing guard).
    """
    g = pulse.grid
    spec = np.fft.fft(pulse.envelope) * g.t_step
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


def from_spectrum(
    spectrum: np.ndarray, grid: TimeGrid, out: np.ndarray | None = None
) -> np.ndarray:
    """Envelopes of `spectrum` along its last axis: :func:`to_spectrum` inverted.

    The envelopes are written to `out` when given (a C-contiguous complex
    array of the spectrum's shape), else to one new array.
    """
    spec = np.asarray(spectrum, dtype=complex)
    n = grid.n_samples
    if spec.shape[-1:] != (n,):
        raise GuardError("spectrum length must match the grid")
    if out is not None and not (out.shape == spec.shape and out.flags.c_contiguous):
        raise GuardError("out must be C-contiguous with the spectrum's shape")
    env = np.empty(spec.shape, dtype=complex) if out is None else out
    # row by row: on a stack, numpy's pocketfft vectorizes across rows with
    # per-call scratch buffers that glibc can return to the OS and fault in
    # again at every call (~40 pages per call at 4096 samples)
    for row, env_row in zip(spec.reshape(-1, n), env.reshape(-1, n)):
        np.fft.ifft(row, out=env_row)
    # numpy divides a complex by a real dt as (x + 0) * (1 / dt) part by
    # part, so one multiply over a float view gives the same bits for every
    # nonzero finite part
    np.multiply(env.view(float), 1.0 / grid.t_step, out=env.view(float))
    return env


def _output_envelopes(
    p: MediumParams, pulse: SampledPulse, spectrum: np.ndarray, dispersion_mode: str
) -> np.ndarray:
    """Rows ifft(m_pp S) and ifft(m_cp S) as envelopes, the kernel run on the band.

    `spectrum` is S0 = the input's :attr:`~SampledPulse.spectrum`, or phi S0
    for a phase factor |phi| = 1, so the input's band and its bound serve
    for both.  The bins outside the band add at most sum_k B_k |S0_k| / (N dt)
    to any output sample, with B_k from :func:`entry_bounds` (0 when no bin
    is outside).  Unless that is finite and within `_BAND_TOLERANCE` of the
    peak amplitude of each output, the kernel also fills the outside bins
    and both outputs are transformed again, which makes them the full-grid
    outputs.  The rows are this thread's workspace of `pulse`, which its
    next propagation on the thread overwrites.

    Where :func:`peak_entry_bounds` gives one B >= every B_k, the check
    first tries B sum_k |S0_k| (1 + `_PEAK_BOUND_SLACK`), and skips the
    per-bin sum when that passes.  The slack makes a pass here imply a pass
    of the rounded per-bin sum: np.dot of n <= 2**20 non-negative terms and
    the sum of |S0| each round by at most n eps = 2.3e-10 relative, exp and
    sqrt round B by a few eps, and each B_k rounds by a few eps times its
    exponents |Re mu| L and Re d/2 L, which the slack covers up to ~1e6.
    B and max B_k approach each other only at large |dtilde + w|, where
    both tend to 2.
    """
    grid = pulse.grid
    band = pulse.band
    specs, envs = pulse._workspace()  # m_pp S and m_cp S, then their envelopes
    specs.fill(0.0)

    def fill(bins: np.ndarray, omegas: np.ndarray) -> np.ndarray:
        m_pp, _, m_cp, _ = transfer_entries(p, omegas, dispersion_mode)
        for spec, m in zip(specs, (m_pp, m_cp)):
            spec[bins] = m * spectrum[bins]
        return from_spectrum(specs, grid, out=envs)

    # non-finite entries pass through silently; the output guards report them
    with np.errstate(invalid="ignore", over="ignore"):
        outputs = fill(band.inside, grid.omegas[band.inside])
        scale = 1.0 / (grid.n_samples * grid.t_step)
        budgets = [_BAND_TOLERANCE * float(np.abs(env).max()) for env in outputs]

        def passes(sums) -> bool:
            return all(math.isfinite(s * scale) and s * scale <= b
                       for s, b in zip(sums, budgets))

        peak = peak_entry_bounds(p, band.outside_omegas, dispersion_mode)
        if peak is not None and passes(
            b * band.outside_abs_sum * (1.0 + _PEAK_BOUND_SLACK) for b in peak
        ):
            return outputs
        bounds = entry_bounds(p, band.outside_omegas, dispersion_mode)
        if passes(float(np.dot(b, band.outside_abs)) for b in bounds):
            return outputs
        return fill(band.outside, band.outside_omegas)


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
    intensity is directly plottable.  The reference is the input in
    `"relative"` mode, and in `"exact"` mode the input delayed by the vacuum
    transit e^{-i w z/c}, which is then what the cell propagates.
    """
    if propagation_mode not in PROPAGATION_MODES:
        raise GuardError(f"unknown propagation mode {propagation_mode!r}")
    pulse.check_containment("input pulse")
    grid = pulse.grid
    # a scan changes no cell length, so its points share one vacuum-delayed input
    if propagation_mode == "relative":
        spectrum, reference = pulse.spectrum, pulse
    elif getattr(pulse._work, "vacuum", (None,))[0] == p.cell_length:
        _, spectrum, reference = pulse._work.vacuum
    else:
        vac = np.exp(-1j * grid.omegas * p.cell_length / C_LIGHT)
        spectrum = _read_only(vac * pulse.spectrum)
        reference = SampledPulse(grid, from_spectrum(spectrum, grid))
        pulse._work.vacuum = (p.cell_length, spectrum, reference)
    probe_env, conj_star_env = _output_envelopes(p, pulse, spectrum, dispersion_mode)
    # each pulse copies its envelope out of the workspace
    probe = SampledPulse(grid, probe_env)
    # E_c*(-w) synthesized in time, conjugated back to E_c(t)
    conjugate = SampledPulse(grid, np.conj(conj_star_env, out=conj_star_env))

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
    samples within 1/e^2 of the peak, with weight (I / peak)^2; exact for
    noiseless Gaussians.  The fitted times are mapped onto [-1, 1] and the
    3x3 normal equations solved directly.  Errors out when no unique
    dominant peak exists, when the threshold underflows or fewer than 8
    samples lie above it, when the samples do not determine a parabola
    (times that round to too few distinct values), when the curvature is
    not negative, or when the fitted peak intensity overflows.
    """
    inten = pulse.intensity
    peak = float(inten.max())
    if peak <= 0.0:
        raise FitError("cannot fit an all-zero pulse")
    threshold = peak * math.exp(-2.0)
    if not threshold > 0.0:  # it would take the exact zeros, whose log is -inf
        raise FitError(f"peak intensity {peak:.3g} is too small to fit: "
                       "its 1/e^2 level underflows")
    mask = inten >= threshold
    idx = np.flatnonzero(mask)
    if idx.size < _FIT_MIN_SAMPLES:
        raise FitError(f"only {idx.size} samples above the 1/e^2 threshold")
    if np.any(np.diff(idx) != 1):
        raise FitError("no unique dominant peak: 1/e^2 region is not contiguous")

    t = pulse.grid.times[idx]
    t0 = t[np.argmax(inten[idx])]
    x = t - t0  # around the discrete peak, then onto u in [-1, 1]
    mid, half = 0.5 * (x[-1] + x[0]), 0.5 * (x[-1] - x[0])
    if not half > 0.0:  # all fitted times rounded to one value
        raise FitError("fitted samples share one time value: t_step is below its resolution")
    u = (x - mid) / half
    # weight (I / peak)^2; dividing by the peak keeps the square finite
    w = (inten[idx] / peak) ** 2
    v = np.stack((u * u, u, np.ones_like(u)))
    wv = v * w
    try:
        a, b, c = np.linalg.solve(wv @ v.T, wv @ np.log(inten[idx]))
    except np.linalg.LinAlgError:
        raise FitError("fitted sample times do not determine a parabola") from None
    if a >= 0.0:
        raise FitError("non-negative log-intensity curvature: not a pulse")
    try:
        fitted_peak = math.exp(c - b * b / (4.0 * a))
    except OverflowError:  # the vertex can lie above every finite sample
        raise FitError("fitted peak intensity overflows double precision") from None
    return GaussianFit(
        center=t0 + mid - half * b / (2.0 * a),
        fwhm=half * math.sqrt(-_FOUR_LN2 / a),
        peak=fitted_peak,
    )


@dataclass(frozen=True)
class PulseMetrics:
    """Figures of one output pulse vs the reference; its own are ``out.fit``."""

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
        gain_peak=fit.peak / ref_fit.peak,
        gain_energy=out.energy / reference.energy,
        delay_vs_reference=delay,
        broadening_fraction=fit.fwhm / ref_fit.fwhm - 1.0,
        fractional_delay=delay / ref_fit.fwhm,
    )
