"""Time/frequency grids, Gaussian pulses, propagation and pulse metrics.

Spectra use the NumPy FFT convention (forward kernel e^{-i w t}); see
:mod:`mp4wm.coupling` for how that fixes the sign of delays.
"""
from __future__ import annotations

import functools
import math
from collections.abc import Iterable, Iterator
from dataclasses import InitVar, dataclass, field

import numpy as np

from .coupling import entry_bounds, peak_entry_bounds, transfer_entries
from .errors import AliasingError, ContainmentError, FitError, GuardError
from .params import C_LIGHT, MediumParams

PROPAGATION_MODES = ("exact", "relative")

_CONTAINMENT_RATIO = 1e-6   # boundary intensity vs peak
_ALIASING_RATIO = 1e-6      # edge spectral magnitude vs spectral peak
_BAND_RATIO = 1e-16         # spectral magnitude vs peak that the kernel evaluates
_BAND_TOLERANCE = 1e-13     # bound of the skipped bins' output vs the output peak
# kernel entries per call: 15 media of a 129-bin band, one (as alone) of a band
# over 1024 bins; at 4128 the allocator gave heap pages back after each call and
# faulted them in again: a 909-bin band's scan ran slower than one medium a call
_BLOCK_ENTRIES = 2048
_PEAK_BOUND_SLACK = 1e-9    # relative rounding allowance of the closed-form checks
_FIT_MIN_SAMPLES = 8
_FOUR_LN2 = 4.0 * math.log(2.0)


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


class _memo:
    """A value computed on first read and kept in the instance's ``__dict__``,
    which later reads find first: :func:`functools.cached_property` without
    the class-wide lock that Python 3.11's takes on every first read.  Threads
    that read first at once may each compute it, to the same value."""

    def __init__(self, func):
        self.func, self.name, self.__doc__ = func, func.__name__, func.__doc__

    def __get__(self, obj, cls=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.func(obj)
        return value


def _check_sample_count(n: int):
    if not isinstance(n, (int, np.integer)) or not 256 <= n <= 2**20 or (n & (n - 1)) != 0:
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

    @_memo
    def times(self) -> np.ndarray:
        return _read_only(self.t_start + self.t_step * np.arange(self.n_samples))

    @_memo
    def omegas(self) -> np.ndarray:
        """Angular frequency bins in FFT order."""
        return _read_only(2.0 * math.pi * np.fft.fftfreq(self.n_samples, self.t_step))

    @classmethod
    def centered(cls, window: float, n_samples: int, center: float = 0.0) -> "TimeGrid":
        _check_sample_count(n_samples)  # before the window is divided by it
        return cls(n_samples=n_samples, t_start=center - window / 2.0,
                   t_step=window / n_samples)


@dataclass(frozen=True)
class SampledPulse:
    """Complex envelope sampled on a :class:`TimeGrid`."""

    grid: TimeGrid
    envelope: np.ndarray
    # private: |envelope| and its max when the caller has them, taken over
    # as the intensity and the peak
    _magnitude: InitVar[tuple[np.ndarray, float] | None] = None
    intensity: np.ndarray = field(init=False, repr=False, compare=False)
    peak: float = field(init=False, repr=False, compare=False)  # max of `intensity`

    def __post_init__(self, _magnitude):
        env = np.array(self.envelope, dtype=complex)  # a copy the caller cannot change
        if env.shape != (self.grid.n_samples,):
            raise GuardError("envelope length must match the grid")
        if _magnitude is None:
            with np.errstate(over="ignore", invalid="ignore"):
                inten = np.abs(env)
            peak = float(inten.max())
        else:
            inten, peak = _magnitude
        # rounding a square is monotone, so max(|E|)^2 is the max of the
        # rounded |E|^2; max propagates nan, so a finite peak makes every
        # intensity finite, and squaring it cannot overflow
        peak *= peak
        if not math.isfinite(peak):
            if not np.all(np.isfinite(env)):
                raise GuardError("envelope must be finite everywhere")
            raise GuardError("intensity overflows double precision; the gain is too large")
        np.square(inten, out=inten)  # the bits of np.abs(env) ** 2
        object.__setattr__(self, "envelope", _read_only(env))
        object.__setattr__(self, "intensity", _read_only(inten))
        object.__setattr__(self, "peak", peak)

    @_memo
    def energy(self) -> float:
        with np.errstate(over="ignore"):
            energy = float(self.intensity.sum() * self.grid.t_step)
        if not math.isfinite(energy):
            raise GuardError("energy overflows double precision; the gain is too large")
        return energy

    @_memo
    def fit(self) -> "GaussianFit":
        """:func:`fit_gaussian` of the pulse, computed once."""
        return fit_gaussian(self)

    def check_containment(self, label: str):
        peak = self.peak
        if peak == 0.0:
            return
        edge = max(self.intensity[0], self.intensity[-1])
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

    The envelopes are written to `out` when given (a writeable, C-contiguous
    complex128 array of the spectrum's shape), else to one new array.
    """
    spec = np.asarray(spectrum, dtype=complex)
    n = grid.n_samples
    if spec.shape[-1:] != (n,):
        raise GuardError("spectrum length must match the grid")
    if out is not None and not (out.shape == spec.shape and out.dtype == complex
                                and out.flags.c_contiguous and out.flags.writeable):
        raise GuardError("out must be a writeable, C-contiguous complex128 array "
                         "of the spectrum's shape")
    env = np.empty(spec.shape, dtype=complex) if out is None else out
    # the sums x, unscaled, in one vectorized call over the stack: ~1/3 faster
    # than a row loop, at < 1 minor fault per scan point from pocketfft's scratch
    np.fft.ifft(spec, out=env, norm="forward")
    # ifft(S) / dt in one pass: the default ifft scales x by 1/N, exactly as N
    # is a power of two (unless x/N is subnormal), and numpy divides a complex
    # by a real dt as (x/N + 0) * (1/dt) part by part, so it rounds the exact
    # x (1/dt) / N once; (1/dt) / N is exact too, so this multiply rounds the
    # same product once, to the same bits
    np.multiply(env.view(float), (1.0 / grid.t_step) / n, out=env.view(float))
    return env


@dataclass(frozen=True)
class PropagationResult:
    reference: SampledPulse
    probe: SampledPulse
    conjugate: SampledPulse


class Propagator:
    """Propagates one input probe pulse (no seed conjugate) through any medium.

    Built once per input, it checks its propagation mode and keeps the
    input's spectrum on the grid's FFT-ordered bins, `spectrum`: the
    :func:`to_spectrum` of any input, whose containment it checks, or a
    Gaussian's closed form (:meth:`gaussian`).  It splits the bins at
    `_BAND_RATIO` of the peak magnitude: the kernel runs on the `inside` bins,
    at `inside_omegas`; the `outside` bins, in ascending order of frequency at
    `outside_omegas`, are bounded from |S| on them, `outside_abs`.  A bin where
    S is exactly 0 is in neither: it adds 0 to every output, whatever the
    kernel's entries there.  All are read-only.  Called on a
    :class:`MediumParams`, it returns the vacuum reference, the amplified probe
    and the generated conjugate, all on the input grid.  The conjugate is
    returned as E_c(t), conjugated back from the E_c*(-w) solution so that its
    intensity is directly plottable.  The reference is the input in
    `"relative"` mode, and in `"exact"` mode the input delayed by the vacuum
    transit e^{-i w z/c}, which is then what the cell propagates.  :meth:`each`
    runs the kernel for a block of media at once; a call is `each` of one medium.
    Every call reuses the propagator's work arrays, so threads that share an
    input each build their own propagator.
    """

    def __init__(self, pulse: SampledPulse, propagation_mode: str = "relative"):
        pulse.check_containment("input pulse")
        self._split(pulse, propagation_mode, to_spectrum(pulse))

    @classmethod
    def gaussian(cls, grid: TimeGrid, fwhm: float, center: float = 0.0,
                 propagation_mode: str = "relative") -> "Propagator":
        """The propagator of :func:`make_gaussian_pulse`'s pulse with its exact
        spectrum sigma sqrt(2 pi) e^{-sigma^2 w^2 / 2 - i w (center - t_start)},
        sigma = fwhm / sqrt(4 ln 2), which has no FFT round-off floor (~4e-16 of
        the peak) for the band to take as signal; the FFT runs the aliasing guard.
        That is the periodized Gaussian's spectrum, so a window that cuts the tails
        off above the band floor (edge amplitude > `_BAND_RATIO`) keeps the FFT's.
        """
        pulse = make_gaussian_pulse(grid, fwhm, center)  # checks its containment
        spectrum = to_spectrum(pulse)  # the aliasing guard
        if max(pulse.intensity[0], pulse.intensity[-1]) <= _BAND_RATIO**2 * pulse.peak:
            sigma, w = fwhm / math.sqrt(_FOUR_LN2), grid.omegas
            spectrum = sigma * math.sqrt(2.0 * math.pi) * np.exp(
                -0.5 * (sigma * w) ** 2 - 1j * (center - grid.t_start) * w)
        self = cls.__new__(cls)
        self._split(pulse, propagation_mode, spectrum)
        return self

    def _split(self, pulse: SampledPulse, propagation_mode: str, spectrum: np.ndarray):
        if propagation_mode not in PROPAGATION_MODES:
            raise GuardError(f"unknown propagation mode {propagation_mode!r}")
        self.pulse = pulse
        self.propagation_mode = propagation_mode
        self.spectrum = spectrum = _read_only(spectrum)
        omegas, mag = pulse.grid.omegas, np.abs(spectrum)
        kept = mag > _BAND_RATIO * mag.max()
        outside = np.flatnonzero(~kept & (mag > 0.0))
        # in ascending frequency the FFT order's negative half comes first
        outside = np.roll(outside, -int(np.searchsorted(outside, mag.size // 2)))
        self.inside = _read_only(np.flatnonzero(kept))
        self.inside_omegas = _read_only(omegas[kept])
        self.outside = _read_only(outside)
        self.outside_abs = _read_only(mag[outside])
        self.outside_omegas = _read_only(omegas[outside])
        # m_pp S and m_cp S, then their envelopes, overwritten by every call;
        # the spectra are zero outside the input's band between calls
        self._buffers = np.zeros((2, 2, pulse.grid.n_samples), dtype=complex)
        # (cell length, reference, spectrum the cell propagates, the same on
        # the band): the input's own until an exact-mode call delays it by its
        # cell's vacuum transit
        self._vacuum = (None, pulse, spectrum, spectrum[self.inside])

    def __call__(self, p: MediumParams) -> PropagationResult:
        (call,) = self.each([p])
        return call(p)

    def each(self, media: Iterable[MediumParams]) -> Iterator[functools.partial]:
        """For each medium of `media` in turn, a call on it that returns what
        ``self(medium)`` does, to the bit.  Each block of at most `_BLOCK_ENTRIES`
        kernel entries on the band (one medium where the band has more) takes one
        :func:`transfer_entries` call when its first call is asked for; each call
        takes, and overwrites, its medium's rows, which no name holds past the calls."""
        media, length = list(media), max(1, _BLOCK_ENTRIES // max(1, self.inside.size))
        for start in range(0, len(media), length):
            yield from self._block(media[start:start + length])

    def _block(self, media: list[MediumParams]) -> list[functools.partial]:
        m_pp, _, m_cp, _ = transfer_entries(media, self.inside_omegas)
        return [functools.partial(self._propagate, m_pp=a, m_cp=b) for a, b in zip(m_pp, m_cp)]

    def _propagate(self, p: MediumParams, m_pp: np.ndarray, m_cp: np.ndarray
                   ) -> PropagationResult:
        grid = self.pulse.grid
        # a scan changes no cell length, so its points share one vacuum-delayed input
        if self.propagation_mode == "exact" and self._vacuum[0] != p.cell_length:
            vac = np.exp(-1j * grid.omegas * p.cell_length / C_LIGHT)
            spectrum = _read_only(vac * self.spectrum)
            reference = SampledPulse(grid, from_spectrum(spectrum, grid))
            self._vacuum = (p.cell_length, reference, spectrum, spectrum[self.inside])
        _, reference, *spectra = self._vacuum
        (probe_env, conj_star_env), (probe_mag, conj_mag) = self._output_envelopes(
            p, *spectra, m_pp, m_cp)
        # each pulse copies its envelope out of the work arrays and squares
        # its magnitude in place into its intensity, and its max into its peak
        probe = SampledPulse(grid, probe_env, probe_mag)
        # E_c*(-w) synthesized in time, conjugated back to E_c(t), |E_c| = |E_c*|
        conjugate = SampledPulse(grid, np.conj(conj_star_env, out=conj_star_env), conj_mag)

        probe.check_containment("propagated probe")
        conjugate.check_containment("generated conjugate")
        return PropagationResult(reference=reference, probe=probe, conjugate=conjugate)

    def _output_envelopes(
        self, p: MediumParams, spectrum: np.ndarray, inside: np.ndarray,
        m_pp: np.ndarray, m_cp: np.ndarray,
    ) -> tuple[np.ndarray, list[tuple[np.ndarray, float]]]:
        """Rows ifft(m_pp S) and ifft(m_cp S) as envelopes, the kernel run on the band.

        `spectrum` is S0 = the input's :attr:`spectrum`, or phi S0
        for a phase factor |phi| = 1, so the input's band and its bound serve
        for both; `inside` is `spectrum` on the band, and `m_pp` and `m_cp`
        are p's kernel there, which this overwrites.  The bins outside the
        band add at most sum_k B_k |S0_k| / (N dt) to any output sample, with
        B_k from :func:`entry_bounds` (0 when no bin is outside).  Unless that
        is finite and within `_BAND_TOLERANCE` of the peak amplitude of each
        output, the kernel also fills the outside bins, both outputs are
        transformed again into the full-grid ones, and the bins are zeroed.
        The rows are the propagator's work arrays, which its next call
        overwrites; they come with a new |row| each and its max, from which
        the budgets were taken.

        The check takes :meth:`_skipped_sums`' two bounds in turn and stops at
        the first that passes: the peak bound, then the per-bin bound.  The
        first is at or above the second, so a pass of either is the second's.
        """
        grid = self.pulse.grid
        specs, envs = self._buffers

        def fill(bins: np.ndarray, values: np.ndarray, *entries: np.ndarray):
            for spec, m in zip(specs, entries):
                spec[bins] = np.multiply(m, values, out=m)
            outputs = from_spectrum(specs, grid, out=envs)
            mags = np.abs(outputs)
            return outputs, list(zip(mags, mags.max(axis=1).tolist()))

        # non-finite entries pass through silently; the output guards report them
        with np.errstate(invalid="ignore", over="ignore"):
            outputs, magnitudes = fill(self.inside, inside, m_pp, m_cp)
            scale = 1.0 / (grid.n_samples * grid.t_step)
            budgets = [_BAND_TOLERANCE * top for _, top in magnitudes]
            for sums in self._skipped_sums(p):
                if all(math.isfinite(s * scale) and s * scale <= b
                       for s, b in zip(sums, budgets)):
                    return outputs, magnitudes
            try:
                m_pp, _, m_cp, _ = transfer_entries(p, self.outside_omegas)
                return fill(self.outside, spectrum[self.outside], m_pp, m_cp)
            finally:
                specs[:, self.outside] = 0.0

    def _skipped_sums(self, p: MediumParams):
        """Upper bounds on sum_k B_k |S0_k| over the bins outside the band, for
        m_pp and m_cp in the medium's mode: the peak bound, then the per-bin one.

        The peak bound: each run of bins on either side of resonance takes
        one :func:`peak_entry_bounds` pair times its sum of |S0_k| (> 0), so
        an infinite pair makes its sums infinite.  fl(dtilde + w) is monotone
        in w, so a run's smallest |dtilde + w| is at its end nearer the
        resonance.  Then the per-bin bound: every bin takes its
        :func:`entry_bounds` B_k.  Both carry (1 + `_PEAK_BOUND_SLACK`), so
        that the first is at or above the rounded per-bin sum: np.dot and
        np.sum of n <= 2**20 non-negative terms each round by at most n eps =
        2.3e-10 relative, exp and sqrt round a pair by a few eps, and each B_k
        rounds by a few eps times its exponents |Re mu| L and Re d/2 L, which
        the slack covers up to ~1e6.  A pair and the B_k it covers approach
        each other only at large |dtilde + w|, where both tend to 2.
        """
        omegas, sizes, c = self.outside_omegas, self.outside_abs, p.coefficients
        split = int(omegas.searchsorted(-c.delta_tilde))
        sums = [0.0, 0.0]
        for start, stop, inner in ((0, split, split - 1), (split, omegas.size, split)):
            if start < stop:
                pair = peak_entry_bounds(p, abs(float(omegas[inner]) + c.delta_tilde),
                                         float(omegas[start]), float(omegas[stop - 1]))
                total = float(sizes[start:stop].sum())
                sums = [s + b * total for s, b in zip(sums, pair)]
        yield [s * (1.0 + _PEAK_BOUND_SLACK) for s in sums]
        yield [float(np.dot(b, sizes)) * (1.0 + _PEAK_BOUND_SLACK)
               for b in entry_bounds(p, omegas)]


@dataclass(frozen=True)
class GaussianFit:
    center: float
    fwhm: float
    peak: float  # peak *intensity*


def _solve_3x3(m: np.ndarray, r: np.ndarray) -> tuple[float, float, float]:
    """x with m x = r, as adj(m) r / det m in Python floats, the determinant
    expanded along m's first row; a zero determinant or a non-finite x is a
    :class:`FitError`."""
    (m00, m01, m02), (m10, m11, m12), (m20, m21, m22) = m.tolist()
    r0, r1, r2 = r.tolist()
    c00, c01, c02 = m11 * m22 - m12 * m21, m12 * m20 - m10 * m22, m10 * m21 - m11 * m20
    det = (m00 * c00 + m01 * c01 + m02 * c02) or math.nan  # singular: no solution
    x = ((c00 * r0 + (m02 * m21 - m01 * m22) * r1 + (m01 * m12 - m02 * m11) * r2) / det,
         (c01 * r0 + (m00 * m22 - m02 * m20) * r1 + (m02 * m10 - m00 * m12) * r2) / det,
         (c02 * r0 + (m01 * m20 - m00 * m21) * r1 + (m00 * m11 - m01 * m10) * r2) / det)
    if not math.isfinite(sum(x)):
        raise FitError("fitted sample times do not determine a parabola")
    return x


def fit_gaussian(pulse: SampledPulse) -> GaussianFit:
    """Fit a Gaussian to the pulse intensity.

    Weighted linear least squares of a parabola on log-intensity over the
    samples within 1/e^2 of the peak, with weight (I / peak)^2; exact for
    noiseless Gaussians.  The fitted times are mapped onto [-1, 1] and the
    3x3 normal equations solved in closed form, by the adjugate over the
    determinant in Python floats: they are well conditioned on [-1, 1], so
    this agrees with an LU solve within a few ulps times the condition
    number, without its call overhead.  Errors out when no unique
    dominant peak exists, when the threshold underflows or fewer than 8
    samples lie above it, when the samples do not determine a parabola
    (times that round to too few distinct values), when the curvature is
    not negative, or when the fitted peak intensity overflows.
    """
    inten = pulse.intensity
    peak = pulse.peak
    if peak <= 0.0:
        raise FitError("cannot fit an all-zero pulse")
    threshold = peak * math.exp(-2.0)
    if not threshold > 0.0:  # it would take the exact zeros, whose log is -inf
        raise FitError(f"peak intensity {peak:.3g} is too small to fit: "
                       "its 1/e^2 level underflows")
    idx = (inten >= threshold).nonzero()[0]
    if idx.size < _FIT_MIN_SAMPLES:
        raise FitError(f"only {idx.size} samples above the 1/e^2 threshold")
    if idx[-1] - idx[0] + 1 != idx.size:  # sorted and distinct: contiguous iff no gap
        raise FitError("no unique dominant peak: 1/e^2 region is not contiguous")

    fitted = slice(idx[0], idx[-1] + 1)
    y = inten[fitted]
    t = pulse.grid.times[fitted]
    t0 = t[y.argmax()]
    x = t - t0  # around the discrete peak, then onto u in [-1, 1]
    mid, half = 0.5 * (x[-1] + x[0]), 0.5 * (x[-1] - x[0])
    if not half > 0.0:  # all fitted times rounded to one value
        raise FitError("fitted samples share one time value: t_step is below its resolution")
    u = (x - mid) / half
    # weight (I / peak)^2; dividing by the peak keeps the square finite
    w = (y / peak) ** 2
    v = np.empty((3, u.size))
    v[0], v[1], v[2] = u * u, u, 1.0
    wv = v * w
    a, b, c = _solve_3x3(wv @ v.T, wv @ np.log(y))
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
