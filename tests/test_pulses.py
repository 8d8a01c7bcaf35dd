import copy
import math
import pickle
import re
import sys
import threading
import warnings

import numpy as np
import pytest
from hypothesis import example, given, reject, settings, strategies as st

from mp4wm import pulses
from mp4wm.coupling import (
    entry_bounds,
    peak_entry_bounds,
    transfer_entries,
)
from mp4wm.config import MHZ, parse_config
from mp4wm.errors import AliasingError, ContainmentError, FitError, GuardError
from mp4wm.experiments import scan
from mp4wm.params import MediumParams, derive_coefficients
from mp4wm.pulses import (
    Propagator,
    SampledPulse,
    TimeGrid,
    fit_gaussian,
    from_spectrum,
    make_gaussian_pulse,
    pulse_metrics,
    to_spectrum,
)

from _oracles import (
    coefficients_at,
    complex_entry_bounds,
    generator_terms,
    polyfit_gaussian,
    pulse_oracle,
)
from conftest import C, make_params

RNG = np.random.default_rng(7)

GRID = TimeGrid.centered(2048e-9, 4096)  # dt = 0.5 ns, t = 0 on the grid

# parts of envelope samples: non-finite, overflowing when squared, subnormal
SPECIAL_SAMPLES = st.sampled_from(
    [0.0, -0.0, 1.0, -3.5, 5e-324, -1e-310, 1e-160, 1e154, -1e155, 1e200, 1e308,
     np.inf, -np.inf, np.nan]
) | st.floats(allow_nan=True, allow_infinity=True)


def _metrics(res):
    """Probe and conjugate metrics of a :class:`PropagationResult`."""
    probe = pulse_metrics(res.reference, res.probe)
    return probe, pulse_metrics(res.reference, res.conjugate)


class TestGrid:
    def test_rejects_bad_sizes(self):
        with pytest.raises(GuardError):
            TimeGrid(n_samples=1000, t_start=0.0, t_step=1e-9)
        with pytest.raises(GuardError):
            TimeGrid(n_samples=128, t_start=0.0, t_step=1e-9)

    @pytest.mark.parametrize("n", [4096.0, 4096.5, "4096", None])
    def test_non_integer_size_is_guard_error(self, n):
        for build in (lambda: TimeGrid(n_samples=n, t_start=0.0, t_step=1e-9),
                      lambda: TimeGrid.centered(2e-6, n)):
            with pytest.raises(GuardError, match=re.escape(
                    f"n_samples must be a power of two in [256, 2**20], got {n}")):
                build()

    def test_largest_size_is_accepted(self):
        # the grid builds its arrays only when they are read
        assert TimeGrid(n_samples=2**20, t_start=0.0, t_step=1e-9).n_samples == 2**20

    @pytest.mark.parametrize("build, message", [
        *[(lambda step=step: TimeGrid(n_samples=256, t_start=0.0, t_step=step),
           "t_step must be positive and finite") for step in (0.0, -1e-9, np.nan, np.inf)],
        (lambda: SampledPulse(GRID, np.ones(GRID.n_samples - 1)),
         "envelope length must match the grid"),
        *[(lambda fwhm=fwhm: make_gaussian_pulse(GRID, fwhm), "fwhm must be > 0")
          for fwhm in (0.0, -70e-9)],
    ], ids=["t_step=0", "t_step<0", "t_step=nan", "t_step=inf", "short_envelope",
            "fwhm=0", "fwhm<0"])
    def test_rejects_bad_arguments(self, build, message):
        with pytest.raises(GuardError, match=f"^{message}$"):
            build()

    @pytest.mark.parametrize(
        "value, message",
        [(np.nan, "finite"), (complex(0.0, np.inf), "finite"),
         (1e200, "overflow"), (complex(1e308, 1e308), "overflow")],
    )
    def test_pulse_guards_non_finite_envelope_and_intensity(self, value, message):
        env = np.zeros(GRID.n_samples, dtype=complex)
        env[3] = value
        with np.errstate(all="raise"), pytest.raises(GuardError, match=message):
            SampledPulse(grid=GRID, envelope=env)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        scale=st.sampled_from([0.0, 5e-324, 1e-170, 1e-160, 1.0, 1e150, 1e154, 1e160]),
        specials=st.lists(
            st.tuples(st.integers(0, 255), SPECIAL_SAMPLES, SPECIAL_SAMPLES), max_size=4
        ),
    )
    def test_intensity_and_peak_keep_the_bits_of_one_abs_squared(self, scale, specials):
        grid = TimeGrid(n_samples=256, t_start=-128e-9, t_step=1e-9)
        with np.errstate(over="ignore", under="ignore"):
            env = scale * np.exp(-(grid.times / 30e-9) ** 2) * np.exp(0.3j * grid.times / 1e-9)
        for i, re_part, im_part in specials:
            env[i] = complex(re_part, im_part)
        with np.errstate(over="ignore", invalid="ignore"):
            magnitude = np.abs(env)
            want = np.abs(env) ** 2
        message = None
        if not np.all(np.isfinite(want)):  # the guard as an isfinite pass over |E|^2
            message = ("envelope must be finite everywhere" if not np.all(np.isfinite(env))
                       else "intensity overflows double precision; the gain is too large")
        # the public constructor, and the conjugate output's path, which
        # passes the |E| of the row it conjugates and its max
        for build in (lambda: SampledPulse(grid, env),
                      lambda: SampledPulse(grid, np.conj(env),
                                           (magnitude.copy(), float(magnitude.max())))):
            if message is not None:
                with pytest.raises(GuardError) as info:
                    build()
                assert str(info.value) == message
                continue
            pulse = build()
            assert pulse.intensity.tobytes() == want.tobytes()
            assert type(pulse.peak) is float and pulse.peak == pulse.intensity.max()

    def test_energy_overflow_is_a_guard_error(self):
        # each intensity (1e308) is finite; their sum is not
        pulse = SampledPulse(GRID, np.full(GRID.n_samples, 1e154))
        with np.errstate(all="raise"), pytest.raises(GuardError, match="energy overflows"):
            pulse.energy

    def test_read_fit_and_energy_survive_pickle_and_deepcopy(self, monkeypatch):
        calls = []
        fit = pulses.fit_gaussian
        monkeypatch.setattr(pulses, "fit_gaussian", lambda pulse: calls.append(pulse) or fit(pulse))
        pulse = make_gaussian_pulse(GRID, 70e-9)
        read = (pulse.fit, pulse.energy)
        assert (pulse.fit, pulse.energy) == read
        assert len(calls) == 1 and calls[0] is pulse  # one fit over two reads
        for clone in (pickle.loads(pickle.dumps(pulse)), copy.deepcopy(pulse)):
            assert (clone.fit, clone.energy) == read
            assert clone.grid == pulse.grid and clone.peak == pulse.peak
            assert np.array_equal(clone.envelope, pulse.envelope)
            assert np.array_equal(clone.intensity, pulse.intensity)
        assert len(calls) == 1  # the copies carry the values they were read with

    def test_pulse_keeps_its_own_copy_of_the_envelope(self):
        env = make_gaussian_pulse(GRID, 70e-9).envelope.copy()
        pulse = SampledPulse(GRID, env)
        envelope, intensity = pulse.envelope.copy(), pulse.intensity.copy()
        env[:] = 5.0
        assert np.array_equal(pulse.envelope, envelope)
        assert np.array_equal(pulse.intensity, intensity)
        assert not pulse.envelope.flags.writeable

    def test_frequency_spacing(self):
        g = GRID
        dw = g.omegas[1] - g.omegas[0]
        assert dw == pytest.approx(2.0 * math.pi / (g.n_samples * g.t_step), rel=1e-12)


class TestGaussianSynthesis:
    def test_half_maximum_at_half_fwhm(self):
        pulse = make_gaussian_pulse(GRID, 70e-9)
        t = GRID.times
        i_plus = np.argmin(np.abs(t - 35e-9))
        assert t[i_plus] == pytest.approx(35e-9, abs=1e-15)
        inten = pulse.intensity
        assert inten[i_plus] == pytest.approx(0.5 * inten.max(), rel=1e-12)

    def test_fit_roundtrip_120ns(self):
        pulse = make_gaussian_pulse(GRID, 120e-9, center=13e-9)
        fit = fit_gaussian(pulse)
        assert fit.center == pytest.approx(13e-9, abs=0.07e-9)
        assert fit.fwhm == pytest.approx(120e-9, rel=1e-3)

    def test_zero_amplitude_cannot_be_fit(self):
        pulse = SampledPulse(GRID, np.zeros(GRID.n_samples))
        with pytest.raises(FitError, match="^cannot fit an all-zero pulse$"):
            fit_gaussian(pulse)

    @pytest.mark.parametrize("edge, contained", [(0.99, True), (1.0, False)])
    def test_containment_limit_is_one_millionth_of_the_peak(self, edge, contained):
        # peak intensity 1000^2 = 1e6 and edge intensity edge^2 on either
        # edge: at the limit exactly for edge = 1, as 1e-6 * 1e6 rounds to 1
        for index in (0, -1):
            env = np.zeros(256)
            env[128], env[index] = 1000.0, edge
            pulse = SampledPulse(TimeGrid(256, 0.0, 1.0), env)
            if contained:
                pulse.check_containment("pulse")
            else:
                with pytest.raises(ContainmentError, match="window edge is 1.00e-06 of the peak"):
                    pulse.check_containment("pulse")

    def test_containment_violation_reports_window(self):
        with pytest.raises(ContainmentError, match="window"):
            make_gaussian_pulse(GRID, 900e-9)


class TestSpectrum:
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(
        n=st.sampled_from([256, 1024, 4096, 16384]),
        window=st.floats(1e-7, 1e-4),
        width=st.floats(0.0, 1.0),
        grid_center=st.floats(-1e-4, 1e-4),
        offset=st.floats(-1.0, 1.0),
    )
    def test_gaussian_spectrum_is_the_fft_on_the_band(
        self, n, window, width, grid_center, offset
    ):
        # sigma from 3 samples, where the spectrum at the grid edge is ~1e-19
        # of its peak, to a 20th of the window; the pulse lies anywhere from
        # the containment limit, 3.72 sigma inside the edge samples, inward,
        # so its tails may be cut off well above the band floor
        grid = TimeGrid.centered(window, n, grid_center)
        sigma = 3.0 * grid.t_step * (n / 60.0) ** width
        center = grid_center + offset * (window / 2.0 - grid.t_step - 3.72 * sigma)
        try:
            propagate = Propagator.gaussian(grid, sigma * math.sqrt(4.0 * math.log(2.0)), center)
        except AliasingError:  # a pulse cut off this sharply aliases on the grid
            reject()
        fft = to_spectrum(propagate.pulse)
        peak = np.abs(propagate.spectrum).max()
        if min(center - grid.t_start, grid.times[-1] - center) >= 9.5 * sigma:
            # tails below 1e-19 of the peak, as in the continuous integral
            assert peak == pytest.approx(sigma * math.sqrt(2.0 * math.pi), rel=1e-15)
        # a few 1e-15 of the peak, and the rounding of the sample times the
        # FFT sees, to eps of the largest, which moves a sample's value by up
        # to ~eps |t| / sigma of the peak
        span = max(abs(grid.t_start), abs(grid.times[-1]))
        tolerance = 4e-15 + 4.0 * np.finfo(float).eps * span / sigma
        assert np.abs(propagate.spectrum - fft).max() <= tolerance * peak

    def test_roundtrip(self):
        pulse = make_gaussian_pulse(GRID, 70e-9, center=40e-9)
        back = from_spectrum(to_spectrum(pulse), GRID)
        assert back == pytest.approx(pulse.envelope, rel=1e-12, abs=1e-12)

    def test_stacked_spectra_match_one_at_a_time(self):
        pulse = make_gaussian_pulse(GRID, 70e-9, center=40e-9)
        spectrum = to_spectrum(pulse)
        specs = np.stack([spectrum, 1j * np.roll(spectrum, 3)])
        rows = from_spectrum(specs, GRID)
        assert rows.shape == (2, GRID.n_samples)
        for row, spec in zip(rows, specs):
            assert np.array_equal(row, from_spectrum(spec, GRID))

    @pytest.mark.parametrize("out", ["new", "contiguous"])
    def test_scaling_keeps_the_bits_of_a_division_by_the_step(self, out):
        # magnitudes from 1e-100 to 1e100, so no exponent range is left out
        rng, size = np.random.default_rng(11), (2, GRID.n_samples)
        spec = (rng.standard_normal(size) + 1j * rng.standard_normal(size)) * 10.0 ** (
            rng.uniform(-100.0, 100.0, size)
        )
        target = {
            "new": None,
            "contiguous": np.empty(size, dtype=complex),
        }[out]
        env = from_spectrum(spec, GRID, out=target)
        assert target is None or env is target
        for row, spec_row in zip(env, spec):
            want = np.fft.ifft(spec_row) / GRID.t_step
            assert np.ascontiguousarray(row).tobytes() == want.tobytes()

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(
        log2_n=st.integers(8, 16),
        # every stack from_spectrum takes: one row, rows, and rows of rows
        lead=st.lists(st.integers(1, 3), max_size=2).map(tuple),
        given_out=st.booleans(),
        # a config's window / n_samples, and spectra of any magnitude whose
        # inverse sums stay above N times the smallest normal double
        log_dt=st.floats(-300.0, 295.0),
        log_scale=st.floats(-200.0, 200.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_one_scaling_pass_keeps_the_bits_of_ifft_then_the_step(
        self, log2_n, lead, given_out, log_dt, log_scale, seed
    ):
        n = 2**log2_n
        grid = TimeGrid(n_samples=n, t_start=0.0, t_step=10.0**log_dt)
        # band-limited like a propagator's spectra: one run of bins, zero elsewhere
        rng = np.random.default_rng(seed)
        width = int(rng.integers(1, n + 1))
        bins = (int(rng.integers(0, n)) + np.arange(width)) % n
        spec = np.zeros(lead + (n,), dtype=complex)
        spec[..., bins] = (rng.standard_normal(lead + (width,))
                           + 1j * rng.standard_normal(lead + (width,))) * 10.0**log_scale
        # row by row, 1/N inside ifft, then 1/dt
        want = np.array([np.fft.ifft(row) for row in spec.reshape(-1, n)]).reshape(spec.shape)
        out = np.empty(spec.shape, dtype=complex) if given_out else None
        with np.errstate(over="ignore"):  # both overflow to the same infinities
            np.multiply(want.view(float), 1.0 / grid.t_step, out=want.view(float))
            got = from_spectrum(spec, grid, out=out)
        assert out is None or got is out
        assert got.shape == spec.shape
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("lead", [(2,), (2, 2)])
    @pytest.mark.parametrize("given_out", [False, True])
    def test_a_stack_takes_one_inverse_transform(self, monkeypatch, lead, given_out):
        shapes, ifft = [], np.fft.ifft

        def counted(a, *args, **kwargs):
            shapes.append(np.shape(a))
            return ifft(a, *args, **kwargs)

        monkeypatch.setattr(np.fft, "ifft", counted)
        spec = np.ones(lead + (GRID.n_samples,), dtype=complex)
        out = np.empty(spec.shape, dtype=complex) if given_out else None
        from_spectrum(spec, GRID, out=out)
        assert shapes == [spec.shape]

    @pytest.mark.parametrize("spec_shape, out", [
        # shapes the transform rejects with numpy's own ValueError
        ((2, GRID.n_samples), np.zeros(GRID.n_samples, dtype=complex)),
        ((2, GRID.n_samples), np.zeros((3, GRID.n_samples), dtype=complex)),
        # the last axis not contiguous, which the float-view scaling cannot view
        ((2, GRID.n_samples), np.empty((GRID.n_samples, 2), dtype=complex).T),
        # leading axes out of C order: outside the contract, though the call would fill them
        ((2, 2, GRID.n_samples),
         np.zeros((2, 2, GRID.n_samples), dtype=complex).transpose(1, 0, 2)),
        # the float-view scaling would misread the bytes of another dtype
        ((2, GRID.n_samples), np.zeros((2, GRID.n_samples), dtype=np.complex64)),
        ((2, GRID.n_samples), np.zeros((2, GRID.n_samples))),
        # read-only, which the transforms cannot write
        ((2, GRID.n_samples),
         np.frombuffer(bytes(32 * GRID.n_samples), dtype=complex).reshape(2, -1)),
    ], ids=["shape0", "shape1", "strided", "transposed", "complex64", "float64", "read-only"])
    def test_out_of_another_shape_is_guard_error(self, spec_shape, out):
        spec = np.ones(spec_shape, dtype=complex)
        with pytest.raises(GuardError, match="out must be a writeable, C-contiguous complex128 "
                                             "array of the spectrum's shape"):
            from_spectrum(spec, GRID, out=out)

    @pytest.mark.parametrize("shape", [(GRID.n_samples // 2,), (GRID.n_samples, 2)])
    def test_wrong_trailing_length_is_guard_error(self, shape):
        with pytest.raises(GuardError, match="length"):
            from_spectrum(np.ones(shape, dtype=complex), GRID)

    def test_delta_pulse_flat_spectrum(self, monkeypatch):
        env = np.zeros(GRID.n_samples, dtype=complex)
        env[GRID.n_samples // 2] = 1.0
        delta = SampledPulse(GRID, env)
        with pytest.raises(AliasingError):
            to_spectrum(delta)
        monkeypatch.setattr(pulses, "_ALIASING_RATIO", math.inf)  # guard off
        mags = np.abs(to_spectrum(delta))
        assert mags == pytest.approx(np.full_like(mags, mags[0]), rel=1e-12)

    def test_time_bandwidth_product(self):
        # intensity-FWHM product for a transform-limited Gaussian: 2 ln2 / pi
        fwhm_t = 70e-9
        pulse = make_gaussian_pulse(GRID, fwhm_t)
        spec = np.fft.fftshift(to_spectrum(pulse))
        nu = np.fft.fftshift(GRID.omegas) / (2.0 * math.pi)
        power = np.abs(spec) ** 2
        half = 0.5 * power.max()
        above = np.flatnonzero(power >= half)
        lo, hi = above[0], above[-1]
        # linear interpolation across the half-power crossings
        f_lo = nu[lo - 1] + (half - power[lo - 1]) / (power[lo] - power[lo - 1]) * (
            nu[lo] - nu[lo - 1]
        )
        f_hi = nu[hi] + (half - power[hi]) / (power[hi + 1] - power[hi]) * (
            nu[hi + 1] - nu[hi]
        )
        product = (f_hi - f_lo) * fwhm_t
        assert product == pytest.approx(2.0 * math.log(2.0) / math.pi, rel=2e-3)

    def test_parseval(self):
        pulse = make_gaussian_pulse(GRID, 70e-9)
        spec = to_spectrum(pulse)
        e_time = pulse.energy
        dw = 2.0 * math.pi / (GRID.n_samples * GRID.t_step)
        e_freq = np.sum(np.abs(spec) ** 2) * dw / (2.0 * math.pi)
        assert e_freq == pytest.approx(e_time, rel=1e-12)

    @pytest.mark.parametrize("edge, aliased", [(0.99, False), (1.0, True), (1.2, True)])
    def test_aliasing_limit_is_one_millionth_of_the_peak(self, edge, aliased):
        # E_k = 1e6 + edge (-1)^k with dt = 1: spectral peak 256e6 at w = 0 and
        # 256 edge at the Nyquist bin, exact for edge = 1, at the limit itself
        pulse = SampledPulse(TimeGrid(256, 0.0, 1.0), 1e6 + edge * (-1.0) ** np.arange(256))
        if aliased:
            with pytest.raises(AliasingError, match=f"grid edge is {edge * 1e-6:.2e} of the peak"):
                to_spectrum(pulse)
        else:
            assert np.abs(to_spectrum(pulse)).max() == 256e6

    def test_aliasing_guard(self):
        coarse = TimeGrid.centered(2048e-9, 256)  # dt = 8 ns
        pulse = make_gaussian_pulse(coarse, 10e-9)
        with pytest.raises(AliasingError):
            to_spectrum(pulse)


class TestPropagation:
    def test_all_zero_input_propagates_as_zeros_on_no_bin(self, monkeypatch):
        # a zero spectrum has no bin above the band cutoff and no peak for the
        # aliasing guard, and its skipped bins' bound of 0 fits a zero output
        propagate = Propagator(SampledPulse(GRID, np.zeros(GRID.n_samples)))
        assert propagate.inside.size == 0 and not np.any(propagate.spectrum)
        sizes = []
        kernel = pulses.transfer_entries
        monkeypatch.setattr(pulses, "transfer_entries",
                            lambda p, omega: sizes.append(omega.size) or kernel(p, omega))
        res = propagate(make_params())
        assert sizes == [0]  # no fallback onto the outside bins
        for out in (res.probe, res.conjugate):
            assert out.peak == 0.0 and not np.any(out.envelope)

    def test_each_takes_a_block_s_kernel_when_its_first_call_is_asked_for(self, monkeypatch):
        sizes = []
        kernel = pulses.transfer_entries
        monkeypatch.setattr(pulses, "transfer_entries",
                            lambda media, omega: sizes.append(len(media)) or kernel(media, omega))
        propagate = Propagator.gaussian(GRID, 70e-9)  # 2048 // 129: 15 media a block
        assert list(propagate.each([])) == [] and sizes == []
        calls = propagate.each([make_params()] * 16)
        assert sizes == []
        assert next(calls) is not None and sizes == [15]
        assert len(list(calls)) == 15 and sizes == [15, 1]
        propagate(make_params())  # a call is a block of one
        assert sizes == [15, 1, 1]

    def test_zero_length_identity(self):
        p = make_params().replace(cell_length=0.0)
        pulse = make_gaussian_pulse(GRID, 70e-9)
        res = Propagator(pulse)(p)
        assert res.probe.envelope == pytest.approx(pulse.envelope, rel=1e-12, abs=1e-15)
        assert np.max(np.abs(res.conjugate.envelope)) == 0.0

    def test_narrowband_gain_matches_scalars(self):
        # gamma_c = 0, dtilde = 0, fwhm >= 10 / Delta_R: peak intensities reach
        # cosh^2 and sinh^2 of xi z / c within 1%
        p = make_params(gamma_c_frac=0.0).scaled_density(0.3)
        xi = abs(coefficients_at(p, 0.0).xi)
        arg = xi * p.cell_length / C
        grid = TimeGrid.centered(8192e-9, 8192)
        pulse = make_gaussian_pulse(grid, 400e-9)
        res = Propagator(pulse)(p)
        pm, cm = _metrics(res)
        assert pm.gain_peak == pytest.approx(math.cosh(arg) ** 2, rel=1e-2)
        assert cm.gain_peak == pytest.approx(math.sinh(arg) ** 2, rel=1e-2)

    def test_decoupled_lossless_energy_preserved(self):
        p = make_params(gamma_c_frac=0.0, delta_mhz=1e15, delta2_mhz=5.0)
        pulse = make_gaussian_pulse(GRID, 70e-9)
        res = Propagator(pulse)(p)
        assert res.probe.energy == pytest.approx(pulse.energy, rel=1e-10)

    def test_conjugate_emerges_before_probe(self):
        p = make_params(gamma_c_frac=0.5)
        pulse = make_gaussian_pulse(GRID, 70e-9)
        res = Propagator(pulse)(p)
        assert res.conjugate.fit.center < res.probe.fit.center

    def test_linearity(self):
        p = make_params(gamma_c_frac=0.5)
        pulse = make_gaussian_pulse(GRID, 70e-9)
        s = 0.37 - 1.2j
        scaled = SampledPulse(GRID, s * np.asarray(pulse.envelope))
        res1 = Propagator(pulse)(p)
        res2 = Propagator(scaled)(p)
        assert res2.probe.envelope == pytest.approx(
            s * np.asarray(res1.probe.envelope), rel=1e-12
        )
        assert res2.conjugate.envelope == pytest.approx(
            np.conj(s) * np.asarray(res1.conjugate.envelope), rel=1e-12
        )

    def test_time_shift_covariance(self):
        p = make_params(gamma_c_frac=0.5)
        shift = 100e-9
        res1 = Propagator(make_gaussian_pulse(GRID, 70e-9))(p)
        res2 = Propagator(make_gaussian_pulse(GRID, 70e-9, center=shift))(p)
        m1, m2 = _metrics(res1), _metrics(res2)
        dt = GRID.t_step
        for out1, out2 in ((res1.probe, res2.probe), (res1.conjugate, res2.conjugate)):
            assert abs((out2.fit.center - out1.fit.center) - shift) < dt
        for a, b in zip(m1, m2):
            assert b.delay_vs_reference == pytest.approx(
                a.delay_vs_reference, abs=1e-3 * dt
            )

    def test_grid_refinement_stability(self):
        p = make_params(gamma_c_frac=0.5)
        vals = []
        for n in (4096, 8192):
            grid = TimeGrid.centered(2048e-9, n)
            res = Propagator(make_gaussian_pulse(grid, 70e-9))(p)
            pm, cm = _metrics(res)
            vals.append((pm.gain_peak, pm.delay_vs_reference, res.probe.fit.fwhm,
                         cm.gain_peak, cm.delay_vs_reference))
        for a, b in zip(*vals):
            assert b == pytest.approx(a, rel=1e-5)

    @pytest.mark.parametrize(
        "propagation_mode, dispersion_mode", [("relative", "constant"), ("exact", "full")]
    )
    def test_matches_rk4_pulse_oracle(self, propagation_mode, dispersion_mode):
        p = make_params(delta1_mhz=30.0, gamma_c_frac=0.01, dispersion_mode=dispersion_mode)
        grid = TimeGrid.centered(2048e-9, 1024)
        pulse = make_gaussian_pulse(grid, 70e-9)
        res = Propagator(pulse, propagation_mode)(p)
        probe, conj = pulse_oracle(p, pulse.envelope, grid.t_step, propagation_mode)
        for out, expected in ((res.probe, probe), (res.conjugate, conj)):
            peak = np.max(np.abs(expected))
            assert np.max(np.abs(out.envelope - expected)) <= 1e-9 * peak

    def test_exact_reference_follows_the_cell_length(self):
        grid = TimeGrid.centered(2048e-9, 1024)
        shared = make_gaussian_pulse(grid, 70e-9)
        p1 = make_params(delta1_mhz=30.0, gamma_c_frac=0.01, dispersion_mode="full")
        p2 = p1.replace(cell_length=0.015)
        propagate = Propagator(shared, "exact")
        for p in (p1, p2, p1):
            res = propagate(p)
            fresh = Propagator(make_gaussian_pulse(grid, 70e-9), "exact")(p)
            for name in ("reference", "probe", "conjugate"):
                assert np.array_equal(
                    getattr(res, name).envelope, getattr(fresh, name).envelope
                )
        # points at one cell length share the reference and its fit
        again = propagate(p1.scaled_density(0.5))
        assert again.reference is res.reference

    def test_modes_differ_only_by_vacuum_phase(self):
        p = make_params(delta1_mhz=30.0, gamma_c_frac=0.01, dispersion_mode="full")
        grid = TimeGrid.centered(2048e-9, 1024)
        pulse = make_gaussian_pulse(grid, 70e-9)
        rel = Propagator(pulse, "relative")(p)
        exact = Propagator(pulse, "exact")(p)
        assert rel.reference is pulse
        vac = np.exp(-1j * grid.omegas * p.cell_length / C)
        for name in ("reference", "probe"):
            got = np.fft.fft(getattr(exact, name).envelope)
            want = vac * np.fft.fft(getattr(rel, name).envelope)
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
        # the kernel's conjugate row E_c*(-w) is the spectrum of conj(E_c(t))
        got = np.fft.fft(np.conj(exact.conjugate.envelope))
        want = vac * np.fft.fft(np.conj(rel.conjugate.envelope))
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    def test_rejects_unknown_modes(self):
        pulse = make_gaussian_pulse(TimeGrid.centered(2048e-9, 1024), 70e-9)
        with pytest.raises(GuardError, match="unknown propagation mode 'warp'"):
            Propagator(pulse, "warp")  # checked when built, not on a call

    def test_shared_input_across_threads(self, monkeypatch):
        # each thread owns a propagator of the one shared input, so its own
        # work arrays and, in exact mode, its own vacuum-delayed input, built
        # once however the threads' two cell lengths interleave.  Four
        # threads on two cores, switching often.
        grid = TimeGrid.centered(2048e-9, 1024)
        media = [make_params(delta1_mhz=30.0, gamma_c_frac=0.01, z=z, dispersion_mode="full")
                 for z in (0.025, 0.015)]
        builds = []  # the vacuum references: 1-D inverse transforms into a new array

        def counted(spectrum, grid, out=None):
            if out is None and np.ndim(spectrum) == 1:
                builds.append(threading.get_ident())
            return from_spectrum(spectrum, grid, out)
        monkeypatch.setattr(pulses, "from_spectrum", counted)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for mode in ("relative", "exact"):
                shared = make_gaussian_pulse(grid, 70e-9)
                serial = [Propagator(make_gaussian_pulse(grid, 70e-9), mode)(p)
                          for p in media]
                mismatches, done = [], []
                builds.clear()

                def work(p, want):
                    propagate = Propagator(shared, mode)
                    for _ in range(100):
                        res = propagate(p)
                        for name in ("reference", "probe", "conjugate"):
                            if not np.array_equal(getattr(res, name).envelope,
                                                  getattr(want, name).envelope):
                                mismatches.append((p.cell_length, name))
                    done.append(p.cell_length)

                threads = [threading.Thread(target=work, args=pair)
                           for pair in zip(media * 2, serial * 2)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=60.0)
                assert not any(t.is_alive() for t in threads)
                assert len(done) == len(threads)
                assert mismatches == [], mode
                assert len(builds) == (len(threads) if mode == "exact" else 0)
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize("propagation_mode", ["relative", "exact"])
    def test_outputs_do_not_alias_the_workspace(self, propagation_mode):
        # the second medium falls back to the full grid; the first runs on the
        # band before and after it, so both paths reuse written work arrays
        pulse = make_gaussian_pulse(GRID, 70e-9)
        media = [make_params(delta1_mhz=30.0, gamma_c_frac=0.01, dispersion_mode="full"),
                 make_params(delta1_mhz=30.0, gamma_c_frac=0.5, delta2_mhz=1000.0,
                             dispersion_mode="full")]
        names = ("reference", "probe", "conjugate")
        propagate = Propagator(pulse, propagation_mode)
        work = propagate._buffers

        def rows(res):
            return [(getattr(res, name).envelope.copy(), getattr(res, name).intensity.copy())
                    for name in names]
        first = propagate(media[0])
        results = [(first, rows(first))]
        # a band call, a fallback call, a band call again
        for p in (*media, media[0]):
            res = propagate(p)
            for name in names:
                out = getattr(res, name)
                for arr in (out.envelope, out.intensity):
                    assert not np.shares_memory(arr, work)
            # every earlier result keeps its envelopes and intensities
            for earlier, kept in results:
                for (envelope, intensity), name in zip(kept, names):
                    assert np.array_equal(getattr(earlier, name).envelope, envelope)
                    assert np.array_equal(getattr(earlier, name).intensity, intensity)
            results.append((res, rows(res)))
        assert propagate._buffers is work
        for (envelope, intensity), name in zip(rows(first), names):
            assert np.array_equal(getattr(res, name).envelope, envelope)
            assert np.array_equal(getattr(res, name).intensity, intensity)

    @pytest.mark.parametrize("propagation_mode", ["relative", "exact"])
    def test_each_call_of_a_block_is_the_medium_s_own_call_to_the_bit(self, propagation_mode):
        # band calls, then one whose entries overflow: it falls back and
        # fails a guard, and the call after it reuses the work arrays
        media = [make_params(delta1_mhz=30.0, gamma_c_frac=gc, delta2_mhz=d2,
                             dispersion_mode="full")
                 for gc, d2 in ((0.01, -30.0), (0.01, 0.0), (0.5, 1000.0))]
        media.insert(2, make_params(eta0=1e9, delta1_mhz=30.0, dispersion_mode="full"))
        propagate = Propagator.gaussian(GRID, 70e-9, propagation_mode=propagation_mode)
        names = ("reference", "probe", "conjugate")

        def outcome(call, p):
            try:
                res = call(p)
            except GuardError as exc:
                return type(exc), str(exc)
            return [getattr(res, name).envelope.tobytes() for name in names]
        singles = [outcome(propagate, p) for p in media]
        assert singles[2] == (GuardError, "envelope must be finite everywhere")
        assert [outcome(call, p) for p, call in zip(media, propagate.each(media))] == singles

    def test_a_delayed_probe_fails_containment_at_the_right_edge_only(self):
        # a 3 m cell of next to no coupling delays the input by its vacuum
        # transit, 10.007 ns, and the outputs are periodic on the window, so
        # the probe's 1e-6 crossing, 156.15 ns after its centre at 343.607
        # ns, falls between the last sample, 499.51 ns, and the first one
        # after it, at 500 ns; the input's edge is at 1.7e-7 of its peak, so
        # the input keeps its FFT spectrum
        grid = TimeGrid.centered(1000e-9, 2048)
        propagate = Propagator.gaussian(grid, 70e-9, center=333.6e-9, propagation_mode="exact")
        p = make_params(eta0=1e-6, z=3.0)
        spectrum = np.exp(-1j * grid.omegas * p.cell_length / C) * propagate.spectrum
        _, ((probe, top), _) = _output_envelopes(propagate, p, spectrum)
        assert probe[0] ** 2 < 0.98e-6 * top ** 2 and probe[-1] ** 2 > 1.06e-6 * top ** 2
        with pytest.raises(ContainmentError, match="^propagated probe intensity at the window "
                                                   "edge is 1.07e-06 of the peak"):
            propagate(p)

    def test_output_containment_guard(self):
        # delayed, strongly broadened output must not wrap the window
        p = make_params(eta0=20000.0, gamma_c_frac=0.0)
        grid = TimeGrid.centered(1024e-9, 2048)
        pulse = make_gaussian_pulse(grid, 70e-9)
        with pytest.raises(ContainmentError):
            Propagator(pulse)(p)


def _output_envelopes(propagate, p, spectrum):
    """The propagator's outputs of `spectrum` through `p`, the kernel on the
    band evaluated as a call on `p` evaluates it."""
    m_pp, _, m_cp, _ = transfer_entries(p, propagate.inside_omegas)
    return propagate._output_envelopes(p, spectrum, spectrum[propagate.inside], m_pp, m_cp)


def _full_grid_outputs(p, propagate):
    """ifft(m_pp S) and ifft(m_cp S) of the propagator's input spectrum S, with
    the kernel on every bin where S is not 0.

    The exact kernel is the relative one times the vacuum transit e^{-i w L}.
    """
    grid = propagate.pulse.grid
    m_pp, _, m_cp, _ = transfer_entries(p, grid.omegas)
    if propagate.propagation_mode == "exact":
        vac = np.exp(-1j * grid.omegas * p.cell_length / C)
        m_pp, m_cp = m_pp * vac, m_cp * vac
    spec = propagate.spectrum
    nonzero = spec != 0.0
    outputs = []
    for m in (m_pp, m_cp):
        product = np.zeros_like(spec)
        product[nonzero] = m[nonzero] * spec[nonzero]
        outputs.append(from_spectrum(product, grid))
    return (m_pp, m_cp), outputs


class TestBandLimitedKernel:
    GRID_1K = TimeGrid.centered(2048e-9, 1024)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        delta2_mhz=st.floats(-3000.0, 3000.0),
        density=st.floats(0.2, 1.5),
        gamma_c_frac=st.floats(0.0, 0.5),
        dispersion_mode=st.sampled_from(["constant", "full"]),
        propagation_mode=st.sampled_from(["relative", "exact"]),
    )
    def test_matches_the_full_grid_within_its_bound(
        self, delta2_mhz, density, gamma_c_frac, dispersion_mode, propagation_mode
    ):
        p = make_params(
            delta1_mhz=30.0, gamma_c_frac=gamma_c_frac, delta2_mhz=delta2_mhz,
            dispersion_mode=dispersion_mode,
        ).scaled_density(density)
        pulse = make_gaussian_pulse(self.GRID_1K, 70e-9)
        for propagate in (Propagator(pulse, propagation_mode),
                          Propagator.gaussian(self.GRID_1K, 70e-9, 0.0, propagation_mode)):
            self._check_against_the_full_grid(p, propagate)

    def _check_against_the_full_grid(self, p, propagate):
        spectrum = propagate.spectrum
        if propagate.propagation_mode == "exact":
            spectrum = np.exp(-1j * self.GRID_1K.omegas * p.cell_length / C) * spectrum
        envelopes, magnitudes = _output_envelopes(propagate, p, spectrum)
        # copies: the rows are the propagator's work arrays, which its calls overwrite
        outputs = [env.copy() for env in envelopes]
        with np.errstate(over="ignore", invalid="ignore"):
            for out, (mag, top) in zip(outputs, magnitudes):  # what the output pulses square
                assert np.array_equal(mag, np.abs(out), equal_nan=True)
                assert np.array_equal(top, mag.max(), equal_nan=True)
        entries, expected = _full_grid_outputs(p, propagate)
        for out, want in zip(outputs, expected):
            # near the pole of the full eta(w) the kernel overflows on some
            # bins; the band path must then overflow too, not hide it
            assert np.all(np.isfinite(out)) == np.all(np.isfinite(want))
            if np.all(np.isfinite(want)):
                assert np.max(np.abs(out - want)) <= 1e-13 * np.max(np.abs(want))
        try:
            res = propagate(p)
        except GuardError:
            pass  # a guard on the output, not on how it was computed
        else:
            assert np.array_equal(res.probe.envelope, outputs[0])
            assert np.array_equal(res.conjugate.envelope, np.conj(outputs[1]))
        outside = propagate.outside
        bounds = entry_bounds(p, self.GRID_1K.omegas[outside])
        for m, bound in zip(entries, bounds):
            size = np.abs(m[outside])
            finite = np.isfinite(size)
            assert np.all(size[finite] <= bound[finite])
            assert not np.any(np.isfinite(bound[~finite]))

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(
        delta2_mhz=st.floats(-3000.0, 3000.0),
        density=st.floats(0.2, 1.5),
        gamma_c_frac=st.floats(0.0, 0.5),
        dispersion_mode=st.sampled_from(["constant", "full"]),
    )
    def test_bound_covers_the_skipped_bins_and_agrees_with_the_complex_form(
        self, delta2_mhz, density, gamma_c_frac, dispersion_mode
    ):
        p = make_params(
            delta1_mhz=30.0, gamma_c_frac=gamma_c_frac, delta2_mhz=delta2_mhz,
            dispersion_mode=dispersion_mode,
        ).scaled_density(density)
        omegas = Propagator(make_gaussian_pulse(self.GRID_1K, 70e-9)).outside_omegas
        m_pp, _, m_cp, _ = transfer_entries(p, omegas)
        bounds = entry_bounds(p, omegas)
        # Every form rounds in proportion to the exponent |mu| L.  Where
        # Re mu^2 < 0 the complex form's |mu^2| + Re mu^2 cancels, which
        # leaves its Re mu off by up to sqrt(eps |mu^2|), so its bound by a
        # factor e^{+/- L sqrt(eps |mu^2|)}; the principal root's does not.
        _, _, mu_sq = generator_terms(p, omegas)
        big_l, eps = p.cell_length / C, np.finfo(float).eps
        with np.errstate(over="ignore", invalid="ignore"):
            abs_mu_sq = np.abs(mu_sq)
            rounding = 8.0 * eps * (1.0 + big_l * np.sqrt(abs_mu_sq))
            cancelling = np.where(mu_sq.real < 0.0, big_l * np.sqrt(eps * abs_mu_sq), 0.0)
        oracles = [
            (complex_entry_bounds(p, omegas), rounding + cancelling),
            (complex_entry_bounds(p, omegas, principal_root=True), rounding),
        ]
        for i, (m, bound) in enumerate(zip((m_pp, m_cp), bounds)):
            size = np.abs(m)
            finite = np.isfinite(size)
            assert np.all(size[finite] <= bound[finite])
            assert not np.any(np.isfinite(bound[~finite]))
            for oracle, rtol in oracles:
                want = oracle[i]
                assert np.array_equal(np.isfinite(bound), np.isfinite(want))
                ok = np.isfinite(want)
                assert np.all(np.abs(bound[ok] - want[ok]) <= rtol[ok] * want[ok])

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(
        delta2_mhz=st.floats(-3000.0, 3000.0),
        density=st.floats(0.2, 1.5),
        gamma_c_frac=st.floats(0.0, 0.5),
    )
    # far off resonance B / max B_k nears 1: ~1.009 at 3000 MHz, 1 + 2e-8 at 1e10 MHz
    @example(delta2_mhz=3000.0, density=0.2, gamma_c_frac=0.5)
    @example(delta2_mhz=-3000.0, density=0.2, gamma_c_frac=0.0)
    @example(delta2_mhz=1e10, density=0.2, gamma_c_frac=0.5)
    @example(delta2_mhz=-1e10, density=1.5, gamma_c_frac=0.0)
    def test_peak_bound_covers_every_skipped_bin(self, delta2_mhz, density, gamma_c_frac):
        p = make_params(
            delta1_mhz=30.0, gamma_c_frac=gamma_c_frac, delta2_mhz=delta2_mhz
        ).scaled_density(density)
        omegas = Propagator(make_gaussian_pulse(self.GRID_1K, 70e-9)).outside_omegas
        c = derive_coefficients(p)
        y_min = np.min(np.abs(omegas + c.delta_tilde))
        span = (y_min, omegas.min(), omegas.max())
        peak = peak_entry_bounds(p, *span)
        assert np.all(np.isfinite(peak)) == (2.0 * c.delta_r / y_min < 1.0)
        if abs(delta2_mhz) > 1e9:
            assert peak[0] <= (1.0 + 1e-7) * entry_bounds(p, omegas)[0].max()
        # full mode is also infinite where the span reaches the pole of eta(w)
        for q in (p, p.replace(dispersion_mode="full")):
            pair = peak_entry_bounds(q, *span)
            if np.all(np.isfinite(pair)):
                for b, bins in zip(pair, entry_bounds(q, omegas)):
                    assert np.all(bins <= b)

    # closed forms made infinite defer to the per-bin bound on every skipped
    # bin, which passes with no full-grid fallback; with Delta_1 = 0, eta(w)
    # is flat in full mode too, and the closed forms pass in both modes
    @pytest.mark.parametrize("dispersion_mode, infinite, calls", [
        ("constant", False, 0), ("constant", True, 5), ("full", False, 0), ("full", True, 5),
    ])
    def test_per_bin_bound_runs_only_where_the_peak_bound_does_not_pass(
        self, monkeypatch, dispersion_mode, infinite, calls
    ):
        if infinite:
            monkeypatch.setattr(pulses, "peak_entry_bounds", lambda *args: (math.inf, math.inf))
        cfg = parse_config(
            "omega_rabi_mhz = 420\ndelta_raman_mhz = 4000\ndelta_two_photon_mhz = 11.025\n"
            "eta0 = 960\ncell_length_cm = 2.5\ngamma_c_over_gamma = 0\n"
            f"dispersion_mode = {dispersion_mode}\n"
            "scan_start = 0.2\nscan_stop = 1.5\nscan_steps = 5\n"
        )
        counted, filled = [], []

        def bound(*args):
            counted.append(args)
            return entry_bounds(*args)

        def kernel(p, omegas, *args):
            filled.append((omegas.size, len(p)))
            return transfer_entries(p, omegas, *args)
        monkeypatch.setattr(pulses, "entry_bounds", bound)
        monkeypatch.setattr(pulses, "transfer_entries", kernel)
        propagate = cfg.propagator()
        records = scan(cfg.medium, "density", cfg.scan_values(), propagate)
        assert all(r.gain_peak is not None for r in records)
        assert len(counted) == calls
        # one call on the band for the 5 points, never the full grid
        assert filled == [(propagate.inside.size, 5)]
        # each point that needs it makes one call on all skipped bins
        assert [args[1].size for args in counted] == [propagate.outside.size] * calls

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(
        delta2_mhz=st.floats(-3000.0, 3000.0),
        density=st.floats(0.2, 1.5),
        gamma_c_frac=st.floats(0.0, 0.5),
        dispersion_mode=st.sampled_from(["constant", "full"]),
        delta1_mhz=st.sampled_from([0.0, 30.0, -30.0]),
    )
    # the pole of the full eta(w), -Omega^2/4 Delta_1 - delta, exactly on the
    # skipped bin 255 (124.5 MHz), where the per-bin bound is nan
    @example(delta2_mhz=-1594.51171875, density=1.0, gamma_c_frac=0.0,
             dispersion_mode="full", delta1_mhz=30.0)
    # infinite per-bin bounds next to the pole, one on a bin where the
    # FFT's |S0| is 0 and so in neither index set
    @example(delta2_mhz=-1158.0, density=1.0, gamma_c_frac=0.5,
             dispersion_mode="full", delta1_mhz=30.0)
    def test_peak_bound_covers_each_run_and_the_per_bin_sum(
        self, delta2_mhz, density, gamma_c_frac, dispersion_mode, delta1_mhz
    ):
        p = make_params(
            delta1_mhz=delta1_mhz, gamma_c_frac=gamma_c_frac, delta2_mhz=delta2_mhz,
            dispersion_mode=dispersion_mode,
        ).scaled_density(density)
        c = derive_coefficients(p)
        for propagate in (Propagator(make_gaussian_pulse(self.GRID_1K, 70e-9)),
                          Propagator.gaussian(self.GRID_1K, 70e-9)):
            omegas, sizes = propagate.outside_omegas, propagate.outside_abs
            y = omegas + c.delta_tilde
            per_bin = entry_bounds(p, omegas)
            finite, want = True, [0.0, 0.0]
            # the two runs either side of resonance; a bin on it joins the upper one
            for side in (y < 0.0, y >= 0.0):
                if not side.any():
                    continue
                pair = peak_entry_bounds(p, np.abs(y[side]).min(), omegas[side].min(),
                                         omegas[side].max())
                if np.all(np.isfinite(pair)):
                    for b, bins in zip(pair, per_bin):
                        assert np.all(bins[side] <= b)
                    want = [w + b * float(sizes[side].sum()) for w, b in zip(want, pair)]
                else:
                    finite = False
            peak_sums, per_bin_sums = propagate._skipped_sums(p)
            if finite:  # each run's pair times its sum of |S0|, with the slack
                assert peak_sums == [w * (1.0 + pulses._PEAK_BOUND_SLACK) for w in want]
            else:  # an infinite pair fails the check
                assert not all(np.isfinite(peak_sums))
            # at or above the per-bin sum over every skipped bin, which it stands for
            for s, bins, t in zip(peak_sums, per_bin, per_bin_sums):
                total = float(np.dot(bins, sizes))
                assert s >= total or not np.isfinite(s) or not np.isfinite(total)
                assert t == total * (1.0 + pulses._PEAK_BOUND_SLACK) or not np.isfinite(total)

    @pytest.mark.parametrize("dispersion_mode", ["constant", "full"])
    def test_per_bin_bound_is_the_per_bin_sum_with_its_slack(self, dispersion_mode):
        # a medium off resonance, and one whose Delta_R = Omega^2/4Delta
        # underflows to 0
        media = [
            make_params(delta1_mhz=30.0, gamma_c_frac=0.5, delta2_mhz=1000.0,
                        dispersion_mode=dispersion_mode),
            MediumParams(omega_rabi=1e-150, delta_raman=1e300, delta_one=0.0,
                         delta_two_photon=0.0, gamma=1e7, gamma_c=1e6,
                         coupling_g2n=1e-300, cell_length=0.025,
                         dispersion_mode=dispersion_mode),
        ]
        assert media[1].coefficients.delta_r == 0.0
        propagate = Propagator.gaussian(self.GRID_1K, 70e-9)
        for p in media:
            per_bin = entry_bounds(p, propagate.outside_omegas)
            want = [float(np.dot(b, propagate.outside_abs)) * (1.0 + pulses._PEAK_BOUND_SLACK)
                    for b in per_bin]
            assert all(np.isfinite(want))
            assert list(propagate._skipped_sums(p))[1] == want

    def test_no_benchmark_point_falls_back(self, monkeypatch):
        # every density point passes the band check at the peak bound, and 17
        # of 21 detuning points at the per-bin bound on every skipped bin
        medium = ("omega_rabi_mhz = 420\ndelta_raman_mhz = 4000\n"
                  "delta_two_photon_mhz = 11.025\neta0 = 960\ncell_length_cm = 2.5\n"
                  "n_samples = 4096\n")
        scans = [
            ("delta", "gamma_c_over_gamma = 0.01\ndelta_one_mhz = 30\n"
             "dispersion_mode = full\npropagation_mode = exact\n", (-40.0, 60.0, 21), 17),
            ("density", "gamma_c_over_gamma = 0\ndispersion_mode = constant\n",
             (0.2, 1.5, 5), 0),
        ]
        for axis, body, (start, stop, steps), per_bin in scans:
            cfg = parse_config(
                f"{medium}{body}scan_start = {start}\nscan_stop = {stop}\nscan_steps = {steps}\n"
            )
            bound_sizes, kernel_sizes = [], []

            def bound(p, omega, *args):
                bound_sizes.append(omega.size)
                return entry_bounds(p, omega, *args)

            def kernel(p, omega, *args):
                kernel_sizes.append((omega.size, len(p)))
                return transfer_entries(p, omega, *args)
            monkeypatch.setattr(pulses, "entry_bounds", bound)
            monkeypatch.setattr(pulses, "transfer_entries", kernel)
            unit = MHZ if axis == "delta" else 1.0
            propagate = cfg.propagator()
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)
                scan(cfg.medium, axis, [v * unit for v in cfg.scan_values()], propagate)
            assert bound_sizes == [propagate.outside.size] * per_bin
            # calls on the band, a row for every point, and none on the skipped bins
            assert {size for size, _ in kernel_sizes} == {propagate.inside.size}
            assert sum(rows for _, rows in kernel_sizes) == steps

    @pytest.mark.parametrize("ratio, falls_back", [(0.9e-13, False), (1.2e-13, True)])
    def test_budget_is_1e_13_of_each_output_peak(self, monkeypatch, ratio, falls_back):
        # skipped-bin sums that move each output by `ratio` of its peak amplitude
        propagate = Propagator.gaussian(GRID, 70e-9)
        p = make_params()
        spectrum = propagate.spectrum
        _, magnitudes = _output_envelopes(propagate, p, spectrum)
        sums = [ratio * top * GRID.n_samples * GRID.t_step for _, top in magnitudes]
        monkeypatch.setattr(Propagator, "_skipped_sums", lambda self, p: iter([sums]))
        sizes = []
        kernel = pulses.transfer_entries
        monkeypatch.setattr(pulses, "transfer_entries",
                            lambda p, omegas: sizes.append(omegas.size) or kernel(p, omegas))
        propagate(p)
        assert sizes == [propagate.inside.size] + [propagate.outside.size] * falls_back

    def test_bound_keeps_every_fallback_decision(self, monkeypatch):
        # the two benchmark scans, then the +-3000 MHz detuning scan in all
        # four mode pairs, and in both dispersion modes at small and at zero
        # loss, where Re d is tiny or 0; the complex form is the bound that
        # made them before.  Each scan pins the points the peak bound passes
        # on to the per-bin bound, and the points of those that fall back
        medium = ("omega_rabi_mhz = 420\ndelta_raman_mhz = 4000\n"
                  "delta_two_photon_mhz = 11.025\neta0 = 960\ncell_length_cm = 2.5\n")
        wide = {0.5: ((7, 0), (33, 12)), 0.01: ((7, 0), (17, 6)), 0: ((7, 0), (13, 6))}
        scans = [
            ("density", "gamma_c_over_gamma = 0\ndispersion_mode = constant\n"
             "propagation_mode = relative\n", (0.2, 1.5, 201), (0, 0)),
            ("delta", "gamma_c_over_gamma = 0.01\ndelta_one_mhz = 30\n"
             "dispersion_mode = full\npropagation_mode = exact\n", (-40.0, 60.0, 201), (160, 0)),
        ] + [
            ("delta", f"gamma_c_over_gamma = {gc}\ndelta_one_mhz = 30\n"
             f"dispersion_mode = {dm}\npropagation_mode = {pm}\n", (-3000.0, 3000.0, 121),
             counts[dm == "full"])
            for gc, counts in wide.items() for dm in ("constant", "full")
            for pm in ("relative", "exact")
        ]
        kernel = pulses.transfer_entries
        for axis, body, (start, stop, steps), (per_bin, fallbacks) in scans:
            cfg = parse_config(
                f"{medium}{body}scan_start = {start}\nscan_stop = {stop}\nscan_steps = {steps}\n"
            )
            unit = MHZ if axis == "delta" else 1.0
            values = [v * unit for v in cfg.scan_values()]
            calls = []
            for bound in (entry_bounds, complex_entry_bounds):
                sizes, bounded = [], []

                def counted(p, omega, *args):
                    sizes.append(omega.size)
                    return kernel(p, omega, *args)

                def counted_bound(p, omega, bound=bound):
                    bounded.append(omega.size)
                    return bound(p, omega)
                monkeypatch.setattr(pulses, "transfer_entries", counted)
                monkeypatch.setattr(pulses, "entry_bounds", counted_bound)
                propagate = cfg.propagator()
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", UserWarning)
                    scan(cfg.medium, axis, values, propagate)
                calls.append((sizes, bounded))
            assert calls[0] == calls[1]
            sizes, bounded = calls[0]
            assert len(bounded) == per_bin
            # a point falls back when the kernel also runs on the outside bins
            assert sizes.count(propagate.outside.size) == fallbacks

    def test_band_is_the_input_spectrum_above_its_cutoff(self):
        pulse = make_gaussian_pulse(GRID, 70e-9)
        band = Propagator(pulse)
        # the input's spectrum, taken once, bit for bit
        assert band.spectrum.tobytes() == to_spectrum(pulse).tobytes()
        mag = np.abs(band.spectrum)
        assert 0 < band.inside.size < GRID.n_samples
        assert np.all(mag[band.inside] > 1e-16 * mag.max())
        assert np.all(mag[band.outside] <= 1e-16 * mag.max())
        # every bin is in one set but the exact zeros, which are in neither
        assert np.array_equal(np.sort(np.r_[band.inside, band.outside]),
                              np.flatnonzero(band.spectrum))
        assert np.array_equal(band.outside_abs, mag[band.outside])
        assert np.array_equal(band.outside_omegas, GRID.omegas[band.outside])
        assert np.array_equal(band.inside_omegas, GRID.omegas[band.inside])
        # in ascending order of frequency, which outside_abs follows
        assert np.all(np.diff(band.outside_omegas) > 0.0)
        for arr in (band.spectrum, band.inside, band.inside_omegas, band.outside, band.outside_abs,
                    band.outside_omegas):
            assert not arr.flags.writeable

    def test_a_zero_bin_is_in_neither_set_and_no_fallback_writes_it(self, monkeypatch):
        propagate = Propagator.gaussian(GRID, 70e-9)
        spectrum = propagate.spectrum
        zeros = np.flatnonzero(spectrum == 0.0)
        assert zeros.size > GRID.n_samples // 2  # the closed form underflows beyond ~150 MHz
        assert np.array_equal(np.sort(np.r_[propagate.inside, propagate.outside]),
                              np.flatnonzero(spectrum))
        # infinite bounds send the point to the full grid, where the kernel
        # is nan at every zero bin: the outputs stay finite, as no bin is evaluated there
        monkeypatch.setattr(pulses, "peak_entry_bounds", lambda *args: (math.inf, math.inf))
        monkeypatch.setattr(pulses, "entry_bounds",
                            lambda p, omegas: np.full((2, omegas.size), math.inf))
        zero_omegas, evaluated = GRID.omegas[zeros], []

        def kernel(p, omegas):
            evaluated.append(omegas.size)
            at_zero = np.isin(omegas, zero_omegas)
            return [np.where(at_zero, np.nan, m) for m in transfer_entries(p, omegas)]
        monkeypatch.setattr(pulses, "transfer_entries", kernel)
        p = make_params(gamma_c_frac=0.5)
        res = propagate(p)
        assert evaluated == [propagate.inside.size, propagate.outside.size]
        assert not np.any(propagate._buffers[0][:, zeros])
        _, (probe, conj_star) = _full_grid_outputs(p, propagate)
        assert np.array_equal(res.probe.envelope, probe)
        assert np.array_equal(res.conjugate.envelope, np.conj(conj_star))

    def test_point_that_fails_the_bound_is_the_full_grid_path(self, monkeypatch):
        # heavy loss far off the light shift: the output peak is too small
        # for the bound on 4096 - 356 skipped bins
        p = make_params(delta1_mhz=30.0, gamma_c_frac=0.5, delta2_mhz=1000.0,
                        dispersion_mode="full")
        pulse = make_gaussian_pulse(GRID, 70e-9)
        sizes = []

        def counted(p, omega, *args):
            sizes.append(omega.size)
            return transfer_entries(p, omega, *args)
        monkeypatch.setattr(pulses, "transfer_entries", counted)
        propagate = Propagator(pulse, "exact")
        res = propagate(p)
        assert sizes == [propagate.inside.size, propagate.outside.size]
        m_pp, _, m_cp, _ = transfer_entries(p, GRID.omegas)
        # exact mode is relative mode on the vacuum-delayed input
        delayed = np.exp(-1j * GRID.omegas * p.cell_length / C) * propagate.spectrum
        assert np.array_equal(res.reference.envelope, from_spectrum(delayed, GRID))
        probe = from_spectrum(m_pp * delayed, GRID)
        conj_star = from_spectrum(m_cp * delayed, GRID)
        assert np.array_equal(res.probe.envelope, probe)
        assert np.array_equal(res.conjugate.envelope, np.conj(conj_star))

    def test_a_fallback_leaves_no_outside_bins_for_the_next_call(self, monkeypatch):
        # the first medium fails the bound, so its call also fills the
        # outside bins of the work spectra; the next medium passes it, and
        # its call must find them zero, as a new propagator does
        fallback = make_params(delta1_mhz=30.0, gamma_c_frac=0.5, delta2_mhz=1000.0,
                               dispersion_mode="full")
        band_only = make_params(delta1_mhz=30.0, gamma_c_frac=0.01, dispersion_mode="full")
        pulse = make_gaussian_pulse(GRID, 70e-9)
        sizes = []

        def counted(p, omega, *args):
            sizes.append(omega.size)
            return transfer_entries(p, omega, *args)
        monkeypatch.setattr(pulses, "transfer_entries", counted)
        shared = Propagator(pulse, "exact")
        shared(fallback)
        second = shared(band_only)
        fresh = Propagator(pulse, "exact")(band_only)
        inside, outside = shared.inside.size, shared.outside.size
        assert sizes == [inside, outside, inside, inside]
        for name in ("reference", "probe", "conjugate"):
            got, want = getattr(second, name), getattr(fresh, name)
            assert got.envelope.tobytes() == want.envelope.tobytes()

    def test_all_bins_in_band_is_one_full_grid_call(self, monkeypatch):
        # 3.2 samples wide: the spectrum falls to ~1e-8 at the grid edge, so
        # every bin is inside the band and the aliasing guard still passes
        grid = TimeGrid.centered(1024e-9, 1024)
        pulse = make_gaussian_pulse(grid, 3.2e-9)
        propagate = Propagator(pulse)
        assert propagate.outside.size == 0
        sizes = []

        def counted(p, omega, *args):
            sizes.append(omega.size)
            return transfer_entries(p, omega, *args)
        monkeypatch.setattr(pulses, "transfer_entries", counted)
        p = make_params()
        res = propagate(p)
        assert sizes == [grid.n_samples]
        _, (probe, conj_star) = _full_grid_outputs(p, propagate)
        assert np.max(np.abs(res.probe.envelope - probe)) <= 1e-13 * np.max(np.abs(probe))
        conj = np.conj(conj_star)
        assert np.max(np.abs(res.conjugate.envelope - conj)) <= 1e-13 * np.max(np.abs(conj))


class TestFitRobustness:
    def test_noisy_center_recovery(self):
        pulse = make_gaussian_pulse(GRID, 70e-9)
        base = np.asarray(pulse.envelope)
        worst = 0.0
        for _ in range(100):
            noisy = base * (1.0 + 1e-3 * RNG.uniform(-1.0, 1.0, base.size))
            fit = fit_gaussian(SampledPulse(GRID, noisy))
            worst = max(worst, abs(fit.center))
        assert worst < 0.5e-9

    def test_two_peaks_rejected(self):
        env = (
            np.asarray(make_gaussian_pulse(GRID, 50e-9, center=-300e-9).envelope)
            + np.asarray(make_gaussian_pulse(GRID, 50e-9, center=300e-9).envelope)
        )
        with pytest.raises(FitError, match="unique dominant peak"):
            fit_gaussian(SampledPulse(GRID, env))

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        runs=st.lists(st.tuples(st.integers(0, 40), st.integers(1, 40)), min_size=1, max_size=4),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_gap_in_the_fitted_region_is_found_like_a_diff(self, runs, seed):
        # samples above the 1/e^2 level in runs of the given lengths after
        # the given gaps, at 0.6..1 of the peak amplitude; 0.1 elsewhere
        mask = np.concatenate([np.r_[np.zeros(gap, bool), np.ones(run, bool)]
                               for gap, run in runs])[:256]
        mask = np.r_[mask, np.zeros(256 - mask.size, bool)]
        amplitude = np.random.default_rng(seed).uniform(0.6, 1.0, 256)
        grid = TimeGrid(n_samples=256, t_start=0.0, t_step=1e-9)
        pulse = SampledPulse(grid, np.where(mask, amplitude, 0.1))
        idx = np.flatnonzero(mask)
        assert np.array_equal(np.flatnonzero(pulse.intensity >= pulse.peak * math.exp(-2.0)), idx)
        try:
            fit_gaussian(pulse)
        except FitError as exc:
            message = str(exc)
        else:
            message = ""
        if idx.size < 8:
            assert message.startswith("only")
        else:
            assert ("not contiguous" in message) == bool(np.any(np.diff(idx) != 1))

    def test_huge_intensity_fits_like_the_unit_pulse(self):
        unit = fit_gaussian(make_gaussian_pulse(GRID, 120e-9, center=13e-9))
        unit_env = make_gaussian_pulse(GRID, 120e-9, center=13e-9).envelope
        huge = SampledPulse(GRID, 1e100 * unit_env)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # an overflow inside polyfit would raise
            fit = fit_gaussian(huge)
        assert fit.center == pytest.approx(unit.center, rel=1e-12)
        assert fit.fwhm == pytest.approx(unit.fwhm, rel=1e-12)
        assert fit.peak == pytest.approx(1e200 * unit.peak, rel=1e-12)

    def test_fitted_peak_above_the_double_range_is_a_fit_error(self):
        # every sample is finite, but the vertex lies half a sample past the
        # largest one, which is already within 1e-10 of the double range
        grid = TimeGrid.centered(2e-6, 4096)
        amp = math.sqrt(sys.float_info.max) * (1.0 + 1e-10)
        env = amp * np.exp(
            -2.0 * math.log(2.0) * ((grid.times - 0.5 * grid.t_step) / 70e-9) ** 2
        )
        pulse = SampledPulse(grid, env)
        assert np.all(np.isfinite(pulse.intensity))
        with pytest.raises(FitError, match="overflows"):
            fit_gaussian(pulse)

    @pytest.mark.parametrize("scale", [2.5e-162, 3.2e-162])
    def test_peak_whose_threshold_underflows_is_a_fit_error(self, scale):
        # peak intensity 5e-324 or 1e-323: peak e^-2 rounds to 0, so the mask
        # would take the exact zeros of the far wings and fit their log
        pulse = SampledPulse(GRID, make_gaussian_pulse(GRID, 70e-9).envelope * scale)
        assert pulse.intensity.max() * math.exp(-2.0) == 0.0
        with pytest.raises(FitError, match="too small to fit"):
            fit_gaussian(pulse)

    def test_flat_top_has_no_negative_curvature(self):
        # intensity exactly 1 on 8 samples and 0 elsewhere: log I = 0 on every
        # fitted sample, so the solve gives a = b = c = 0 exactly
        env = np.zeros(256)
        env[100:108] = 1.0
        with pytest.raises(FitError, match="^non-negative log-intensity curvature"):
            fit_gaussian(SampledPulse(TimeGrid(n_samples=256, t_start=0.0, t_step=1e-9), env))

    def test_sample_exactly_at_the_threshold_is_fitted(self):
        # a unit peak, 6 more samples above its 1/e^2 level and one exactly at
        # it: 8 samples of log I = -2 ((k - 104) / 4)^2, a parabola
        edge = math.exp(-1.0)
        assert edge * edge == math.exp(-2.0)
        k = np.arange(256)
        env = np.where((k > 100) & (k < 108), np.exp(-(((k - 104) / 4.0) ** 2)), 0.0)
        env[100], env[108] = edge, 0.3  # 0.3^2 is below the level
        pulse = SampledPulse(TimeGrid(n_samples=256, t_start=0.0, t_step=1e-9), env)
        assert pulse.intensity[100] == pulse.peak * math.exp(-2.0)
        fit = fit_gaussian(pulse)
        assert fit.center == pytest.approx(104e-9, rel=1e-12)
        assert fit.fwhm == pytest.approx(4e-9 * math.sqrt(2.0 * math.log(2.0)), rel=1e-12)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        n=st.integers(8, 3000),
        curved=st.booleans(),
        log_amplitude=st.floats(-230.0, 230.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_closed_form_solve_agrees_with_lu(self, n, curved, log_amplitude, seed):
        # fit_gaussian's normal equations: n evenly spaced times onto [-1, 1],
        # log-intensities within 2 of the peak's, weights (I / peak)^2
        rng = np.random.default_rng(seed)
        x = np.arange(n) * 1e-9
        u = (x - 0.5 * (x[-1] + x[0])) / (0.5 * (x[-1] - x[0]))
        if curved:
            shape = np.maximum(-2.0 * ((u - rng.uniform(-1.0, 1.0)) / rng.uniform(0.3, 3.0)) ** 2,
                               -2.0)
        else:
            shape = rng.uniform(-2.0, 0.0, n)
        w = np.exp(2.0 * (shape - shape.max()))
        v = np.stack([u * u, u, np.ones(n)])
        m, r = (v * w) @ v.T, (v * w) @ (log_amplitude + shape)
        want = np.linalg.solve(m, r)
        got = np.array(pulses._solve_3x3(m, r))
        bound = 8.0 * np.finfo(float).eps * np.linalg.cond(m, np.inf) * np.max(np.abs(want))
        assert np.max(np.abs(got - want)) <= bound

    def test_too_few_samples(self):
        grid = TimeGrid.centered(65536e-9, 256)  # dt = 256 ns
        env = np.exp(-2.0 * math.log(2.0) * (grid.times / 300e-9) ** 2)
        with pytest.raises(FitError, match="samples"):
            fit_gaussian(SampledPulse(grid, env.astype(complex)))

    @pytest.mark.parametrize("t_start, message", [
        (1.0, "share one time value"),
        # the fitted times round to two values, so u^2 = 1 on every sample
        (np.nextafter(1.0, 0.0), "do not determine a parabola"),
    ])
    def test_times_below_their_resolution_are_a_fit_error(self, t_start, message):
        grid = TimeGrid(n_samples=256, t_start=t_start, t_step=1e-18)
        k = np.arange(256)
        env = np.exp(-(((k - 55) / 10.0) ** 2)).astype(complex)  # samples 45..65
        with pytest.raises(FitError, match=message):
            fit_gaussian(SampledPulse(grid, env))

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        kind=st.sampled_from(["gaussian", "skewed", "chirped"]),
        width=st.floats(3.0, 240.0),  # intensity FWHM in samples: 3 to ~460 fitted
        offset=st.floats(-100.0, 100.0),  # pulse center in samples
        shape=st.floats(-0.5, 0.5),
        log_amplitude=st.floats(-100.0, 100.0),
        origin=st.sampled_from([0.0, 1e-3]),
    )
    def test_matches_the_polyfit_oracle(
        self, kind, width, offset, shape, log_amplitude, origin
    ):
        dt = 1e-9
        grid = TimeGrid(n_samples=1024, t_start=origin - 512 * dt, t_step=dt)
        tau = (grid.times - origin - offset * dt) / (width * dt)
        log_i = -4.0 * math.log(2.0) * tau**2
        if kind == "skewed":
            log_i = log_i * (1.0 + shape * np.tanh(tau))
        env = 10.0**log_amplitude * np.exp(0.5 * log_i)
        if kind == "chirped":  # a temporal chirp, then dispersion reshapes it
            spec = np.fft.fft(env * np.exp(1j * shape * tau**2))
            env = np.fft.ifft(spec * np.exp(0.05j * (width * dt * grid.omegas) ** 2))
        pulse = SampledPulse(grid, env)
        try:
            want = polyfit_gaussian(pulse)
        except FitError as exc:
            with pytest.raises(FitError, match=re.escape(str(exc))):
                fit_gaussian(pulse)
            return
        fit = fit_gaussian(pulse)
        assert abs(fit.center - want.center) <= 1e-9 * dt
        assert fit.fwhm == pytest.approx(want.fwhm, rel=5e-12, abs=0.0)
        assert fit.peak == pytest.approx(want.peak, rel=5e-12, abs=0.0)


class TestMetrics:
    def test_identity_output(self):
        pulse = make_gaussian_pulse(GRID, 70e-9)
        pm = pulse_metrics(pulse, pulse)
        assert pm.delay_vs_reference == 0.0
        assert pm.gain_peak == pytest.approx(1.0, rel=1e-12)
        assert pm.gain_energy == pytest.approx(1.0, rel=1e-12)
        assert pm.broadening_fraction == pytest.approx(0.0, abs=1e-12)

    def test_slowdown_helper_value(self):
        # 40 ns delay over 2.5 cm is a slow-down factor of ~480
        assert C * 40e-9 / 0.025 == pytest.approx(480.0, rel=1e-3)

    def test_invariant_relations(self):
        p = make_params(gamma_c_frac=0.5)
        res = Propagator(make_gaussian_pulse(GRID, 70e-9))(p)
        pm, cm = _metrics(res)
        ref_fit = fit_gaussian(res.reference)
        for m, out in ((pm, res.probe), (cm, res.conjugate)):
            assert out.fit.fwhm > 0
            assert m.broadening_fraction == pytest.approx(
                out.fit.fwhm / ref_fit.fwhm - 1.0, rel=1e-12
            )
            assert m.fractional_delay == pytest.approx(
                m.delay_vs_reference / ref_fit.fwhm, rel=1e-12
            )
