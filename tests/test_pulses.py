import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mp4wm import pulses
from mp4wm.coupling import coefficients_at, entry_bounds, transfer_entries
from mp4wm.errors import AliasingError, ContainmentError, FitError, GuardError
from mp4wm.params import derive_coefficients
from mp4wm.pulses import (
    SampledPulse,
    TimeGrid,
    fit_gaussian,
    from_spectrum,
    make_gaussian_pulse,
    propagate_pulse,
    pulse_metrics,
    to_spectrum,
)

from _oracles import pulse_oracle
from conftest import C, make_params

RNG = np.random.default_rng(7)

GRID = TimeGrid.centered(2048e-9, 4096)  # dt = 0.5 ns, t = 0 on the grid


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

    def test_frequency_spacing(self):
        g = GRID
        dw = g.omegas[1] - g.omegas[0]
        assert dw == pytest.approx(2.0 * math.pi / g.span, rel=1e-12)


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
        pulse = make_gaussian_pulse(GRID, 70e-9, peak_amplitude=0.0)
        with pytest.raises(FitError):
            fit_gaussian(pulse)

    def test_containment_violation_reports_window(self):
        with pytest.raises(ContainmentError, match="window"):
            make_gaussian_pulse(GRID, 900e-9)


class TestSpectrum:
    def test_roundtrip(self):
        pulse = make_gaussian_pulse(GRID, 70e-9, center=40e-9)
        back = from_spectrum(to_spectrum(pulse), GRID)
        assert back == pytest.approx(pulse.envelope, rel=1e-12, abs=1e-12)

    def test_delta_pulse_flat_spectrum(self):
        env = np.zeros(GRID.n_samples, dtype=complex)
        env[GRID.n_samples // 2] = 1.0
        spec = to_spectrum(SampledPulse(GRID, env), check=False)
        mags = np.abs(spec)
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
        dw = 2.0 * math.pi / GRID.span
        e_freq = np.sum(np.abs(spec) ** 2) * dw / (2.0 * math.pi)
        assert e_freq == pytest.approx(e_time, rel=1e-12)

    def test_aliasing_guard(self):
        coarse = TimeGrid.centered(2048e-9, 256)  # dt = 8 ns
        pulse = make_gaussian_pulse(coarse, 10e-9)
        with pytest.raises(AliasingError):
            to_spectrum(pulse)


class TestPropagation:
    def test_zero_length_identity(self):
        p = make_params().replace(cell_length=0.0)
        pulse = make_gaussian_pulse(GRID, 70e-9)
        res = propagate_pulse(p, pulse)
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
        res = propagate_pulse(p, pulse)
        pm, cm = _metrics(res)
        assert pm.gain_peak == pytest.approx(math.cosh(arg) ** 2, rel=1e-2)
        assert cm.gain_peak == pytest.approx(math.sinh(arg) ** 2, rel=1e-2)

    def test_decoupled_lossless_energy_preserved(self):
        p = make_params(gamma_c_frac=0.0, delta_mhz=1e15, delta2_mhz=5.0)
        pulse = make_gaussian_pulse(GRID, 70e-9)
        res = propagate_pulse(p, pulse)
        assert res.probe.energy == pytest.approx(pulse.energy, rel=1e-10)

    def test_conjugate_emerges_before_probe(self):
        p = make_params(gamma_c_frac=0.5)
        pulse = make_gaussian_pulse(GRID, 70e-9)
        res = propagate_pulse(p, pulse)
        pm, cm = _metrics(res)
        assert cm.peak_time < pm.peak_time

    def test_linearity(self):
        p = make_params(gamma_c_frac=0.5)
        pulse = make_gaussian_pulse(GRID, 70e-9)
        s = 0.37 - 1.2j
        scaled = SampledPulse(GRID, s * np.asarray(pulse.envelope))
        res1 = propagate_pulse(p, pulse)
        res2 = propagate_pulse(p, scaled)
        assert res2.probe.envelope == pytest.approx(
            s * np.asarray(res1.probe.envelope), rel=1e-12
        )
        assert res2.conjugate.envelope == pytest.approx(
            np.conj(s) * np.asarray(res1.conjugate.envelope), rel=1e-12
        )

    def test_time_shift_covariance(self):
        p = make_params(gamma_c_frac=0.5)
        shift = 100e-9
        res1 = propagate_pulse(p, make_gaussian_pulse(GRID, 70e-9))
        res2 = propagate_pulse(p, make_gaussian_pulse(GRID, 70e-9, center=shift))
        m1, m2 = _metrics(res1), _metrics(res2)
        dt = GRID.t_step
        for a, b in zip(m1, m2):
            assert abs((b.peak_time - a.peak_time) - shift) < dt
            assert b.delay_vs_reference == pytest.approx(
                a.delay_vs_reference, abs=1e-3 * dt
            )

    def test_grid_refinement_stability(self):
        p = make_params(gamma_c_frac=0.5)
        vals = []
        for n in (4096, 8192):
            grid = TimeGrid.centered(2048e-9, n)
            res = propagate_pulse(p, make_gaussian_pulse(grid, 70e-9))
            pm, cm = _metrics(res)
            vals.append((pm.gain_peak, pm.delay_vs_reference, pm.fwhm_intensity,
                         cm.gain_peak, cm.delay_vs_reference))
        for a, b in zip(*vals):
            assert b == pytest.approx(a, rel=1e-5)

    @pytest.mark.parametrize(
        "propagation_mode, dispersion_mode", [("relative", "constant"), ("exact", "full")]
    )
    def test_matches_rk4_pulse_oracle(self, propagation_mode, dispersion_mode):
        p = make_params(delta1_mhz=30.0, gamma_c_frac=0.01)
        grid = TimeGrid.centered(2048e-9, 1024)
        pulse = make_gaussian_pulse(grid, 70e-9)
        res = propagate_pulse(p, pulse, propagation_mode, dispersion_mode)
        probe, conj = pulse_oracle(
            p, pulse.envelope, grid.t_step, propagation_mode, dispersion_mode
        )
        for out, expected in ((res.probe, probe), (res.conjugate, conj)):
            peak = np.max(np.abs(expected))
            assert np.max(np.abs(out.envelope - expected)) <= 1e-9 * peak

    def test_output_containment_guard(self):
        # delayed, strongly broadened output must not wrap the window
        p = make_params(eta0=20000.0, gamma_c_frac=0.0)
        grid = TimeGrid.centered(1024e-9, 2048)
        pulse = make_gaussian_pulse(grid, 70e-9)
        with pytest.raises(ContainmentError):
            propagate_pulse(p, pulse)


def _full_grid_outputs(p, pulse, propagation_mode, dispersion_mode):
    """ifft(m_pp fft(E)) and ifft(m_cp fft(E)) with the kernel on every bin."""
    m_pp, _, m_cp, _ = transfer_entries(
        p, pulse.grid.omegas, None, propagation_mode, dispersion_mode
    )
    spec = np.fft.fft(pulse.envelope)
    return (m_pp, m_cp), (np.fft.ifft(m_pp * spec), np.fft.ifft(m_cp * spec))


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
            delta1_mhz=30.0, gamma_c_frac=gamma_c_frac, delta2_mhz=delta2_mhz
        ).scaled_density(density)
        pulse = make_gaussian_pulse(self.GRID_1K, 70e-9)
        outputs = pulses._output_envelopes(p, pulse, propagation_mode, dispersion_mode)
        entries, expected = _full_grid_outputs(p, pulse, propagation_mode, dispersion_mode)
        for out, want in zip(outputs, expected):
            # near the pole of the full eta(w) the kernel overflows on some
            # bins; the band path must then overflow too, not hide it
            assert np.all(np.isfinite(out)) == np.all(np.isfinite(want))
            if np.all(np.isfinite(want)):
                assert np.max(np.abs(out - want)) <= 1e-13 * np.max(np.abs(want))
        try:
            res = propagate_pulse(p, pulse, propagation_mode, dispersion_mode)
        except GuardError:
            pass  # a guard on the output, not on how it was computed
        else:
            assert np.array_equal(res.probe.envelope, outputs[0])
            assert np.array_equal(res.conjugate.envelope, np.conj(outputs[1]))
        outside = pulse.band.outside
        bounds = entry_bounds(p, self.GRID_1K.omegas[outside], None, dispersion_mode)
        for m, bound in zip(entries, bounds):
            size = np.abs(m[outside])
            finite = np.isfinite(size)
            assert np.all(size[finite] <= bound[finite])
            assert not np.any(np.isfinite(bound[~finite]))

    def test_band_is_the_input_spectrum_above_its_cutoff(self):
        pulse = make_gaussian_pulse(GRID, 70e-9)
        band = pulse.band
        mag = np.abs(pulse.spectrum)
        assert pulse.band is band
        assert 0 < band.inside.size < GRID.n_samples
        assert np.all(mag[band.inside] > 1e-16 * mag.max())
        assert np.all(mag[band.outside] <= 1e-16 * mag.max())
        assert np.array_equal(np.sort(np.r_[band.inside, band.outside]),
                              np.arange(GRID.n_samples))
        assert np.array_equal(band.outside_abs, mag[band.outside])
        for arr in (band.inside, band.outside, band.outside_abs):
            assert not arr.flags.writeable

    def test_point_that_fails_the_bound_is_the_full_grid_path(self, monkeypatch):
        # heavy loss far off the light shift: the output peak is too small
        # for the bound on 4096 - 356 skipped bins
        p = make_params(delta1_mhz=30.0, gamma_c_frac=0.5, delta2_mhz=1000.0)
        pulse = make_gaussian_pulse(GRID, 70e-9)
        sizes = []

        def counted(p, omega, *args):
            sizes.append(omega.size)
            return transfer_entries(p, omega, *args)
        monkeypatch.setattr(pulses, "transfer_entries", counted)
        res = propagate_pulse(p, pulse, "exact", "full")
        assert sizes == [pulse.band.inside.size, pulse.band.outside.size]
        m_pp, _, m_cp, _ = transfer_entries(p, GRID.omegas, None, "exact", "full")
        probe = from_spectrum(m_pp * pulse.spectrum, GRID)
        conj_star = from_spectrum(m_cp * pulse.spectrum, GRID)
        assert np.array_equal(res.probe.envelope, probe)
        assert np.array_equal(res.conjugate.envelope, np.conj(conj_star))

    def test_all_bins_in_band_is_one_full_grid_call(self, monkeypatch):
        # 3.2 samples wide: the spectrum falls to ~1e-8 at the grid edge, so
        # every bin is inside the band and the aliasing guard still passes
        grid = TimeGrid.centered(1024e-9, 1024)
        pulse = make_gaussian_pulse(grid, 3.2e-9)
        assert pulse.band.outside.size == 0
        sizes = []

        def counted(p, omega, *args):
            sizes.append(omega.size)
            return transfer_entries(p, omega, *args)
        monkeypatch.setattr(pulses, "transfer_entries", counted)
        p = make_params()
        res = propagate_pulse(p, pulse)
        assert sizes == [grid.n_samples]
        _, (probe, conj_star) = _full_grid_outputs(p, pulse, "relative", "constant")
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

    def test_huge_intensity_fits_like_the_unit_pulse(self):
        unit = fit_gaussian(make_gaussian_pulse(GRID, 120e-9, center=13e-9))
        huge = make_gaussian_pulse(GRID, 120e-9, center=13e-9, peak_amplitude=1e100)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # an overflow inside polyfit would raise
            fit = fit_gaussian(huge)
        assert fit.center == pytest.approx(unit.center, rel=1e-12)
        assert fit.fwhm == pytest.approx(unit.fwhm, rel=1e-12)
        assert fit.peak == pytest.approx(1e200 * unit.peak, rel=1e-12)

    def test_too_few_samples(self):
        grid = TimeGrid.centered(65536e-9, 256)  # dt = 256 ns
        env = np.exp(-2.0 * math.log(2.0) * (grid.times / 300e-9) ** 2)
        with pytest.raises(FitError, match="samples"):
            fit_gaussian(SampledPulse(grid, env.astype(complex)))


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
        res = propagate_pulse(p, make_gaussian_pulse(GRID, 70e-9))
        pm, cm = _metrics(res)
        ref_fit = fit_gaussian(res.reference)
        for m in (pm, cm):
            assert m.fwhm_intensity > 0
            assert m.broadening_fraction == pytest.approx(
                m.fwhm_intensity / ref_fit.fwhm - 1.0, rel=1e-12
            )
            assert m.fractional_delay == pytest.approx(
                m.delay_vs_reference / ref_fit.fwhm, rel=1e-12
            )
