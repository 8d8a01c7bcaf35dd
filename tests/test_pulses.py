import math
import warnings

import numpy as np
import pytest

from mp4wm.coupling import coefficients_at
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

from conftest import C, make_params

RNG = np.random.default_rng(7)

GRID = TimeGrid.centered(2048e-9, 4096)  # dt = 0.5 ns, t = 0 on the grid


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
        assert back.envelope == pytest.approx(pulse.envelope, rel=1e-12, abs=1e-12)

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
        pm, cm = pulse_metrics(res.reference, res.probe, res.conjugate)
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
        pm, cm = pulse_metrics(res.reference, res.probe, res.conjugate)
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
        m1 = pulse_metrics(res1.reference, res1.probe, res1.conjugate)
        m2 = pulse_metrics(res2.reference, res2.probe, res2.conjugate)
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
            pm, cm = pulse_metrics(res.reference, res.probe, res.conjugate)
            vals.append((pm.gain_peak, pm.delay_vs_reference, pm.fwhm_intensity,
                         cm.gain_peak, cm.delay_vs_reference))
        for a, b in zip(*vals):
            assert b == pytest.approx(a, rel=1e-5)

    def test_output_containment_guard(self):
        # delayed, strongly broadened output must not wrap the window
        p = make_params(eta0=20000.0, gamma_c_frac=0.0)
        grid = TimeGrid.centered(1024e-9, 2048)
        pulse = make_gaussian_pulse(grid, 70e-9)
        with pytest.raises(ContainmentError):
            propagate_pulse(p, pulse)


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
        pm, _ = pulse_metrics(pulse, pulse, pulse)
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
        pm, cm = pulse_metrics(res.reference, res.probe, res.conjugate)
        ref_fit = fit_gaussian(res.reference)
        for m in (pm, cm):
            assert m.fwhm_intensity > 0
            assert m.broadening_fraction == pytest.approx(
                m.fwhm_intensity / ref_fit.fwhm - 1.0, rel=1e-12
            )
            assert m.fractional_delay == pytest.approx(
                m.delay_vs_reference / ref_fit.fwhm, rel=1e-12
            )
