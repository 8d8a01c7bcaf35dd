import math
import re
import sys
import threading
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from mp4wm import pulses
from mp4wm.coupling import (
    entry_bounds,
    peak_entry_bounds,
    transfer_entries,
)
from mp4wm.config import MHZ, parse_config
from mp4wm.errors import AliasingError, ContainmentError, FitError, GuardError
from mp4wm.experiments import scan
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

    def test_energy_overflow_is_a_guard_error(self):
        # each intensity (1e308) is finite; their sum is not
        pulse = SampledPulse(GRID, np.full(GRID.n_samples, 1e154))
        with np.errstate(all="raise"), pytest.raises(GuardError, match="energy overflows"):
            pulse.energy

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

    def test_stacked_spectra_match_one_at_a_time(self):
        pulse = make_gaussian_pulse(GRID, 70e-9, center=40e-9)
        specs = np.stack([pulse.spectrum, 1j * np.roll(pulse.spectrum, 3)])
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

    @pytest.mark.parametrize("spec_shape, out", [
        # a zip over the rows would stop at the shorter stack, untransformed
        ((2, GRID.n_samples), np.zeros(GRID.n_samples, dtype=complex)),
        ((2, GRID.n_samples), np.zeros((3, GRID.n_samples), dtype=complex)),
        # the last axis not contiguous
        ((2, GRID.n_samples), np.empty((GRID.n_samples, 2), dtype=complex).T),
        # leading axes that reshape only to a copy, which the transforms would fill
        ((2, 2, GRID.n_samples),
         np.zeros((2, 2, GRID.n_samples), dtype=complex).transpose(1, 0, 2)),
    ], ids=["shape0", "shape1", "strided", "transposed"])
    def test_out_of_another_shape_is_guard_error(self, spec_shape, out):
        spec = np.ones(spec_shape, dtype=complex)
        with pytest.raises(GuardError, match="out must be C-contiguous with the spectrum's shape"):
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
        assert res.conjugate.fit.center < res.probe.fit.center

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
            res = propagate_pulse(p, make_gaussian_pulse(grid, 70e-9))
            pm, cm = _metrics(res)
            vals.append((pm.gain_peak, pm.delay_vs_reference, res.probe.fit.fwhm,
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

    def test_exact_reference_follows_the_cell_length(self):
        grid = TimeGrid.centered(2048e-9, 1024)
        shared = make_gaussian_pulse(grid, 70e-9)
        p1 = make_params(delta1_mhz=30.0, gamma_c_frac=0.01)
        p2 = p1.replace(cell_length=0.015)
        for p in (p1, p2, p1):
            res = propagate_pulse(p, shared, "exact", "full")
            fresh = propagate_pulse(p, make_gaussian_pulse(grid, 70e-9), "exact", "full")
            for name in ("reference", "probe", "conjugate"):
                assert np.array_equal(
                    getattr(res, name).envelope, getattr(fresh, name).envelope
                )
        # points at one cell length share the reference and its fit
        again = propagate_pulse(p1.scaled_density(0.5), shared, "exact", "full")
        assert again.reference is res.reference

    def test_modes_differ_only_by_vacuum_phase(self):
        p = make_params(delta1_mhz=30.0, gamma_c_frac=0.01)
        grid = TimeGrid.centered(2048e-9, 1024)
        pulse = make_gaussian_pulse(grid, 70e-9)
        rel = propagate_pulse(p, pulse, "relative", "full")
        exact = propagate_pulse(p, pulse, "exact", "full")
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
        p = make_params()
        pulse = make_gaussian_pulse(TimeGrid.centered(2048e-9, 1024), 70e-9)
        with pytest.raises(GuardError, match="unknown propagation mode 'warp'"):
            propagate_pulse(p, pulse, "warp")
        with pytest.raises(GuardError, match="unknown dispersion mode 'bogus'"):
            propagate_pulse(p, pulse, "relative", "bogus")

    def test_shared_input_across_threads(self, monkeypatch):
        # each thread has its own workspace and, in exact mode, its own
        # vacuum-delayed input, built once however the threads' two cell
        # lengths interleave.  Four threads on two cores, switching often.
        grid = TimeGrid.centered(2048e-9, 1024)
        media = [make_params(delta1_mhz=30.0, gamma_c_frac=0.01, z=z) for z in (0.025, 0.015)]
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
                serial = [propagate_pulse(p, make_gaussian_pulse(grid, 70e-9), mode, "full")
                          for p in media]
                mismatches, done = [], []
                builds.clear()

                def work(p, want):
                    for _ in range(100):
                        res = propagate_pulse(p, shared, mode, "full")
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
        # band before and after it, so both paths reuse a written workspace
        pulse = make_gaussian_pulse(GRID, 70e-9)
        media = [make_params(delta1_mhz=30.0, gamma_c_frac=0.01),
                 make_params(delta1_mhz=30.0, gamma_c_frac=0.5, delta2_mhz=1000.0)]
        names = ("reference", "probe", "conjugate")
        first = propagate_pulse(media[0], pulse, propagation_mode, "full")
        kept = {name: getattr(first, name).envelope.copy() for name in names}
        for p in (*media, media[0]):
            res = propagate_pulse(p, pulse, propagation_mode, "full")
            workspace = pulse._workspace()
            for name in names:
                out = getattr(res, name)
                for arr in (out.envelope, out.intensity):
                    assert not any(np.shares_memory(arr, w) for w in workspace)
        assert workspace is pulse._workspace()
        for name, envelope in kept.items():
            assert np.array_equal(getattr(first, name).envelope, envelope)
            assert np.array_equal(getattr(res, name).envelope, envelope)

    def test_output_containment_guard(self):
        # delayed, strongly broadened output must not wrap the window
        p = make_params(eta0=20000.0, gamma_c_frac=0.0)
        grid = TimeGrid.centered(1024e-9, 2048)
        pulse = make_gaussian_pulse(grid, 70e-9)
        with pytest.raises(ContainmentError):
            propagate_pulse(p, pulse)


def _full_grid_outputs(p, pulse, propagation_mode, dispersion_mode):
    """ifft(m_pp fft(E)) and ifft(m_cp fft(E)) with the kernel on every bin.

    The exact kernel is the relative one times the vacuum transit e^{-i w L}.
    """
    omegas = pulse.grid.omegas
    m_pp, _, m_cp, _ = transfer_entries(p, omegas, dispersion_mode)
    if propagation_mode == "exact":
        vac = np.exp(-1j * omegas * p.cell_length / C)
        m_pp, m_cp = m_pp * vac, m_cp * vac
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
        spectrum = pulse.spectrum
        if propagation_mode == "exact":
            spectrum = np.exp(-1j * self.GRID_1K.omegas * p.cell_length / C) * spectrum
        # copies: the rows are the pulse's workspace, which propagate_pulse overwrites
        outputs = [env.copy() for env in
                   pulses._output_envelopes(p, pulse, spectrum, dispersion_mode)]
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
        bounds = entry_bounds(p, self.GRID_1K.omegas[outside], dispersion_mode)
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
            delta1_mhz=30.0, gamma_c_frac=gamma_c_frac, delta2_mhz=delta2_mhz
        ).scaled_density(density)
        omegas = make_gaussian_pulse(self.GRID_1K, 70e-9).band.outside_omegas
        m_pp, _, m_cp, _ = transfer_entries(p, omegas, dispersion_mode)
        bounds = entry_bounds(p, omegas, dispersion_mode)
        # Every form rounds in proportion to the exponent |mu| L.  Where
        # Re mu^2 < 0 the complex form's |mu^2| + Re mu^2 cancels, which
        # leaves its Re mu off by up to sqrt(eps |mu^2|), so its bound by a
        # factor e^{+/- L sqrt(eps |mu^2|)}; the principal root's does not.
        _, _, mu_sq = generator_terms(p, omegas, dispersion_mode)
        big_l, eps = p.cell_length / C, np.finfo(float).eps
        with np.errstate(over="ignore", invalid="ignore"):
            abs_mu_sq = np.abs(mu_sq)
            rounding = 8.0 * eps * (1.0 + big_l * np.sqrt(abs_mu_sq))
            cancelling = np.where(mu_sq.real < 0.0, big_l * np.sqrt(eps * abs_mu_sq), 0.0)
        oracles = [
            (complex_entry_bounds(p, omegas, dispersion_mode), rounding + cancelling),
            (complex_entry_bounds(p, omegas, dispersion_mode, principal_root=True), rounding),
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
        omegas = make_gaussian_pulse(self.GRID_1K, 70e-9).band.outside_omegas
        c = derive_coefficients(p)
        rho = 2.0 * c.delta_r / np.min(np.abs(omegas + c.delta_tilde))
        peak = peak_entry_bounds(p, omegas)
        assert (peak is None) == (not rho < 1.0)
        assert peak_entry_bounds(p, omegas, "full") is None
        if peak is not None:
            for b, bins in zip(peak, entry_bounds(p, omegas)):
                assert np.all(bins <= b)
            if abs(delta2_mhz) > 1e9:
                assert peak[0] <= (1.0 + 1e-7) * entry_bounds(p, omegas)[0].max()

    # a peak bound made to fail by a huge slack defers to the per-bin bound
    @pytest.mark.parametrize("dispersion_mode, slack, calls", [
        ("constant", None, 0), ("constant", 1e6, 5), ("full", None, 5),
    ])
    def test_per_bin_bound_runs_only_where_the_peak_bound_does_not_pass(
        self, monkeypatch, dispersion_mode, slack, calls
    ):
        if slack is not None:
            monkeypatch.setattr(pulses, "_PEAK_BOUND_SLACK", slack)
        cfg = parse_config(
            "omega_rabi_mhz = 420\ndelta_raman_mhz = 4000\ndelta_two_photon_mhz = 11.025\n"
            "eta0 = 960\ncell_length_cm = 2.5\ngamma_c_over_gamma = 0\n"
            f"dispersion_mode = {dispersion_mode}\n"
            "scan_start = 0.2\nscan_stop = 1.5\nscan_steps = 5\n"
        )
        counted = []

        def bound(*args):
            counted.append(args)
            return entry_bounds(*args)
        monkeypatch.setattr(pulses, "entry_bounds", bound)
        records = scan(cfg.to_medium_params(), "density", cfg.scan_values(), cfg.to_pulse_config())
        assert all(r.gain_peak is not None for r in records)
        assert len(counted) == calls

    def test_bound_keeps_every_fallback_decision(self, monkeypatch):
        # the two benchmark scans, then the +-3000 MHz detuning scan in all
        # four mode pairs, and in constant mode at small and zero loss, where
        # Re d is tiny or 0; the complex form is the bound that made them before
        medium = ("omega_rabi_mhz = 420\ndelta_raman_mhz = 4000\n"
                  "delta_two_photon_mhz = 11.025\neta0 = 960\ncell_length_cm = 2.5\n")
        scans = [
            ("density", "gamma_c_over_gamma = 0\ndispersion_mode = constant\n"
             "propagation_mode = relative\n", (0.2, 1.5, 201), 0),
            ("delta", "gamma_c_over_gamma = 0.01\ndelta_one_mhz = 30\n"
             "dispersion_mode = full\npropagation_mode = exact\n", (-40.0, 60.0, 201), 0),
        ] + [
            ("delta", f"gamma_c_over_gamma = 0.5\ndelta_one_mhz = 30\n"
             f"dispersion_mode = {dm}\npropagation_mode = {pm}\n", (-3000.0, 3000.0, 121),
             {"constant": 35, "full": 78}[dm])
            for dm in ("constant", "full") for pm in ("relative", "exact")
        ] + [
            ("delta", f"gamma_c_over_gamma = {gc}\ndelta_one_mhz = 30\n"
             f"dispersion_mode = constant\npropagation_mode = {pm}\n",
             (-3000.0, 3000.0, 121), 38)
            for gc in (0.01, 0) for pm in ("relative", "exact")
        ]
        kernel = pulses.transfer_entries
        for axis, body, (start, stop, steps), fallbacks in scans:
            cfg = parse_config(
                f"{medium}{body}scan_start = {start}\nscan_stop = {stop}\nscan_steps = {steps}\n"
            )
            unit = MHZ if axis == "delta" else 1.0
            values = [v * unit for v in cfg.scan_values()]
            calls = []
            for bound in (entry_bounds, complex_entry_bounds):
                sizes = []

                def counted(p, omega, *args):
                    sizes.append(omega.size)
                    return kernel(p, omega, *args)
                monkeypatch.setattr(pulses, "transfer_entries", counted)
                monkeypatch.setattr(pulses, "entry_bounds", bound)
                pulse_cfg = cfg.to_pulse_config()
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", UserWarning)
                    scan(cfg.to_medium_params(), axis, values, pulse_cfg)
                calls.append(sizes)
            # a point falls back when the kernel also runs on the outside bins
            assert calls[0] == calls[1]
            assert calls[0].count(pulse_cfg.input_pulse.band.outside.size) == fallbacks

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
        assert band.outside_abs_sum == float(np.sum(mag[band.outside]))
        assert np.array_equal(band.outside_omegas, GRID.omegas[band.outside])
        for arr in (band.inside, band.outside, band.outside_abs, band.outside_omegas):
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
        m_pp, _, m_cp, _ = transfer_entries(p, GRID.omegas, "full")
        # exact mode is relative mode on the vacuum-delayed input
        delayed = np.exp(-1j * GRID.omegas * p.cell_length / C) * pulse.spectrum
        assert np.array_equal(res.reference.envelope, from_spectrum(delayed, GRID))
        probe = from_spectrum(m_pp * delayed, GRID)
        conj_star = from_spectrum(m_cp * delayed, GRID)
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
        res = propagate_pulse(p, make_gaussian_pulse(GRID, 70e-9))
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
