import math
import warnings

import numpy as np
import pytest

from mp4wm import experiments, pulses
from mp4wm.coupling import analytic_delays, coefficients_at
from mp4wm.errors import GuardError
from mp4wm.experiments import (
    PulseConfig,
    infer_eta_xi,
    predict_gain,
    run_single,
    scan,
)
from mp4wm.params import derive_coefficients

from conftest import C, MHZ, make_params

CFG = PulseConfig()


def _xi_z_over_c(p):
    return abs(coefficients_at(p, 0.0).xi) * p.cell_length / C


class TestRunSingle:
    def test_locked_differential_delay(self):
        p = make_params(gamma_c_frac=0.0)
        assert _xi_z_over_c(p) > 3.0  # deep in the locked regime
        res = run_single(p, CFG)
        dtau = (
            res.probe_metrics.delay_vs_reference
            - res.conjugate_metrics.delay_vs_reference
        )
        assert dtau == pytest.approx(analytic_delays(p).dtau_locked, rel=0.05)

    def test_conjugate_precedes_probe_at_moderate_gain(self):
        base = make_params(gamma_c_frac=0.0)
        scale = math.acosh(math.sqrt(13.0)) / _xi_z_over_c(base)
        p = base.scaled_density(scale)
        res = run_single(p, CFG)
        assert res.probe_metrics.gain_peak == pytest.approx(13.0, rel=0.05)
        assert (
            res.conjugate_metrics.delay_vs_reference
            < res.probe_metrics.delay_vs_reference
        )

    def test_no_conjugate_at_vanishing_density(self):
        p = make_params(gamma_c_frac=0.0).scaled_density(1e-16)
        res = run_single(p, CFG)
        assert res.conjugate_metrics is None
        assert res.probe_metrics.gain_peak == pytest.approx(1.0, rel=1e-9)


class TestScanDelta:
    def test_gain_peaks_at_light_shift(self):
        p = make_params(gamma_c_frac=0.0)
        shift = derive_coefficients(p).delta_r  # the light shift Omega^2/4Delta
        deltas = shift + np.linspace(-1.0, 1.0, 9) * 2.0 * MHZ
        records = scan(p, "delta", deltas, CFG)
        gains = [r.gain_peak for r in records]
        assert int(np.argmax(gains)) == 4  # the dtilde = 0 point

    def test_warns_outside_validity(self):
        p = make_params(gamma_c_frac=0.0)
        d = derive_coefficients(p)
        with pytest.warns(UserWarning, match="dtilde"):
            scan(p, "delta", [6.0 * d.delta_r], CFG)  # dtilde = 5 Delta_R


class TestScanEngine:
    def test_input_pulse_built_and_transformed_once(self, monkeypatch):
        calls = {"make_gaussian_pulse": 0, "to_spectrum": 0, "fit_gaussian": 0}

        def counted(module, name):
            fn = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            monkeypatch.setattr(module, name, wrapper)

        counted(experiments, "make_gaussian_pulse")
        counted(pulses, "to_spectrum")
        counted(pulses, "fit_gaussian")
        cfg = PulseConfig(n_samples=1024)
        records = scan(make_params(), "density", [0.2, 0.6, 1.0, 1.4], cfg)
        assert len(records) == 4
        # the shared input is the relative-mode reference: fitted once, then
        # the probe and the conjugate of each point
        assert calls == {"make_gaussian_pulse": 1, "to_spectrum": 1, "fit_gaussian": 9}
        pulse = cfg.input_pulse
        for arr in (pulse.envelope, pulse.intensity, pulse.spectrum):
            assert not arr.flags.writeable

    def test_each_output_pulse_built_once(self, monkeypatch):
        built = []
        post_init = pulses.SampledPulse.__post_init__

        def counted(pulse):
            built.append(pulse)
            post_init(pulse)
        monkeypatch.setattr(pulses.SampledPulse, "__post_init__", counted)
        cfg = PulseConfig(n_samples=1024)
        scan(make_params(), "density", [0.2, 0.6, 1.0], cfg)
        # the shared input, then the probe and the conjugate of each point
        assert len(built) == 1 + 2 * 3
        grid = cfg.input_pulse.grid
        for name in ("times", "omegas"):
            arr = getattr(grid, name)
            assert getattr(grid, name) is arr
            assert not arr.flags.writeable

    def test_kernel_runs_on_the_input_band_only(self, monkeypatch):
        sizes = []
        transfer_entries = pulses.transfer_entries

        def counted(p, omega, *args):
            sizes.append(omega.size)
            return transfer_entries(p, omega, *args)
        monkeypatch.setattr(pulses, "transfer_entries", counted)
        cfg = PulseConfig(n_samples=1024)
        scan(make_params(), "density", [0.2, 0.6, 1.0], cfg)
        band_size = cfg.input_pulse.band.inside.size
        assert band_size < cfg.n_samples
        # no point of the README medium needs the full-grid fallback
        assert sizes == [band_size] * 3

    def test_rejects_unknown_axis(self):
        with pytest.raises(GuardError, match="axis"):
            scan(make_params(), "length", [1.0], CFG)

    @pytest.mark.parametrize("key", ["propagation_mode", "dispersion_mode"])
    def test_rejects_unknown_mode(self, key):
        with pytest.raises(GuardError, match=f"unknown {key} 'warp'"):
            scan(make_params(), "density", [1.0], PulseConfig(**{key: "warp"}))


class TestScanDensity:
    def test_gain_monotone_in_density(self):
        p = make_params(gamma_c_frac=0.0)
        records = scan(p, "density", np.linspace(0.05, 1.0, 8), CFG)
        gains = [r.gain_peak for r in records]
        assert all(b > a for a, b in zip(gains, gains[1:]))

    def test_small_density_delay_ratio_two(self):
        # at small xi z / c the probe delay is twice the conjugate delay
        p = make_params(gamma_c_frac=0.0)
        scale = 0.2 / _xi_z_over_c(p)
        (rec,) = scan(p, "density", [scale], CFG)
        assert rec.probe_delay / rec.conj_delay == pytest.approx(2.0, abs=0.05)

    def test_density_scale_matches_length_scale(self):
        # in relative mode, scaling g^2 N is equivalent to scaling z
        p = make_params(gamma_c_frac=0.5)
        s = 0.43
        (by_density,) = scan(p, "density", [s], CFG)
        (by_length,) = scan(
            p.replace(cell_length=s * p.cell_length), "density", [1.0], CFG
        )
        for field in (
            "gain_peak",
            "gain_energy",
            "probe_delay",
            "conj_delay",
            "probe_broadening",
            "conj_broadening",
        ):
            assert getattr(by_density, field) == pytest.approx(
                getattr(by_length, field), rel=1e-9
            )

    def test_graceful_degradation_on_overflow(self):
        # at 100x the density the output envelope is finite but |E|^2 is not;
        # at 1e6x the envelope itself is not
        p = make_params(gamma_c_frac=0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            records = scan(p, "density", [1.0, 100.0, 1e6], CFG)
        assert records[0].gain_peak is not None
        assert records[1].gain_peak is None
        assert records[2].gain_peak is None
        assert records[2].var == 1e6


class TestScanPump:
    def test_alpha_invariant_under_pump(self):
        # alpha = eta Delta_R = g^2 N / Delta does not depend on the pump
        p = make_params(gamma_c_frac=0.0)
        for rabi_mhz in (200.0, 420.0, 800.0):
            q = p.replace(omega_rabi=rabi_mhz * MHZ)
            d = derive_coefficients(q)
            assert d.alpha0 == pytest.approx(
                derive_coefficients(p).alpha0, rel=1e-12
            )

    def test_delay_grows_as_pump_weakens(self):
        p = make_params(gamma_c_frac=0.0)
        records = scan(p, "pump", np.array([600.0, 420.0, 300.0]) * MHZ, CFG)
        delays = [r.conj_delay for r in records]
        assert delays[0] < delays[1] < delays[2]

    def test_fixed_policy_detunes(self):
        p = make_params(gamma_c_frac=0.0)
        tracked = scan(p, "pump", [300.0 * MHZ], CFG, delta_policy="track")
        fixed = scan(p, "pump", [300.0 * MHZ], CFG, delta_policy="fixed")
        # moving the pump with delta fixed leaves dtilde != 0 -> lower gain
        assert fixed[0].gain_peak < tracked[0].gain_peak

    def test_rejects_unknown_policy(self):
        with pytest.raises(GuardError):
            scan(make_params(), "pump", [420.0 * MHZ], CFG, delta_policy="chase")

    def test_warns_outside_validity(self):
        # with delta fixed, a weak pump moves the light shift far from delta
        p = make_params(gamma_c_frac=0.0)
        with pytest.warns(UserWarning, match="dtilde"):
            scan(p, "pump", [100.0 * MHZ], CFG, delta_policy="fixed")

    def test_gain_curvature_changes_near_saturation(self):
        # G(pump) turns from convex (loss-dominated recovery) to concave
        # (gain saturating) within a factor of two of the saturation Rabi
        # frequency
        p = make_params(gamma_c_frac=0.5)
        sat = derive_coefficients(p).saturation_rabi
        rabis = np.linspace(0.4, 4.0, 60) * sat
        records = scan(p, "pump", rabis, CFG)
        gains = np.array([r.gain_peak for r in records])
        curv = np.diff(gains, 2)
        sign_changes = np.flatnonzero(np.sign(curv[1:]) != np.sign(curv[:-1]))
        assert sign_changes.size >= 1
        turn = rabis[sign_changes[0] + 2]
        assert 0.5 * sat <= turn <= 2.0 * sat


class TestInference:
    def test_eta_from_delay(self):
        eta, _ = infer_eta_xi(40e-9, 7.2e-9, 0.025, 0.0)
        assert eta == pytest.approx(2.0 * C * 40e-9 / 0.025, rel=1e-12)
        assert eta == pytest.approx(960.0, rel=2e-3)

    def test_analytic_roundtrip(self):
        p = make_params(gamma_c_frac=0.01)
        d = analytic_delays(p)
        eta, xi = infer_eta_xi(d.tau, d.dtau_locked, p.cell_length, p.gamma_c)
        assert eta == pytest.approx(derive_coefficients(p).eta0, rel=1e-12)
        assert xi == pytest.approx(abs(coefficients_at(p, 0.0).xi), rel=1e-6)

    def test_simulate_fit_infer(self):
        p = make_params(gamma_c_frac=0.01)
        assert _xi_z_over_c(p) > 3.0
        res = run_single(p, CFG)
        dtau = (
            res.probe_metrics.delay_vs_reference
            - res.conjugate_metrics.delay_vs_reference
        )
        eta, xi = infer_eta_xi(
            res.conjugate_metrics.delay_vs_reference, dtau, p.cell_length, p.gamma_c
        )
        assert eta == pytest.approx(derive_coefficients(p).eta0, rel=0.02)
        assert xi == pytest.approx(abs(coefficients_at(p, 0.0).xi), rel=0.02)

    def test_rejects_nonpositive_inputs(self):
        with pytest.raises(GuardError):
            infer_eta_xi(-1e-9, 7e-9, 0.025, 0.0)
        with pytest.raises(GuardError):
            infer_eta_xi(40e-9, 7e-9, 0.0, 0.0)


class TestGainPrediction:
    def test_lossless_is_cosh_squared(self):
        p = make_params(gamma_c_frac=0.0)
        eta = derive_coefficients(p).eta0
        xi = abs(coefficients_at(p, 0.0).xi)
        assert predict_gain(eta, xi, 0.0, p.cell_length) == pytest.approx(
            math.cosh(xi * p.cell_length / C) ** 2, rel=1e-12
        )

    def test_loss_ratio_value(self):
        p = make_params(gamma_c_frac=0.5)
        eta = derive_coefficients(p).eta0
        xi = abs(coefficients_at(p, 0.0).xi)
        pred = predict_gain(eta, xi, p.gamma_c, p.cell_length)
        # G = e^{-eta gamma_c z/c} [cosh(xi z/c) - r sinh(xi z/c)]^2, r = eta gamma_c / 2 xi
        arg = xi * p.cell_length / C
        loss_ratio = 0.5 * eta * p.gamma_c / xi
        assert pred == pytest.approx(
            math.exp(-eta * p.gamma_c * p.cell_length / C)
            * (math.cosh(arg) - loss_ratio * math.sinh(arg)) ** 2,
            rel=1e-12,
        )
        assert pred < math.cosh(arg) ** 2

    def test_rejects_loss_exceeding_gain(self):
        with pytest.raises(GuardError):
            predict_gain(1000.0, 1.0, 1.0, 0.025)

    def test_matches_pipeline_narrowband(self):
        p = make_params(gamma_c_frac=0.0).scaled_density(0.3)
        eta = derive_coefficients(p).eta0
        xi = abs(coefficients_at(p, 0.0).xi)
        cfg = PulseConfig(fwhm=400e-9, window=8192e-9, n_samples=8192)
        res = run_single(p, cfg)
        assert res.probe_metrics.gain_peak == pytest.approx(
            predict_gain(eta, xi, 0.0, p.cell_length), rel=0.03
        )
