import copy
import math
import pickle
import sys
import warnings
import weakref

import numpy as np
import pytest

from mp4wm import params, pulses
from mp4wm.cli import main
from mp4wm.config import parse_config
from mp4wm.coupling import analytic_delays
from mp4wm.errors import GuardError
from mp4wm.experiments import infer_eta_xi, predict_gain, run_single, scan
from mp4wm.params import MediumParams, derive_coefficients
from mp4wm.pulses import (
    PropagationResult, Propagator, SampledPulse, TimeGrid, make_gaussian_pulse,
)

from _oracles import coefficients_at
from conftest import C, MHZ, gaussian_propagator, make_params


def _xi_z_over_c(p):
    return abs(coefficients_at(p, 0.0).xi) * p.cell_length / C


class TestRunSingle:
    @pytest.mark.parametrize("ratio, measured", [(0.9e-30, False), (1e-30, False),
                                                 (1.2e-30, True)])
    def test_conjugate_is_measured_above_1e_30_of_the_reference_energy(self, ratio, measured):
        # a stub propagation returns the reference as the probe and a conjugate
        # of `ratio` times its energy; at the limit one sample wide, whose
        # energy is then the limit to the bit, and which no fit could measure
        grid = TimeGrid.centered(256.0, 256)  # dt = 1
        reference = make_gaussian_pulse(grid, 20.0)
        env = reference.envelope * math.sqrt(ratio)
        if ratio == 1e-30:
            env = np.zeros(grid.n_samples)
            env[10] = math.sqrt(1e-30 * reference.energy)
        conjugate = SampledPulse(grid, env)
        assert ratio != 1e-30 or conjugate.energy == 1e-30 * reference.energy
        res = run_single(make_params(),
                         lambda p: PropagationResult(reference, reference, conjugate))
        assert (res.conjugate_metrics is not None) == measured

    def test_locked_differential_delay(self):
        p = make_params(gamma_c_frac=0.0)
        assert _xi_z_over_c(p) > 3.0  # deep in the locked regime
        res = run_single(p, gaussian_propagator())
        dtau = (
            res.probe_metrics.delay_vs_reference
            - res.conjugate_metrics.delay_vs_reference
        )
        assert dtau == pytest.approx(analytic_delays(p).dtau_locked, rel=0.05)

    def test_conjugate_precedes_probe_at_moderate_gain(self):
        base = make_params(gamma_c_frac=0.0)
        scale = math.acosh(math.sqrt(13.0)) / _xi_z_over_c(base)
        p = base.scaled_density(scale)
        res = run_single(p, gaussian_propagator())
        assert res.probe_metrics.gain_peak == pytest.approx(13.0, rel=0.05)
        assert (
            res.conjugate_metrics.delay_vs_reference
            < res.probe_metrics.delay_vs_reference
        )

    def test_no_conjugate_at_vanishing_density(self):
        p = make_params(gamma_c_frac=0.0).scaled_density(1e-16)
        res = run_single(p, gaussian_propagator())
        assert res.conjugate_metrics is None
        assert res.probe_metrics.gain_peak == pytest.approx(1.0, rel=1e-9)

    def test_pulses_and_results_survive_pickle_and_deepcopy(self):
        propagate = gaussian_propagator()
        res = run_single(make_params(gamma_c_frac=0.5), propagate)
        for clone in (lambda x: pickle.loads(pickle.dumps(x)), copy.deepcopy):
            pulse, again = clone(propagate.pulse), clone(res)
            assert again.probe_metrics == res.probe_metrics
            assert again.conjugate_metrics == res.conjugate_metrics
            pairs = [(pulse, propagate.pulse)] + [
                (getattr(again.traces, name), getattr(res.traces, name))
                for name in ("reference", "probe", "conjugate")
            ]
            for got, want in pairs:
                assert np.array_equal(got.envelope, want.envelope)
                assert np.array_equal(got.intensity, want.intensity)
                assert got.peak == want.peak


class TestScanDelta:
    def test_gain_peaks_at_light_shift(self):
        p = make_params(gamma_c_frac=0.0)
        shift = derive_coefficients(p).delta_r  # the light shift Omega^2/4Delta
        deltas = shift + np.linspace(-1.0, 1.0, 9) * 2.0 * MHZ
        records = scan(p, "delta", deltas, gaussian_propagator())
        gains = [r.gain_peak for r in records]
        assert int(np.argmax(gains)) == 4  # the dtilde = 0 point

    def test_warns_outside_validity(self):
        p = make_params(gamma_c_frac=0.0)
        d = derive_coefficients(p)
        with pytest.warns(UserWarning, match="dtilde"):
            scan(p, "delta", [6.0 * d.delta_r], gaussian_propagator())  # dtilde = 5 Delta_R

    @pytest.mark.parametrize("delta_over_dr, warns", [(-1.0, False), (3.0, False), (3.5, True)])
    def test_warns_beyond_twice_the_raman_bandwidth(self, delta_over_dr, warns):
        # Omega = 2^31 and Delta = 2^35 rad/s: Delta_R = 2^25 rad/s, so that
        # dtilde = delta - Delta_R is exactly -2 Delta_R or 2 Delta_R at the limit
        p = make_params(gamma_c_frac=0.0).replace(omega_rabi=2.0**31, delta_raman=2.0**35)
        assert p.coefficients.delta_r == 2.0**25
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            scan(p, "delta", [delta_over_dr * 2.0**25], gaussian_propagator())
        assert any("dtilde" in str(w.message) for w in caught) == warns


class TestScanEngine:
    def test_unit_gain_has_zero_renormalized_length(self, monkeypatch):
        # a stub propagation returns the input as the probe, at gain 1 to the bit
        propagate = gaussian_propagator()
        reference = propagate.pulse
        silent = SampledPulse(reference.grid, np.zeros(reference.grid.n_samples))
        monkeypatch.setattr(propagate, "_propagate",
                            lambda p, m_pp, m_cp: PropagationResult(reference, reference, silent))
        (record,) = scan(make_params(), "density", [1.0], propagate)
        assert record.gain_peak == 1.0 and record.renorm_length == 0.0
        assert record.conj_delay is None

    def test_input_pulse_built_and_transformed_once(self, monkeypatch):
        calls = {"make_gaussian_pulse": 0, "to_spectrum": 0, "fit_gaussian": 0}

        def counted(module, name):
            fn = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            monkeypatch.setattr(module, name, wrapper)

        counted(pulses, "make_gaussian_pulse")
        counted(pulses, "to_spectrum")
        counted(pulses, "fit_gaussian")
        labels = []
        check = pulses.SampledPulse.check_containment

        def checked(pulse, label):
            labels.append(label)
            return check(pulse, label)
        monkeypatch.setattr(pulses.SampledPulse, "check_containment", checked)
        cfg = parse_config("omega_rabi_mhz = 420\ndelta_raman_mhz = 4000\n"
                           "eta0 = 960\ncell_length_cm = 2.5\nn_samples = 1024\n")
        propagate = cfg.propagator()
        # the input is checked once, where it is built; the FFT is its aliasing guard
        assert calls == {"make_gaussian_pulse": 1, "to_spectrum": 1, "fit_gaussian": 0}
        assert labels == ["input pulse"]
        records = scan(make_params(), "density", [0.2, 0.6, 1.0, 1.4], propagate)
        assert len(records) == 4
        # the scan builds, transforms and checks no input; it fits the shared
        # relative-mode reference once, then the probe and the conjugate of each point
        assert calls == {"make_gaussian_pulse": 1, "to_spectrum": 1, "fit_gaussian": 9}
        assert labels.count("input pulse") == 1
        for arr in (propagate.pulse.envelope, propagate.pulse.intensity, propagate.spectrum):
            assert not arr.flags.writeable

    # the benchmark media: every density point passes the band check at its
    # peak bound, and 4 of the 5 detuning points at its per-bin bound
    @pytest.mark.parametrize("body, axis, unit, per_bin_bounds", [
        ("gamma_c_over_gamma = 0\ndispersion_mode = constant\npropagation_mode = relative\n"
         "scan_start = 0.2\nscan_stop = 1.5\n", "density", 1.0, 0),
        ("gamma_c_over_gamma = 0.01\ndelta_one_mhz = 30\ndispersion_mode = full\n"
         "propagation_mode = exact\nscan_start = -40\nscan_stop = 60\n", "delta", MHZ, 4),
    ])
    def test_coefficients_derived_once_per_point(
        self, monkeypatch, tmp_path, body, axis, unit, per_bin_bounds
    ):
        text = ("omega_rabi_mhz = 420\ndelta_raman_mhz = 4000\n"
                "delta_two_photon_mhz = 11.025\neta0 = 960\ncell_length_cm = 2.5\n"
                f"n_samples = 4096\nscan_steps = 5\n{body}")
        cfg = parse_config(text)
        # calls, but kernel rows for transfer_entries: one per medium of a block
        calls = {"derive_coefficients": 0, "entry_bounds": 0, "transfer_entries": 0}

        def counted(module, name):
            fn = getattr(module, name)

            def wrapper(p, *args, **kwargs):
                calls[name] += 1 if isinstance(p, MediumParams) else len(p)
                return fn(p, *args, **kwargs)
            monkeypatch.setattr(module, name, wrapper)

        # the program reads a medium's scalars through MediumParams.coefficients,
        # which derives in params; the package binds the name only to export it
        bound = [name for name, module in sys.modules.items()
                 if name.startswith("mp4wm.") and "derive_coefficients" in vars(module)]
        assert bound == ["mp4wm.params"]
        values = [v * unit for v in cfg.scan_values()]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            base, propagate = cfg.medium, cfg.propagator()  # derived as built
            counted(params, "derive_coefficients")
            counted(pulses, "entry_bounds")
            counted(pulses, "transfer_entries")
            scan(base, axis, values, propagate)
        points = len(values)
        assert calls["transfer_entries"] == points  # one row a point: none falls back
        assert calls["entry_bounds"] == per_bin_bounds
        # the record, the kernel and the bounds share the one derivation of
        # each point's medium, made when it is built
        assert calls["derive_coefficients"] == points

        # the CLI scan builds its config's base medium and time grid once
        grids = []
        check_grid = TimeGrid.__post_init__

        def counted_grid(grid):
            grids.append(grid)
            check_grid(grid)
        monkeypatch.setattr(TimeGrid, "__post_init__", counted_grid)
        calls["derive_coefficients"] = 0
        (tmp_path / "scan.cfg").write_text(text)
        argv = [f"scan-{axis}", "--config", str(tmp_path / "scan.cfg"),
                "--out", str(tmp_path / "scan.csv")]
        assert main(argv) == 0
        assert calls["derive_coefficients"] == points + 1
        assert len(grids) == 1

    @pytest.mark.parametrize("command", ["run", "derive"])
    def test_one_medium_and_one_grid_per_job(self, monkeypatch, tmp_path, capsys, command):
        built = {"derive_coefficients": 0, "TimeGrid": 0}
        derive, check_grid = params.derive_coefficients, TimeGrid.__post_init__

        def counted_derive(p):
            built["derive_coefficients"] += 1
            return derive(p)

        def counted_grid(grid):
            built["TimeGrid"] += 1
            check_grid(grid)
        monkeypatch.setattr(params, "derive_coefficients", counted_derive)
        monkeypatch.setattr(TimeGrid, "__post_init__", counted_grid)
        (tmp_path / "run.cfg").write_text("omega_rabi_mhz = 420\ndelta_raman_mhz = 4000\n"
                                          "eta0 = 960\ncell_length_cm = 2.5\nn_samples = 1024\n")
        argv = [command, "--config", str(tmp_path / "run.cfg")]
        if command == "run":
            argv += ["--out", str(tmp_path / "trace.csv")]
        assert main(argv) == 0
        assert built == {"derive_coefficients": 1, "TimeGrid": 1}

    def test_exact_reference_built_and_fitted_once(self, monkeypatch):
        calls = {"from_spectrum": 0, "fit_gaussian": 0}

        def counted(name):
            fn = getattr(pulses, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            monkeypatch.setattr(pulses, name, wrapper)

        counted("from_spectrum")
        counted("fit_gaussian")
        propagate = gaussian_propagator(n_samples=1024, propagation_mode="exact")
        records = scan(make_params(), "density", [0.2, 0.6, 1.0, 1.4], propagate)
        assert all(r.conj_delay is not None for r in records)
        # one transform of the probe and the conjugate together per point (no
        # band fallback), and one vacuum reference for the scan's one cell length
        assert calls == {"from_spectrum": 4 + 1, "fit_gaussian": 2 * 4 + 1}

    def test_each_output_pulse_built_once(self, monkeypatch):
        built = []
        post_init = pulses.SampledPulse.__post_init__

        def counted(pulse, magnitude=None):
            built.append(magnitude is not None)
            post_init(pulse, magnitude)
        monkeypatch.setattr(pulses.SampledPulse, "__post_init__", counted)
        propagate = gaussian_propagator(n_samples=1024)
        scan(make_params(), "density", [0.2, 0.6, 1.0], propagate)
        # the shared input, then the probe and the conjugate of each point,
        # which take over the |E| their band budgets were read from
        assert len(built) == 1 + 2 * 3
        assert built == [False] + [True] * (2 * 3)
        grid = propagate.pulse.grid
        for name in ("times", "omegas"):
            arr = getattr(grid, name)
            assert getattr(grid, name) is arr
            assert not arr.flags.writeable

    @pytest.mark.parametrize("window, n_samples, band, lengths", [
        (2e-6, 1024, 129, [3]),
        (2e-6, 1024, 129, [15, 15, 5]),
        # a window that cuts the input's tails keeps its FFT spectrum, whose
        # band is every bin: 2 points a call on 1024 bins, and one on 2048
        (5e-7, 1024, 1024, [2, 2, 1]),
        (5e-7, 2048, 2048, [1, 1, 1]),
    ])
    def test_kernel_runs_on_the_input_band_only(self, monkeypatch, window, n_samples, band,
                                                lengths):
        calls = []
        transfer_entries = pulses.transfer_entries

        def counted(p, omega, *args):
            rows = [p] if isinstance(p, MediumParams) else p
            calls.append((omega.size, [q.coefficients.eta0 for q in rows]))
            return transfer_entries(p, omega, *args)
        monkeypatch.setattr(pulses, "transfer_entries", counted)
        propagate = gaussian_propagator(window=window, n_samples=n_samples)
        p, scales = make_params(), np.linspace(0.2, 1.5, sum(lengths))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            scan(p, "density", scales, propagate)
        assert propagate.inside.size == band
        # a kernel call on the band for each block of points, a row for each
        # point in scan order; no point of the README medium needs the
        # full-grid fallback
        eta0 = [p.scaled_density(s).coefficients.eta0 for s in scales]
        ends = np.cumsum(lengths)
        assert calls == [(band, eta0[end - n:end]) for n, end in zip(lengths, ends)]

    def test_no_block_s_rows_outlive_it(self, monkeypatch):
        # each block's kernel runs once the previous block's calls are gone:
        # none of its rows is alive then, so a scan holds one block's at most
        rows, blocks = [], []
        transfer_entries = pulses.transfer_entries

        def kept(media, omega):
            blocks.append((len(media), sum(ref() is not None for ref in rows)))
            entries = transfer_entries(media, omega)
            rows.extend(weakref.ref(entries[i]) for i in (0, 2))  # m_pp and m_cp
            return entries
        monkeypatch.setattr(pulses, "transfer_entries", kept)
        propagate = gaussian_propagator(window=2e-6, n_samples=1024)
        records = scan(make_params(), "density", np.linspace(0.2, 1.5, 40), propagate)
        assert propagate.inside.size == 129 and all(r.error is None for r in records)
        assert blocks == [(15, 0), (15, 0), (10, 0)]

    def test_an_input_with_no_band_scans_to_blank_records(self):
        # an all-zero input has no bin in its band; each point's output is
        # zero, so its fit fails and the point is blank
        grid = TimeGrid.centered(2e-6, 1024)
        propagate = Propagator(SampledPulse(grid, np.zeros(grid.n_samples)))
        assert propagate.inside.size == 0
        with pytest.warns(UserWarning, match=r"^3 of 3 points blank \(FitError 3: cannot fit "
                                             r"an all-zero pulse, first at point 1\)$"):
            records = scan(make_params(), "density", [0.2, 0.6, 1.0], propagate)
        assert [r.var for r in records] == [0.2, 0.6, 1.0]
        assert all(r.error == ("FitError", "cannot fit an all-zero pulse")
                   and r.gain_peak is None for r in records)

    def test_rejects_unknown_axis(self):
        with pytest.raises(GuardError, match="axis"):
            scan(make_params(), "length", [1.0], gaussian_propagator())


class TestSampleCount:
    # n_samples doubled at a fixed window keeps the bins and adds ones
    # beyond the old Nyquist frequency, where the input spectrum is 0 or
    # below the band, so each output, read at the coarser grid's times, is
    # the coarser grid's; a scan keeps its blank rows, and its fits move only
    # as the samples they fit do
    MEDIUM = ("omega_rabi_mhz = 420\ndelta_raman_mhz = 4000\n"
              "delta_two_photon_mhz = 11.025\neta0 = 960\ncell_length_cm = 2.5\n")

    @pytest.mark.parametrize("body, axis, unit", [
        ("gamma_c_over_gamma = 0\ndispersion_mode = constant\npropagation_mode = relative\n"
         "scan_start = 0.2\nscan_stop = 1.5\nscan_steps = 201\n", "density", 1.0),
        ("gamma_c_over_gamma = 0.01\ndelta_one_mhz = 30\ndispersion_mode = full\n"
         "propagation_mode = exact\nscan_start = -40\nscan_stop = 60\nscan_steps = 201\n",
         "delta", MHZ),
        # the gain pole of the full eta(w) near -1480 MHz lies on the finer grids only
        ("gamma_c_over_gamma = 0.5\ndelta_one_mhz = 30\ndispersion_mode = full\n"
         "propagation_mode = exact\nscan_start = -3000\nscan_stop = 3000\nscan_steps = 121\n",
         "delta", MHZ),
    ], ids=["scan-density", "scan-delta-offband", "wide-full"])
    def test_doubling_the_samples_keeps_each_output_and_blank_row(
        self, monkeypatch, body, axis, unit
    ):
        runs = {}
        step = pulses.Propagator._propagate
        for n in (4096, 8192, 16384):
            cfg = parse_config(f"{self.MEDIUM}{body}n_samples = {n}\n")
            propagate, outputs = cfg.propagator(), []

            def kept(self, p, **entries):
                try:
                    res = step(self, p, **entries)
                except GuardError as exc:
                    outputs.append(type(exc))
                    raise
                outputs.append((res.probe.envelope, res.conjugate.envelope))
                return res
            monkeypatch.setattr(pulses.Propagator, "_propagate", kept)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)
                records = scan(cfg.medium, axis, [v * unit for v in cfg.scan_values()], propagate)
            assert len(outputs) == len(records)
            runs[n] = records, outputs
        records, outputs = runs[4096]
        for n in (8192, 16384):
            finer, finer_outputs = runs[n]
            assert ([r.gain_peak is None for r in finer]
                    == [r.gain_peak is None for r in records])
            for coarse, fine in zip(outputs, finer_outputs):
                if isinstance(coarse, type):  # the same guard fails
                    assert fine is coarse
                    continue
                for a, b in zip(coarse, fine):
                    assert np.max(np.abs(b[:: n // 4096] - a)) <= 1e-14 * np.max(np.abs(a))
            if axis == "density":
                # the fit of the finer samples: 1.3e-4 and 1.9e-4 (probe_broadening)
                for a, b in zip(records, finer):
                    for x, y in zip(vars(a).values(), vars(b).values()):
                        assert y == pytest.approx(x, rel=2.5e-4)


class TestScanDensity:
    def test_gain_monotone_in_density(self):
        p = make_params(gamma_c_frac=0.0)
        records = scan(p, "density", np.linspace(0.05, 1.0, 8), gaussian_propagator())
        gains = [r.gain_peak for r in records]
        assert all(b > a for a, b in zip(gains, gains[1:]))

    def test_small_density_delay_ratio_two(self):
        # at small xi z / c the probe delay is twice the conjugate delay
        p = make_params(gamma_c_frac=0.0)
        scale = 0.2 / _xi_z_over_c(p)
        (rec,) = scan(p, "density", [scale], gaussian_propagator())
        assert rec.probe_delay / rec.conj_delay == pytest.approx(2.0, abs=0.05)

    def test_density_scale_matches_length_scale(self):
        # in relative mode, scaling g^2 N is equivalent to scaling z
        p = make_params(gamma_c_frac=0.5)
        s = 0.43
        (by_density,) = scan(p, "density", [s], gaussian_propagator())
        (by_length,) = scan(
            p.replace(cell_length=s * p.cell_length), "density", [1.0], gaussian_propagator()
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
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            records = scan(p, "density", [1.0, 100.0, 1e6], gaussian_propagator())
        assert records[0].gain_peak is not None and records[0].error is None
        assert records[1].gain_peak is None
        assert records[2].gain_peak is None
        assert records[2].var == 1e6
        assert records[1].error == (
            "GuardError", "intensity overflows double precision; the gain is too large")
        assert records[2].error == ("GuardError", "envelope must be finite everywhere")
        # no numpy warning; one line for the blank points, of one error class
        assert [str(w.message) for w in caught] == [
            "2 of 3 points blank (GuardError 2: intensity overflows double precision; "
            "the gain is too large, first at point 2)"]


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
        records = scan(p, "pump", np.array([600.0, 420.0, 300.0]) * MHZ, gaussian_propagator())
        delays = [r.conj_delay for r in records]
        assert delays[0] < delays[1] < delays[2]

    def test_fixed_policy_detunes(self):
        p = make_params(gamma_c_frac=0.0)
        tracked = scan(p, "pump", [300.0 * MHZ], gaussian_propagator(), delta_policy="track")
        fixed = scan(p, "pump", [300.0 * MHZ], gaussian_propagator(), delta_policy="fixed")
        # moving the pump with delta fixed leaves dtilde != 0 -> lower gain
        assert fixed[0].gain_peak < tracked[0].gain_peak

    def test_rejects_unknown_policy(self):
        with pytest.raises(GuardError):
            scan(make_params(), "pump", [420.0 * MHZ], gaussian_propagator(), delta_policy="chase")

    def test_tracked_point_is_one_medium(self, monkeypatch):
        # Omega^2/4 Delta_1 = 1470 MHz at 420 MHz but only ~83 MHz at 100 MHz:
        # a medium with the new Omega and the old delta = 11 MHz breaks the
        # validity limit, each medium with delta at its own light shift does not
        cfg = parse_config("omega_rabi_mhz = 420\ndelta_raman_mhz = 4000\n"
                           "delta_two_photon_mhz = 11.025\neta0 = 960\ncell_length_cm = 2.5\n"
                           "delta_one_mhz = 30\ngamma_c_over_gamma = 0.01\nn_samples = 1024\n"
                           "scan_start = 100\nscan_stop = 120\nscan_steps = 3\n")
        calls = []
        derive = params.derive_coefficients

        def counted(p):
            calls.append(p)
            return derive(p)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            base, propagate = cfg.medium, cfg.propagator()  # derived as built
            monkeypatch.setattr(params, "derive_coefficients", counted)
            records = scan(base, "pump", [v * MHZ for v in cfg.scan_values()], propagate)
        # no validity warning: the one warning names the points the 1024
        # samples' window does not contain
        assert len(caught) == 1
        assert str(caught[0].message).startswith("3 of 3 points blank (ContainmentError 3: ")
        # one derivation per point, of the medium the point propagates
        assert len(calls) == len(records)
        assert [q.coefficients.delta_tilde for q in calls] == [0.0] * len(records)

    def test_warns_outside_validity(self):
        # with delta fixed, a weak pump moves the light shift far from delta
        p = make_params(gamma_c_frac=0.0)
        with pytest.warns(UserWarning, match="dtilde"):
            scan(p, "pump", [100.0 * MHZ], gaussian_propagator(), delta_policy="fixed")

    def test_gain_curvature_changes_near_saturation(self):
        # G(pump) turns from convex (loss-dominated recovery) to concave
        # (gain saturating) within a factor of two of the saturation Rabi
        # frequency
        p = make_params(gamma_c_frac=0.5)
        sat = derive_coefficients(p).saturation_rabi
        rabis = np.linspace(0.4, 4.0, 60) * sat
        records = scan(p, "pump", rabis, gaussian_propagator())
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
        res = run_single(p, gaussian_propagator())
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
        for args, message in [
            ((-1e-9, 7e-9, 0.025, 0.0), "delays must be > 0 to invert"),
            ((0.0, 7e-9, 0.025, 0.0), "delays must be > 0 to invert"),
            ((40e-9, 0.0, 0.025, 0.0), "delays must be > 0 to invert"),
            ((40e-9, -7e-9, 0.025, 0.0), "delays must be > 0 to invert"),
            ((40e-9, 7e-9, 0.0, 0.0), "z must be > 0 to invert"),
            ((40e-9, 7e-9, -0.025, 0.0), "z must be > 0 to invert"),
        ]:
            with pytest.raises(GuardError, match=f"^{message}$"):
                infer_eta_xi(*args)


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

    @pytest.mark.parametrize("eta, xi, gamma_c, z", [
        (0.0, 1e9, 0.0, 0.025), (-960.0, 1e9, 0.0, 0.025), (960.0, 0.0, 0.0, 0.025),
        (960.0, -1e9, 0.0, 0.025), (960.0, 1e9, -1.0, 0.025), (960.0, 1e9, 0.0, -0.025),
    ], ids=["eta=0", "eta<0", "xi=0", "xi<0", "gamma_c<0", "z<0"])
    def test_rejects_bad_arguments(self, eta, xi, gamma_c, z):
        with pytest.raises(GuardError,
                           match="^predict_gain needs eta, xi > 0 and z, gamma_c >= 0$"):
            predict_gain(eta, xi, gamma_c, z)

    def test_zero_length_is_unit_gain(self):
        assert predict_gain(960.0, 1e9, 0.0, 0.0) == 1.0

    def test_rejects_loss_exceeding_gain(self):
        with pytest.raises(GuardError):
            predict_gain(1000.0, 1.0, 1.0, 0.025)

    @pytest.mark.parametrize("eta", [1000.0, np.float64(1000.0)], ids=["float", "numpy"])
    def test_rejects_overflowing_gain(self, eta):
        # xi z/c = 400: cosh is finite and its square is not; a scan's
        # inferred eta is a numpy scalar, whose overflow would also warn
        assert math.isfinite(math.cosh(400.0))
        with pytest.raises(GuardError, match="gain overflows"):
            predict_gain(eta, 400.0 * C / 0.025, 0.0, 0.025)

    def test_matches_pipeline_narrowband(self):
        p = make_params(gamma_c_frac=0.0).scaled_density(0.3)
        eta = derive_coefficients(p).eta0
        xi = abs(coefficients_at(p, 0.0).xi)
        res = run_single(p, gaussian_propagator(fwhm=400e-9, window=8192e-9, n_samples=8192))
        assert res.probe_metrics.gain_peak == pytest.approx(
            predict_gain(eta, xi, 0.0, p.cell_length), rel=0.03
        )
