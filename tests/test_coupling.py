import cmath
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from mp4wm.coupling import (
    _SINHC_THRESHOLD,
    analytic_delays,
    coefficients_at,
    entry_bounds,
    peak_gain_formula,
    renormalized_length,
    transfer_entries,
)
from mp4wm.errors import GuardError
from mp4wm.params import derive_coefficients, eta_of_omega

from _oracles import cosh_sinh_entries, generator, rk4_transfer
from conftest import C, MHZ, make_params, transfer_array

RNG = np.random.default_rng(20260826)


def random_params(rng):
    eta0 = float(rng.uniform(50.0, 2000.0))
    delta_mhz = float(rng.uniform(500.0, 8000.0))
    return make_params(
        eta0=eta0,
        delta_mhz=delta_mhz,
        gamma_c_frac=float(rng.uniform(0.0, 0.5)),
        delta2_mhz=float(rng.uniform(-30.0, 30.0)),
    )


class TestCoefficients:
    def test_symmetric_point(self):
        # gamma_c = 0, dtilde = 0, omega = 0: sigma vanishes, xi falls on alpha
        p = make_params(gamma_c_frac=0.0)
        cc = coefficients_at(p, 0.0)
        d = derive_coefficients(p)
        assert cc.sigma == 0.0
        assert cc.xi == pytest.approx(cc.alpha, rel=1e-15)
        assert cc.alpha.real == pytest.approx(d.eta0 * d.delta_r, rel=1e-15)

    def test_alpha_magnitude_reference_point(self):
        # eta = 960 with Delta_R = 2pi * 11.025 MHz
        cc = coefficients_at(make_params(), 0.0)
        assert abs(cc.alpha) == pytest.approx(6.65e10, rel=1e-3)

    def test_sigma_purely_imaginary_on_resonance(self):
        p = make_params(gamma_c_frac=0.5)
        cc = coefficients_at(p, 0.0)  # delta2 pinned to the light shift
        assert cc.sigma.real == 0.0
        assert cc.sigma.imag == pytest.approx(
            0.5 * derive_coefficients(p).eta0 * p.gamma_c, rel=1e-15
        )

    def test_xi_definition_random_draws(self):
        for _ in range(50):
            p = random_params(RNG)
            w = float(RNG.uniform(-3e8, 3e8))
            cc = coefficients_at(p, w)
            assert cc.xi**2 == pytest.approx(
                cc.alpha**2 - cc.sigma**2, rel=1e-12
            )

    def test_full_mode_uses_dispersive_eta(self):
        p = make_params(delta1_mhz=850.0, gamma_c_frac=0.5, delta2_mhz=15.0)
        assert coefficients_at(p, 1e8, "full").eta != coefficients_at(
            p, 1e8, "constant"
        ).eta


def _manual_entries(p, omega, z, flip_branch=False):
    """Closed form re-derived in the test, optionally on the other sqrt branch."""
    d = derive_coefficients(p)
    eta = d.eta0
    alpha = eta * d.delta_r
    direct = eta * (1j * (d.delta_tilde + omega) + p.gamma_c)
    big_l = z / C
    mu = cmath.sqrt(0.25 * direct**2 + alpha**2)
    if flip_branch:
        mu = -mu
    ch = cmath.cosh(mu * big_l)
    shc = cmath.sinh(mu * big_l) / mu
    pref = cmath.exp(-0.5 * direct * big_l)
    return np.array(
        [
            [pref * (ch - 0.5 * direct * shc), pref * (1j * alpha * shc)],
            [pref * (-1j * alpha * shc), pref * (ch + 0.5 * direct * shc)],
        ]
    )


class TestTransferMatrix:
    def test_identity_at_zero_length(self):
        m = transfer_array(make_params(), 1e8, z=0.0)
        assert m == pytest.approx(np.eye(2))

    def test_cosh_gain_at_unit_xi_length(self):
        # gamma_c = 0, dtilde = 0, omega = 0, z chosen so xi z / c = 1
        p = make_params(gamma_c_frac=0.0)
        xi = abs(coefficients_at(p, 0.0).xi)
        z = C / xi
        m = transfer_array(p, 0.0, z=z)
        assert abs(m[0, 0]) ** 2 == pytest.approx(math.cosh(1.0) ** 2, rel=1e-12)
        # cross-check against brute-force integration of the coupled equations
        oracle = rk4_transfer(p, 0.0, z=z, include_vacuum=False)
        assert abs(oracle[0, 0]) ** 2 == pytest.approx(abs(m[0, 0]) ** 2, rel=1e-8)

    def test_decoupled_lossless_pure_phases(self):
        # alpha -> 0 limit via a huge upper-lambda detuning
        p = make_params(gamma_c_frac=0.0, delta_mhz=1e15, delta2_mhz=5.0)
        m = transfer_array(p, 2e8)
        assert abs(m[0, 0]) == pytest.approx(1.0, abs=1e-12)
        assert abs(m[1, 1]) == pytest.approx(1.0, abs=1e-12)
        assert abs(m[0, 1]) < 1e-9
        assert abs(m[1, 0]) < 1e-9

    def test_determinant_trace_identity(self):
        for _ in range(50):
            p = random_params(RNG)
            w = float(RNG.uniform(-3e8, 3e8))
            # keep |xi z / c| <= 5: beyond that cosh^2 - sinh^2 is lost to
            # float64 cancellation for any formulation
            xi = abs(coefficients_at(p, w).xi)
            z = float(RNG.uniform(0.0, 5.0)) * C / max(xi, 1.0)
            m = transfer_array(p, w, z=z, propagation_mode="exact")
            a = generator(p, w, include_vacuum=True)
            expected = cmath.exp(np.trace(a) * z)
            assert np.linalg.det(m) == pytest.approx(expected, rel=1e-12)

    def test_semigroup(self):
        for _ in range(20):
            p = random_params(RNG)
            w = float(RNG.uniform(-3e8, 3e8))
            z1, z2 = RNG.uniform(0.0, 0.02, size=2)
            full = transfer_array(p, w, z=z1 + z2)
            split = transfer_array(p, w, z=z2) @ transfer_array(p, w, z=z1)
            assert split == pytest.approx(full, rel=1e-12)

    def test_branch_invariance(self):
        for _ in range(20):
            p = random_params(RNG)
            w = float(RNG.uniform(-3e8, 3e8))
            plus = _manual_entries(p, w, p.cell_length, flip_branch=False)
            minus = _manual_entries(p, w, p.cell_length, flip_branch=True)
            assert minus == pytest.approx(plus, rel=1e-12)
            impl = transfer_array(p, w)
            assert impl == pytest.approx(plus, rel=1e-12)

    def test_series_regime_matches_oracle(self):
        # |mu z / c| < 1e-6 exercises the sinh(x)/x series
        p = make_params(eta0=50.0, gamma_c_frac=0.0)
        z = 1e-9
        m = transfer_array(p, 0.0, z=z)
        oracle = rk4_transfer(p, 0.0, z=z, n_steps=1000, include_vacuum=False)
        assert m == pytest.approx(oracle, rel=1e-10)

    def test_manley_rowe_conservation(self):
        # gamma_c = 0, real alpha: |E_p|^2 - |E_c*|^2 independent of z
        p = make_params(gamma_c_frac=0.0, delta2_mhz=5.0)
        for _ in range(20):
            w = float(RNG.uniform(-2e8, 2e8))
            v0 = RNG.standard_normal(2) + 1j * RNG.standard_normal(2)
            inv0 = abs(v0[0]) ** 2 - abs(v0[1]) ** 2
            for z in (0.003, 0.01, 0.025):
                v = transfer_array(p, w, z=z) @ v0
                inv = abs(v[0]) ** 2 - abs(v[1]) ** 2
                assert inv == pytest.approx(inv0, rel=1e-10, abs=1e-10)

    def test_modes_differ_only_by_vacuum_phase(self):
        p = make_params()
        w = 1.5e8
        rel = transfer_array(p, w, propagation_mode="relative")
        exact = transfer_array(p, w, propagation_mode="exact")
        vac = cmath.exp(-1j * w * p.cell_length / C)
        assert exact == pytest.approx(rel * vac, rel=1e-12)

    def test_rejects_bad_inputs(self):
        with pytest.raises(GuardError):
            transfer_entries(make_params(), 0.0, z=-1.0)
        with pytest.raises(GuardError):
            transfer_entries(make_params(), 0.0, propagation_mode="warp")


def _abs_mu(p, omega, dispersion_mode):
    """|mu| = |sqrt(d^2/4 + alpha^2)| at one frequency."""
    d = derive_coefficients(p)
    eta = complex(eta_of_omega(p, omega, dispersion_mode))
    direct = eta * (1j * (d.delta_tilde + omega) + p.gamma_c)
    return abs(cmath.sqrt(0.25 * direct * direct + (eta * d.delta_r) ** 2))


class TestTwoExponentialForm:
    @pytest.mark.parametrize("dispersion_mode", ["constant", "full"])
    @pytest.mark.parametrize("propagation_mode", ["relative", "exact"])
    def test_matches_the_cosh_sinh_form(self, propagation_mode, dispersion_mode):
        rng = np.random.default_rng(20261018)
        mu_ls = np.logspace(-8.0, math.log10(700.0), 31)
        assert mu_ls[0] < _SINHC_THRESHOLD < mu_ls[-1]
        for mu_l in mu_ls:
            p = make_params(
                eta0=float(rng.uniform(50.0, 2000.0)),
                gamma_c_frac=float(rng.uniform(0.0, 0.5)),
                delta2_mhz=float(rng.uniform(-3000.0, 3000.0)),
                delta1_mhz=30.0,
            )
            for w in rng.uniform(-6e9, 6e9, size=6):
                z = mu_l * C / _abs_mu(p, w, dispersion_mode)
                got = transfer_entries(p, w, z, propagation_mode, dispersion_mode)
                want = np.array(
                    cosh_sinh_entries(p, w, z, propagation_mode, dispersion_mode)
                )
                # m_pp and m_cc cancel by design, so they are held to the matrix
                # scale; m_cp does not, so it is held to its own size
                assert np.max(np.abs(np.array(got) - want)) <= 1e-14 * np.max(np.abs(want))
                assert abs(got[2] - want[2]) <= 1e-14 * abs(want[2])
                assert got[1] == -got[2]

    def test_overflow_gives_non_finite_entries_and_bounds(self):
        # mu z / c ~ 5e6: e^{mu L} overflows, silently
        p = make_params(eta0=1e9)
        w = np.linspace(-1e8, 1e8, 5)
        for entry in transfer_entries(p, w):
            assert not np.any(np.isfinite(entry))
        for bound in entry_bounds(p, w):
            assert not np.any(np.isfinite(bound))


class TestEntryBounds:
    @pytest.mark.parametrize("dispersion_mode", ["constant", "full"])
    def test_bounds_hold_on_every_bin(self, dispersion_mode):
        w = 2.0 * math.pi * np.fft.fftfreq(4096, 0.5e-9)
        for _ in range(20):
            p = make_params(
                eta0=float(RNG.uniform(50.0, 2000.0)),
                gamma_c_frac=float(RNG.uniform(0.0, 0.5)),
                delta2_mhz=float(RNG.uniform(-3000.0, 3000.0)),
                delta1_mhz=30.0,
            )
            z = float(RNG.uniform(0.0, 0.03))
            m_pp, m_pc, m_cp, _ = transfer_entries(p, w, z, "exact", dispersion_mode)
            b_pp, b_cp = entry_bounds(p, w, z, dispersion_mode)
            finite = np.isfinite(m_pp) & np.isfinite(m_cp)
            assert np.all(np.abs(m_pp[finite]) <= b_pp[finite])
            assert np.all(np.abs(m_cp[finite]) <= b_cp[finite])
            assert not np.any(np.isfinite(b_pp[~finite]))

    def test_zero_length_bounds_are_exact(self):
        b_pp, b_cp = entry_bounds(make_params(), np.array([0.0, 1e9]), z=0.0)
        assert np.array_equal(b_pp, [1.0, 1.0])
        assert np.array_equal(b_cp, [0.0, 0.0])

    def test_rejects_negative_length(self):
        with pytest.raises(GuardError):
            entry_bounds(make_params(), 0.0, z=-1.0)


class TestPhaseToDelay:
    def delay_of(self, entry_fn, w0=0.0, dw=1e4):
        # group delay -d(arg)/dw under the e^{-i w t} forward convention
        up = cmath.phase(entry_fn(w0 + dw))
        dn = cmath.phase(entry_fn(w0 - dw))
        return -(up - dn) / (2.0 * dw)

    def test_conjugate_delay_is_common_delay(self):
        p = make_params(gamma_c_frac=0.0)
        ad = analytic_delays(p)
        delay = self.delay_of(lambda w: transfer_array(p, w)[1, 0])
        assert delay == pytest.approx(ad.tau, rel=1e-3)

    def test_probe_extra_delay_locks(self):
        p = make_params(gamma_c_frac=0.0)
        ad = analytic_delays(p)
        probe = self.delay_of(lambda w: transfer_array(p, w)[0, 0])
        conj = self.delay_of(lambda w: transfer_array(p, w)[1, 0])
        # xi z / c ~ 5.5 here: the differential delay has locked
        assert probe - conj == pytest.approx(ad.dtau_locked, rel=1e-2)


class TestAnalyticDelays:
    def test_common_delay_forty_ns(self):
        ad = analytic_delays(make_params(eta0=960.0, z=0.025))
        assert ad.tau == pytest.approx(960.0 * 0.025 / (2.0 * C), rel=1e-15)
        assert ad.tau == pytest.approx(40.0e-9, rel=2e-3)

    def test_locked_delay_ideal_limit(self):
        # gamma_c = 0: dtau = 1/(2 Delta_R) = 2 Delta / Omega^2
        p = make_params(gamma_c_frac=0.0)
        ad = analytic_delays(p)
        assert ad.dtau_locked == pytest.approx(
            2.0 * p.delta_raman / p.omega_rabi**2, rel=1e-12
        )
        assert ad.dtau_locked == pytest.approx(7.22e-9, rel=1e-3)

    def test_linear_gain_coefficient(self):
        p = make_params(gamma_c_frac=0.5)
        ad = analytic_delays(p)
        d = derive_coefficients(p)
        xi = math.hypot(d.alpha0, 0.5 * d.eta0 * p.gamma_c)
        assert ad.linear_gain_coeff == pytest.approx(
            (xi - 0.5 * d.eta0 * p.gamma_c) / C, rel=1e-12
        )

    def test_peak_gain_lossless(self):
        p = make_params(gamma_c_frac=0.0)
        ad = analytic_delays(p)
        d = derive_coefficients(p)
        assert ad.peak_gain == pytest.approx(
            math.cosh(d.alpha0 * p.cell_length / C) ** 2, rel=1e-12
        )

    def test_loss_dominated_rejected(self):
        with pytest.raises(GuardError):
            peak_gain_formula(eta=960.0, xi=1.0, gamma_c=1e7, z=0.025)


class TestRenormalizedLength:
    def test_unit_gain(self):
        assert renormalized_length(1.0) == 0.0

    def test_gain_of_thirteen_regime(self):
        expected = math.log(math.sqrt(13.0) + math.sqrt(12.0))
        assert renormalized_length(13.0) == pytest.approx(expected, rel=1e-12)
        assert renormalized_length(13.0) == pytest.approx(1.9558, abs=1e-4)

    @given(st.floats(min_value=1e-3, max_value=50.0))
    def test_roundtrip(self, x):
        assert renormalized_length(math.cosh(x) ** 2) == pytest.approx(
            x, rel=1e-12, abs=1e-12
        )

    def test_rejects_gain_below_one(self):
        with pytest.raises(GuardError):
            renormalized_length(0.99)
