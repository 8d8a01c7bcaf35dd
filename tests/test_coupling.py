import cmath
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from mp4wm.coupling import (
    analytic_delays,
    coefficients_at,
    peak_gain_formula,
    renormalized_length,
    transfer_entries,
    transfer_matrix,
)
from mp4wm.errors import GuardError
from mp4wm.params import derive_coefficients

from _oracles import generator, rk4_transfer
from conftest import C, MHZ, make_params

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
        m = transfer_matrix(make_params(), 1e8, z=0.0)
        assert m.as_array() == pytest.approx(np.eye(2))

    def test_cosh_gain_at_unit_xi_length(self):
        # gamma_c = 0, dtilde = 0, omega = 0, z chosen so xi z / c = 1
        p = make_params(gamma_c_frac=0.0)
        xi = abs(coefficients_at(p, 0.0).xi)
        z = C / xi
        m = transfer_matrix(p, 0.0, z=z)
        assert abs(m.m_pp) ** 2 == pytest.approx(math.cosh(1.0) ** 2, rel=1e-12)
        # cross-check against brute-force integration of the coupled equations
        oracle = rk4_transfer(p, 0.0, z=z, include_vacuum=False)
        assert abs(oracle[0, 0]) ** 2 == pytest.approx(abs(m.m_pp) ** 2, rel=1e-8)

    def test_decoupled_lossless_pure_phases(self):
        # alpha -> 0 limit via a huge upper-lambda detuning
        p = make_params(gamma_c_frac=0.0, delta_mhz=1e15, delta2_mhz=5.0)
        m = transfer_matrix(p, 2e8)
        assert abs(m.m_pp) == pytest.approx(1.0, abs=1e-12)
        assert abs(m.m_cc) == pytest.approx(1.0, abs=1e-12)
        assert abs(m.m_pc) < 1e-9
        assert abs(m.m_cp) < 1e-9

    def test_determinant_trace_identity(self):
        for _ in range(50):
            p = random_params(RNG)
            w = float(RNG.uniform(-3e8, 3e8))
            # keep |xi z / c| <= 5: beyond that cosh^2 - sinh^2 is lost to
            # float64 cancellation for any formulation
            xi = abs(coefficients_at(p, w).xi)
            z = float(RNG.uniform(0.0, 5.0)) * C / max(xi, 1.0)
            m = transfer_matrix(p, w, z=z, propagation_mode="exact").as_array()
            a = generator(p, w, include_vacuum=True)
            expected = cmath.exp(np.trace(a) * z)
            assert np.linalg.det(m) == pytest.approx(expected, rel=1e-12)

    def test_semigroup(self):
        for _ in range(20):
            p = random_params(RNG)
            w = float(RNG.uniform(-3e8, 3e8))
            z1, z2 = RNG.uniform(0.0, 0.02, size=2)
            full = transfer_matrix(p, w, z=z1 + z2).as_array()
            split = transfer_matrix(p, w, z=z2).as_array() @ transfer_matrix(
                p, w, z=z1
            ).as_array()
            assert split == pytest.approx(full, rel=1e-12)

    def test_branch_invariance(self):
        for _ in range(20):
            p = random_params(RNG)
            w = float(RNG.uniform(-3e8, 3e8))
            plus = _manual_entries(p, w, p.cell_length, flip_branch=False)
            minus = _manual_entries(p, w, p.cell_length, flip_branch=True)
            assert minus == pytest.approx(plus, rel=1e-12)
            impl = transfer_matrix(p, w).as_array()
            assert impl == pytest.approx(plus, rel=1e-12)

    def test_series_regime_matches_oracle(self):
        # |mu z / c| < 1e-6 exercises the sinh(x)/x series
        p = make_params(eta0=50.0, gamma_c_frac=0.0)
        z = 1e-9
        m = transfer_matrix(p, 0.0, z=z).as_array()
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
                v = transfer_matrix(p, w, z=z).as_array() @ v0
                inv = abs(v[0]) ** 2 - abs(v[1]) ** 2
                assert inv == pytest.approx(inv0, rel=1e-10, abs=1e-10)

    def test_modes_differ_only_by_vacuum_phase(self):
        p = make_params()
        w = 1.5e8
        rel = transfer_matrix(p, w, propagation_mode="relative").as_array()
        paper = transfer_matrix(p, w, propagation_mode="paper").as_array()
        exact = transfer_matrix(p, w, propagation_mode="exact").as_array()
        assert paper == pytest.approx(rel, rel=1e-15)
        vac = cmath.exp(-1j * w * p.cell_length / C)
        assert exact == pytest.approx(rel * vac, rel=1e-12)

    def test_rejects_bad_inputs(self):
        with pytest.raises(GuardError):
            transfer_matrix(make_params(), 0.0, z=-1.0)
        with pytest.raises(GuardError):
            transfer_matrix(make_params(), 0.0, propagation_mode="warp")


class TestPhaseToDelay:
    def delay_of(self, entry_fn, w0=0.0, dw=1e4):
        # group delay -d(arg)/dw under the e^{-i w t} forward convention
        up = cmath.phase(entry_fn(w0 + dw))
        dn = cmath.phase(entry_fn(w0 - dw))
        return -(up - dn) / (2.0 * dw)

    def test_conjugate_delay_is_common_delay(self):
        p = make_params(gamma_c_frac=0.0)
        ad = analytic_delays(p)
        delay = self.delay_of(lambda w: transfer_matrix(p, w).m_cp)
        assert delay == pytest.approx(ad.tau, rel=1e-3)

    def test_probe_extra_delay_locks(self):
        p = make_params(gamma_c_frac=0.0)
        ad = analytic_delays(p)
        m = lambda w: transfer_matrix(p, w)
        probe = self.delay_of(lambda w: m(w).m_pp)
        conj = self.delay_of(lambda w: m(w).m_cp)
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
