import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from mp4wm.errors import ConfigError
from mp4wm.params import (
    MediumParams,
    ModelValidityWarning,
    derive_coefficients,
    eta_of_omega,
)

from conftest import C, MHZ, make_params


class TestDerivedScalars:
    def test_light_shift_reference_point(self):
        # Omega/2pi = 420 MHz, Delta/2pi = 4 GHz -> 420^2/(4*4000) MHz
        d = derive_coefficients(make_params())
        assert d.delta_r / MHZ == pytest.approx(11.025, rel=1e-12)
        # within 5% of the quoted 11 MHz
        assert abs(d.delta_r / MHZ - 11.0) / 11.0 < 0.05

    def test_raman_bandwidth_vs_linewidth(self):
        p = make_params()
        d = derive_coefficients(p)
        assert 2.0 * d.delta_r / p.gamma == pytest.approx(3.675, rel=1e-12)
        # rounds to ~4 gamma
        assert abs(2.0 * d.delta_r / p.gamma - 4.0) < 0.5

    def test_saturation_rabi(self):
        d = derive_coefficients(make_params())
        assert d.saturation_rabi / MHZ == pytest.approx(
            2.0 * math.sqrt(4000.0 * 6.0), rel=1e-12
        )
        assert d.saturation_rabi / MHZ == pytest.approx(309.84, rel=1e-4)

    def test_group_velocity(self):
        d = derive_coefficients(make_params(eta0=480.0))
        assert d.v_group == pytest.approx(C / 480.0, rel=1e-15)
        assert d.v_group * d.eta0 == pytest.approx(C, rel=1e-15)

    def test_alpha_product_exact(self):
        d = derive_coefficients(make_params())
        assert d.alpha0 == d.eta0 * d.delta_r

    @given(st.floats(min_value=1e-3, max_value=1e3))
    def test_scale_consistency(self, s):
        p = make_params()
        q = p.scaled_density(s)
        d0, d1 = derive_coefficients(p), derive_coefficients(q)
        assert d1.eta0 == pytest.approx(d0.eta0 * s, rel=1e-12)
        assert d1.alpha0 == pytest.approx(d0.alpha0 * s, rel=1e-12)
        assert d1.delta_r == d0.delta_r
        assert d1.saturation_rabi == d0.saturation_rabi


class TestEtaOfOmega:
    def test_delta1_zero_reduces_to_constant(self):
        p = make_params(delta1_mhz=0.0)
        const = 4.0 * p.coupling_g2n / p.omega_rabi**2
        for w in (-1e9, 0.0, 3e8, 1e9):
            assert eta_of_omega(p, w, "full") == pytest.approx(const, rel=1e-15)

    def test_real_at_omega_minus_delta(self):
        p = make_params(delta1_mhz=850.0, gamma_c_frac=0.0, delta2_mhz=15.0)
        eta = eta_of_omega(p, -p.delta_two_photon, "full")
        assert eta.imag == 0.0
        assert eta.real == pytest.approx(4.0 * p.coupling_g2n / p.omega_rabi**2)

    def test_dispersive_ratio_identity(self):
        # |eta(0)| / eta_const == |1 + 4 Delta_1 (delta + i gamma_c)/Omega^2|^-1
        p = make_params(delta1_mhz=850.0, gamma_c_frac=0.5, delta2_mhz=15.0)
        eta_full = eta_of_omega(p, 0.0, "full")
        eta_const = eta_of_omega(p, 0.0, "constant")
        ratio = abs(eta_full) / abs(eta_const)
        expected = 1.0 / abs(
            1.0
            + 4.0
            * p.delta_one
            * (p.delta_two_photon + 1j * p.gamma_c)
            / p.omega_rabi**2
        )
        assert ratio == pytest.approx(expected, rel=1e-12)

    def test_uniform_convergence_small_delta1(self):
        p = make_params(delta1_mhz=1e-6, delta2_mhz=15.0, gamma_c_frac=0.5)
        omegas = np.linspace(-1e9, 1e9, 101)
        full = eta_of_omega(p, omegas, "full")
        const = eta_of_omega(p, omegas, "constant")
        assert np.max(np.abs(full - const) / np.abs(const)) < 1e-6

    def test_unknown_mode(self):
        with pytest.raises(ConfigError):
            eta_of_omega(make_params(), 0.0, "bogus")


class TestValidation:
    def test_rejects_nonpositive(self):
        for field in ("omega_rabi", "delta_raman", "gamma", "coupling_g2n"):
            with pytest.raises(ConfigError):
                make_params().replace(**{field: 0.0})

    def test_rejects_nonfinite(self):
        with pytest.raises(ConfigError):
            make_params().replace(delta_two_photon=math.nan)
        with pytest.raises(ConfigError):
            make_params().replace(coupling_g2n=math.inf)

    def test_rejects_negative_gamma_c_and_length(self):
        with pytest.raises(ConfigError):
            make_params().replace(gamma_c=-1.0)
        with pytest.raises(ConfigError):
            make_params().replace(cell_length=-0.01)

    def test_zero_length_allowed(self):
        assert make_params().replace(cell_length=0.0).cell_length == 0.0

    def test_validity_warnings_outside_asymptotic_regime(self):
        with pytest.warns(ModelValidityWarning):
            make_params(delta1_mhz=850.0, delta2_mhz=15.0, gamma_c_frac=0.5)
