import copy
import math
import pickle
import warnings
from dataclasses import astuple, fields

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy import constants

from mp4wm import params
from mp4wm.errors import ConfigError
from mp4wm.experiments import _pump_point
from mp4wm.params import (
    C_LIGHT,
    MediumParams,
    ModelValidityWarning,
    derive_coefficients,
    eta_of_omega,
)

from conftest import C, MHZ, make_params


class TestDerivedScalars:
    def test_speed_of_light_is_the_exact_si_value(self):
        assert C_LIGHT == constants.c

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

    def test_coefficients_follow_the_medium(self):
        p = make_params()
        c = p.coefficients
        assert astuple(c) == astuple(derive_coefficients(p))
        # each new medium derives from its own fields as it is built, not from p's
        tracked = _pump_point(p, 2.0 * p.omega_rabi, "track")
        for q in (p.replace(omega_rabi=2.0 * p.omega_rabi), p.scaled_density(2.0), tracked):
            assert astuple(q.coefficients) == astuple(derive_coefficients(q))
            assert q.coefficients != c
        assert tracked.coefficients.delta_tilde == 0.0

    def test_reading_the_coefficients_changes_no_copy_or_comparison(self, monkeypatch):
        read, unread = make_params(), make_params()
        before = pickle.dumps(read)
        read.coefficients
        # the scalars were derived as the medium was built and travel in its pickle
        assert pickle.dumps(read) == before == pickle.dumps(unread)
        fresh = derive_coefficients(unread)

        def derive(p):
            raise AssertionError("a copy carries its medium's coefficients")
        monkeypatch.setattr(params, "derive_coefficients", derive)
        for q in (read, pickle.loads(before), copy.deepcopy(read), copy.copy(read)):
            assert q == unread and hash(q) == hash(unread) and repr(q) == repr(unread)
            assert astuple(q.coefficients) == astuple(fresh)
        monkeypatch.undo()
        assert astuple(read.replace(cell_length=read.cell_length).coefficients) == astuple(fresh)


class TestEtaOfOmega:
    def test_delta1_zero_reduces_to_constant(self):
        p = make_params(delta1_mhz=0.0, dispersion_mode="full")
        const = 4.0 * p.coupling_g2n / p.omega_rabi**2
        for w in (-1e9, 0.0, 3e8, 1e9):
            assert eta_of_omega(p, w) == pytest.approx(const, rel=1e-15)

    def test_real_at_omega_minus_delta(self):
        p = make_params(delta1_mhz=850.0, gamma_c_frac=0.0, delta2_mhz=15.0,
                        dispersion_mode="full")
        eta = eta_of_omega(p, -p.delta_two_photon)
        assert eta.imag == 0.0
        assert eta.real == pytest.approx(4.0 * p.coupling_g2n / p.omega_rabi**2)

    def test_dispersive_ratio_identity(self):
        # |eta(0)| / eta_const == |1 + 4 Delta_1 (delta + i gamma_c)/Omega^2|^-1
        p = make_params(delta1_mhz=850.0, gamma_c_frac=0.5, delta2_mhz=15.0)
        eta_full = eta_of_omega(p.replace(dispersion_mode="full"), 0.0)
        eta_const = eta_of_omega(p, 0.0)
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
        full = eta_of_omega(p.replace(dispersion_mode="full"), omegas)
        const = eta_of_omega(p, omegas)
        assert np.max(np.abs(full - const) / np.abs(const)) < 1e-6


class TestValidation:
    def test_rejects_nonpositive(self):
        for field in ("omega_rabi", "delta_raman", "gamma", "coupling_g2n"):
            for value in (0.0, -1.0):
                with pytest.raises(ConfigError, match=f"^{field} must be > 0$"):
                    make_params().replace(**{field: value})

    @pytest.mark.parametrize("scale", [0.0, -1.0])
    def test_rejects_nonpositive_density_scale(self, scale):
        with pytest.raises(ConfigError, match="^density scale must be > 0$"):
            make_params().scaled_density(scale)

    @pytest.mark.parametrize("mode", ["bogus", "exact"])
    def test_rejects_unknown_dispersion_mode(self, mode):
        # "exact" names a propagation mode, not a dispersion mode
        with pytest.raises(ConfigError, match=f"^unknown dispersion mode '{mode}'$"):
            make_params(dispersion_mode=mode)

    def test_rejects_nonfinite(self):
        # every numeric field, whatever form its annotation takes; omega_rabi
        # meets the check on its square first
        numeric = [f.name for f in fields(MediumParams) if f.init and f.name != "dispersion_mode"]
        assert len(numeric) == 8
        for name in numeric:
            message = "omega_rabi squared" if name == "omega_rabi" else name
            for value in (math.nan, math.inf):
                with pytest.raises(ConfigError, match=f"^{message} must be finite"):
                    make_params().replace(**{name: value})

    def test_rejects_negative_gamma_c_and_length(self):
        with pytest.raises(ConfigError):
            make_params().replace(gamma_c=-1.0)
        with pytest.raises(ConfigError):
            make_params().replace(cell_length=-0.01)

    def test_rejects_coupling_whose_eta0_underflows(self):
        # g^2 N > 0 whose 4 g^2 N / Omega^2 rounds to 0 would make v_group = c / 0
        p = make_params()
        with pytest.raises(ConfigError, match="4 g\\^2 N / Omega\\^2 underflows to 0"):
            p.replace(coupling_g2n=5e-324)
        # checked before the cell length, as the derivation that needs it
        with pytest.raises(ConfigError, match="4 g\\^2 N / Omega\\^2 underflows to 0"):
            p.replace(coupling_g2n=5e-324, cell_length=-1.0)
        # the least eta0 derives: its v_group overflows, which derive reports as exit 3
        assert p.replace(coupling_g2n=p.omega_rabi**2 / 4.0 * 5e-324).coefficients.eta0 > 0.0

    def test_zero_length_allowed(self):
        assert make_params().replace(cell_length=0.0).cell_length == 0.0

    # SI values for which each limit is exact in binary floating point
    @pytest.mark.parametrize("times, warns", [(8, True), (10, False), (12, False)])
    def test_pump_coupling_must_be_ten_times_the_two_photon_detuning(self, times, warns):
        # Omega^2 / 4 Delta_1 = 81920^2 / 40 = 10 * 2^24 rad/s, exactly
        assert _validity_warnings(
            omega_rabi=81920.0, delta_raman=1e3, delta_one=10.0,
            delta_two_photon=10 * 2.0**24 / times, gamma=1.0,
        ) == ["pump Rabi"] * warns

    @pytest.mark.parametrize("times, warns", [(8, True), (10, False), (12, False)])
    def test_raman_detuning_must_be_ten_times_the_linewidth(self, times, warns):
        assert _validity_warnings(
            omega_rabi=81920.0, delta_raman=2.0 * times, delta_one=0.0,
            delta_two_photon=0.0, gamma=2.0,
        ) == ["upper-lambda detuning"] * warns

    def test_validity_warnings_outside_asymptotic_regime(self):
        with pytest.warns(ModelValidityWarning):
            make_params(delta1_mhz=850.0, delta2_mhz=15.0, gamma_c_frac=0.5)


def _validity_warnings(**fields) -> list[str]:
    """The first two words of each validity warning a medium of `fields` gives."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        MediumParams(gamma_c=0.0, coupling_g2n=1.0, cell_length=0.01, **fields)
    return [" ".join(str(w.message).split()[:2]) for w in caught
            if issubclass(w.category, ModelValidityWarning)]
