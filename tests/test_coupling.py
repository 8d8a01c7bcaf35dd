import cmath
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from mp4wm.coupling import (
    _SINHC_THRESHOLD,
    analytic_delays,
    entry_bounds,
    peak_entry_bounds,
    predict_gain,
    renormalized_length,
    transfer_entries,
)
from mp4wm.errors import GuardError
from mp4wm.params import derive_coefficients, eta_of_omega

from _oracles import (
    coefficients_at,
    cosh_sinh_entries,
    generator,
    generator_terms,
    rk4_transfer,
    two_exponential_entries,
)
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
        full = p.replace(dispersion_mode="full")
        assert coefficients_at(full, 1e8).eta != coefficients_at(p, 1e8).eta


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
            m = transfer_array(p, w, z=z)
            a = generator(p, w, include_vacuum=False)
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


def _abs_mu(p, omega):
    """|mu| = |sqrt(d^2/4 + alpha^2)| at one frequency."""
    d = derive_coefficients(p)
    eta = complex(eta_of_omega(p, omega))
    direct = eta * (1j * (d.delta_tilde + omega) + p.gamma_c)
    return abs(cmath.sqrt(0.25 * direct * direct + (eta * d.delta_r) ** 2))


class TestTwoExponentialForm:
    @pytest.mark.parametrize("dispersion_mode", ["constant", "full"])
    def test_matches_the_cosh_sinh_form(self, dispersion_mode):
        rng = np.random.default_rng(20261018)
        mu_ls = np.logspace(-8.0, math.log10(700.0), 31)
        assert mu_ls[0] < _SINHC_THRESHOLD < mu_ls[-1]
        for mu_l in mu_ls:
            p = make_params(
                eta0=float(rng.uniform(50.0, 2000.0)),
                gamma_c_frac=float(rng.uniform(0.0, 0.5)),
                delta2_mhz=float(rng.uniform(-3000.0, 3000.0)),
                delta1_mhz=30.0,
                dispersion_mode=dispersion_mode,
            )
            for w in rng.uniform(-6e9, 6e9, size=6):
                z = mu_l * C / _abs_mu(p, w)
                got = transfer_entries(p.replace(cell_length=z), w)
                want = np.array(cosh_sinh_entries(p, w, z))
                # m_pp and m_cc cancel by design, so they are held to the matrix
                # scale; m_cp does not, so it is held to its own size
                assert np.max(np.abs(np.array(got) - want)) <= 1e-14 * np.max(np.abs(want))
                assert abs(got[2] - want[2]) <= 1e-14 * abs(want[2])
                assert got[1] == -got[2]

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        dispersion_mode=st.sampled_from(["constant", "full"]),
        log_mu_l=st.floats(-8.0, math.log10(700.0)),
        eta0=st.floats(50.0, 2000.0),
        gamma_c_frac=st.sampled_from([0.0, 0.01, 0.5]),
        delta2_mhz=st.floats(-3000.0, 3000.0),
        small_bins=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    # |mu L| far beyond 700 at the gain peak: e^{mu L} overflows
    @example(dispersion_mode="constant", log_mu_l=6.0, eta0=960.0, gamma_c_frac=0.01,
             delta2_mhz=11.025, small_bins=False, seed=1)
    @example(dispersion_mode="full", log_mu_l=6.0, eta0=960.0, gamma_c_frac=0.0,
             delta2_mhz=11.025, small_bins=True, seed=2)
    def test_keeps_the_bits_of_the_step_by_step_form(
        self, dispersion_mode, log_mu_l, eta0, gamma_c_frac, delta2_mhz, small_bins, seed
    ):
        rng = np.random.default_rng(seed)
        # with no loss and dtilde = 0, mu^2 = eta^2 (Delta_R^2 - w^2/4) rounds
        # to exactly 0 at w = +-2 Delta_R, where the series takes over
        p = make_params(eta0=eta0, delta1_mhz=30.0,
                        gamma_c_frac=0.0 if small_bins else gamma_c_frac,
                        delta2_mhz=None if small_bins else delta2_mhz,
                        dispersion_mode=dispersion_mode)
        c = derive_coefficients(p)
        # a spread of frequencies and some within 3 Delta_R of the gain peak,
        # whose largest |mu L| is 10^log_mu_l
        omega = np.concatenate([rng.uniform(-6e9, 6e9, 48),
                                -c.delta_tilde + c.delta_r * rng.uniform(-3.0, 3.0, 16)])
        _, _, mu_sq = generator_terms(p, omega)
        p = p.replace(cell_length=10.0**log_mu_l * C / np.max(np.sqrt(np.abs(mu_sq))))
        if small_bins:
            near = np.array([1.0, -1.0, 1.0 + 1e-12, 1.0 - 1e-10, 1.0 + 1e-8])
            omega = np.concatenate([omega, 2.0 * c.delta_r * near])
            _, _, mu_sq = generator_terms(p, omega)
            assert np.any(np.abs(np.sqrt(mu_sq) * (p.cell_length / C)) < _SINHC_THRESHOLD)
        want = two_exponential_entries(p, omega)
        if log_mu_l > 3.0:
            assert not np.all(np.isfinite(want[0]))
        # the array, then each frequency alone as a Python float, whose
        # entries are numpy scalars
        cases = [(omega, want)] + [(w, two_exponential_entries(p, w))
                                   for w in omega.tolist()]
        for w, entries in cases:
            got = transfer_entries(p, w)
            assert len(got) == 4
            for g, e in zip(got, entries):  # the same bits, nan payloads too
                assert type(g) is type(e) and np.shape(g) == np.shape(e)
                assert np.asarray(g).tobytes() == np.asarray(e).tobytes()

    def test_overflow_gives_non_finite_entries_and_bounds(self):
        # mu z / c ~ 5e6: e^{mu L} overflows, silently
        p = make_params(eta0=1e9)
        w = np.linspace(-1e8, 1e8, 5)
        for entry in transfer_entries(p, w):
            assert not np.any(np.isfinite(entry))
        for bound in entry_bounds(p, w):
            assert not np.any(np.isfinite(bound))


# one medium of a block: Omega varies as on the pump axis, delta2 None is
# the light shift, a gamma_c of 0 leaves no loss, and z = 0 (or -0.0, whose
# bits differ) takes the series on every bin
BLOCK_MEDIUM = st.fixed_dictionaries({
    "omega_mhz": st.floats(100.0, 800.0),
    "eta0": st.floats(50.0, 2000.0),
    "gamma_c_frac": st.sampled_from([0.0, 0.01]) | st.floats(0.0, 0.5),
    "delta1_mhz": st.sampled_from([0.0, 30.0, -30.0]),
    "delta2_mhz": st.none() | st.floats(-3000.0, 3000.0),
    "z": st.sampled_from([0.0, -0.0, 0.025]) | st.floats(1e-6, 0.1),
})


class TestBlockKernel:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        media=st.lists(BLOCK_MEDIUM, min_size=1, max_size=40),
        dispersion_mode=st.sampled_from(["constant", "full"]),
        n_bins=st.sampled_from([1, 129, 4096]),
        overflow=st.none() | st.integers(0, 39),
    )
    # 40 rows of the benchmark's offband scan on its 4096 bins: numpy reuses a
    # temporary of 256 KiB or more in place, and the block's exceed that
    @example(media=[{"omega_mhz": 420.0, "eta0": 960.0, "gamma_c_frac": 0.01,
                     "delta1_mhz": 30.0, "delta2_mhz": 0.5 * i, "z": 0.025}
                    for i in range(-80, 40, 3)],
             dispersion_mode="full", n_bins=4096, overflow=None)
    def test_each_row_is_the_single_medium_entries_to_the_bit(
        self, media, dispersion_mode, n_bins, overflow
    ):
        block = [make_params(dispersion_mode=dispersion_mode, **m) for m in media]
        if overflow is not None:  # mu z / c ~ 5e6 at z = 2.5 cm: e^{mu L} overflows
            overflow %= len(block)
            block[overflow] = make_params(eta0=1e9, z=media[overflow]["z"],
                                          dispersion_mode=dispersion_mode)
        omega = 2.0 * math.pi * np.fft.fftfreq(n_bins, 2e-6 / n_bins)  # 2000 ns window
        rows = transfer_entries(block, omega)
        assert len(rows) == 4
        for entry in rows:
            assert entry.shape == (len(block), n_bins) and entry.dtype == complex
        for i, p in enumerate(block):
            single = transfer_entries(p, omega)
            for row, want in zip(rows, single):  # the same bits, nan and inf too
                assert row[i].view(float).tobytes() == want.view(float).tobytes()
            if i == overflow and p.cell_length > 0.01:
                assert not np.all(np.isfinite(single[0]))

    @pytest.mark.parametrize("modes", [["constant", "full"], []], ids=["mixed", "empty"])
    def test_a_block_shares_its_dispersion_mode(self, modes):
        block = [make_params(dispersion_mode=mode) for mode in modes]
        with pytest.raises(GuardError, match="one or more media that share one dispersion_mode"):
            transfer_entries(block, np.array([0.0, 1e9]))


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
                dispersion_mode=dispersion_mode,
            )
            p = p.replace(cell_length=float(RNG.uniform(0.0, 0.03)))
            m_pp, m_pc, m_cp, _ = transfer_entries(p, w)
            b_pp, b_cp = entry_bounds(p, w)
            finite = np.isfinite(m_pp) & np.isfinite(m_cp)
            assert np.all(np.abs(m_pp[finite]) <= b_pp[finite])
            assert np.all(np.abs(m_cp[finite]) <= b_cp[finite])
            assert not np.any(np.isfinite(b_pp[~finite]))

    @pytest.mark.parametrize("dispersion_mode", ["constant", "full"])
    def test_overflowing_mu_squared_gives_non_finite_bounds(self, dispersion_mode):
        # |Im d|^2 overflows where alpha^2 does not, so Re mu^2 = -inf; with
        # no loss Im mu^2 = 0, and Re mu must come out non-finite, not 0
        p = make_params(eta0=1e150, omega_mhz=1.0, dispersion_mode=dispersion_mode)
        w = np.array([-1e10, 1e10])
        for entry in transfer_entries(p, w):
            assert not np.any(np.isfinite(entry))
        for bound in entry_bounds(p, w):
            assert not np.any(np.isfinite(bound))

    def test_zero_length_bounds_are_exact(self):
        b_pp, b_cp = entry_bounds(make_params(z=0.0), np.array([0.0, 1e9]))
        assert np.array_equal(b_pp, [1.0, 1.0])
        assert np.array_equal(b_cp, [0.0, 0.0])


    def test_peak_bounds_infinite_at_twice_the_raman_bandwidth(self):
        # rho = 2 Delta_R / y_min reaches 1 exactly: 1/sqrt(1 - rho^2) is unbounded
        p = make_params()
        y_min = 2.0 * p.coefficients.delta_r
        assert peak_entry_bounds(p, y_min, -1e9, 1e9) == (math.inf, math.inf)
        assert all(map(math.isfinite, peak_entry_bounds(p, 1.5 * y_min, -1e9, 1e9)))

    def test_peak_bounds_cover_the_loss_term(self):
        # full mode below the pole of eta(w): Delta_1 (delta + w) < 0 makes
        # -Re d = gamma_c (K - 2u) |eta|^2 / g^2 N > 0 on every bin
        p = make_params(delta1_mhz=30.0, gamma_c_frac=0.5, delta2_mhz=0.0,
                        dispersion_mode="full")
        c = p.coefficients
        omega = np.linspace(-1000.0, -800.0, 201) * MHZ
        quarter = 0.25 * p.omega_rabi**2
        u_min = quarter + p.delta_one * (p.delta_two_photon + omega[0])
        assert 0.0 < u_min and quarter + p.delta_one * c.delta_r - 2.0 * u_min > 0.0
        pair = peak_entry_bounds(p, float(np.abs(omega + c.delta_tilde).min()),
                                 omega[0], omega[-1])
        assert all(map(math.isfinite, pair))
        for bound, bins in zip(pair, entry_bounds(p, omega)):
            assert np.all(bins <= bound)


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

    def test_peak_gain_lossless(self):
        p = make_params(gamma_c_frac=0.0)
        ad = analytic_delays(p)
        d = derive_coefficients(p)
        assert ad.peak_gain == pytest.approx(
            math.cosh(d.alpha0 * p.cell_length / C) ** 2, rel=1e-12
        )

    def test_loss_dominated_rejected(self):
        with pytest.raises(GuardError):
            predict_gain(eta=960.0, xi=1.0, gamma_c=1e7, z=0.025)

    @pytest.mark.parametrize("eta", [2.0, 2.5])
    def test_loss_at_or_above_gain_rejected(self, eta):
        # 2 xi = eta gamma_c exactly, and 2 xi < eta gamma_c < 3 xi
        with pytest.raises(GuardError, match="^loss exceeds gain: 2 xi <= eta gamma_c$"):
            predict_gain(eta=eta, xi=1.0, gamma_c=1.0, z=0.025)
        assert predict_gain(eta=1.9, xi=1.0, gamma_c=1.0, z=0.025) > 0.0

    def test_overflowing_gain_rejected(self):
        # alpha0 z/c ~ 404: the locked delay is finite, the gain is not
        with pytest.raises(GuardError, match="gain overflows"):
            analytic_delays(make_params(eta0=70000.0))


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
