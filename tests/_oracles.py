"""Independent numerical oracles used by the test suite.

The transfer-matrix implementation is checked against brute-force
fixed-step fourth-order (RK4) integration of the per-frequency
coupled-mode equations; the integrator below never calls into the
closed-form solver.  :func:`pulse_oracle` carries the same integration
through a whole pulse, using plain ``np.fft`` transforms.
:func:`cosh_sinh_entries` keeps the closed form written with cosh and
sinh, the reference for the two-exponential form of the package, and
:func:`two_exponential_entries` that form in plain expressions, the
bit-for-bit reference for the kernel's in-place one.
:func:`complex_entry_bounds` keeps the kernel's bound in complex
arithmetic, the reference for its cancellation-free form.
:func:`polyfit_gaussian` is the Gaussian fit done by ``np.polyfit``, the
reference for the direct normal-equation solve of ``fit_gaussian``.
:func:`coefficients_at` gives the paper's eta, sigma, alpha and xi at one
frequency, the notation the delay and gain formulas are written in.
"""
import cmath
import math
from dataclasses import dataclass

import numpy as np
from scipy.constants import c as C_LIGHT

from mp4wm.errors import FitError
from mp4wm.params import derive_coefficients, eta_of_omega
from mp4wm.pulses import GaussianFit


@dataclass(frozen=True)
class CouplingCoefficients:
    """Complex model coefficients at one envelope frequency."""

    eta: complex
    sigma: complex   # (eta/2)(dtilde + omega + i gamma_c)
    alpha: complex   # eta * Delta_R
    xi: complex      # principal sqrt(alpha^2 - sigma^2)


def coefficients_at(p, omega):
    """Evaluate eta, sigma, alpha and xi at a single envelope frequency."""
    d = derive_coefficients(p)
    eta = complex(eta_of_omega(p, omega))
    sigma = 0.5 * eta * (d.delta_tilde + omega + 1j * p.gamma_c)
    alpha = eta * d.delta_r
    xi = cmath.sqrt(alpha * alpha - sigma * sigma)
    return CouplingCoefficients(eta=eta, sigma=sigma, alpha=alpha, xi=xi)


def generator(p, omega, include_vacuum=True):
    """2x2 spatial generator dv/dz = A v for state (E_p(w), E_c*(-w))."""
    d = derive_coefficients(p)
    eta = complex(eta_of_omega(p, omega))
    alpha = eta * d.delta_r
    direct = eta * (1j * (d.delta_tilde + omega) + p.gamma_c)
    a = np.array([[-direct, 1j * alpha], [-1j * alpha, 0.0]], dtype=complex)
    if include_vacuum:
        a -= 1j * omega * np.eye(2)
    return a / C_LIGHT


def cosh_sinh_entries(p, omega, z):
    """(m_pp, m_pc, m_cp, m_cc) as exp(-d L/2) [cosh(mu L) I + sinh(mu L)/mu D].

    Below |mu L| = 1e-6 sinh(mu L)/mu is the series L (1 + (mu L)^2 / 6).
    """
    omega = np.asarray(omega, dtype=float)
    d = derive_coefficients(p)
    eta = eta_of_omega(p, omega)
    alpha = eta * d.delta_r
    direct = eta * (1j * (d.delta_tilde + omega) + p.gamma_c)
    big_l = z / C_LIGHT
    mu = np.sqrt(0.25 * direct * direct + alpha * alpha)
    x = mu * big_l
    small = np.abs(x) < 1e-6
    with np.errstate(invalid="ignore", divide="ignore"):
        shc = np.where(small, big_l * (1.0 + x * x / 6.0),
                       np.sinh(x) / np.where(small, 1.0, mu))
    pref = np.exp(-0.5 * direct * big_l)
    ch = np.cosh(x)
    return (pref * (ch - 0.5 * direct * shc), pref * (1j * alpha * shc),
            pref * (-1j * alpha * shc), pref * (ch + 0.5 * direct * shc))


def two_exponential_entries(p, omega):
    """(m_pp, m_pc, m_cp, m_cc) in the package's two-exponential form, step by step.

    Plain expressions, one new value per step, the series taken on every
    bin: every bit of :func:`mp4wm.coupling.transfer_entries` must equal
    these, for array and scalar `omega` alike.
    """
    big_l = p.cell_length / C_LIGHT
    omega = np.asarray(omega, dtype=float)
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        direct, alpha, mu_sq = generator_terms(p, omega)
        mu = np.sqrt(mu_sq)
        x = mu * big_l
        pref = np.exp(-0.5 * direct * big_l)
        grow_m1 = np.expm1(x)             # e^{mu L} - 1
        shrink = 1.0 / (1.0 + grow_m1)    # e^{-mu L}
        e_plus = pref * (1.0 + grow_m1)
        e_minus = pref * shrink
        pref_ch = 0.5 * (e_plus + e_minus)
        # e_+ - e_- = P expm1(mu L) (1 + e^{-mu L}) does not cancel as mu L -> 0
        pref_shc = 0.5 * pref * grow_m1 * (1.0 + shrink) / mu
        small = np.abs(x) < 1e-6
        pref_shc = np.where(small, pref * big_l * (1.0 + x * x / 6.0), pref_shc)
        half_d_shc = 0.5 * direct * pref_shc
        m_cp = -1j * alpha * pref_shc
        return pref_ch - half_d_shc, -m_cp, m_cp, pref_ch + half_d_shc


def generator_terms(p, omega):
    """d, alpha and mu^2 = d^2/4 + alpha^2 of the generator, complex, at each frequency."""
    omega = np.asarray(omega, dtype=float)
    d = derive_coefficients(p)
    # a bin on the full-mode pole at gamma_c = 0 divides by zero
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        eta = eta_of_omega(p, omega)
        alpha = eta * d.delta_r
        direct = eta * (1j * (d.delta_tilde + omega) + p.gamma_c)
        return direct, alpha, 0.25 * direct * direct + alpha * alpha


def complex_entry_bounds(p, omega, *, principal_root=False):
    """Bounds on |m_pp| and |m_cp| of :func:`mp4wm.coupling.entry_bounds`, in complex arithmetic.

    g (1 + |d|/2 r) and g |alpha| r with g = e^{(Re mu - Re d/2) L} and
    r = min(L, 1/|mu|), where Re mu = sqrt((|mu^2| + Re mu^2)/2).  That sum
    cancels where Re mu^2 < 0, so Re mu here is off by up to
    sqrt(eps |mu^2|) there.  With `principal_root`, Re mu is instead the
    real part of numpy's complex sqrt of mu^2, which does not cancel.
    """
    direct, alpha, mu_sq = generator_terms(p, omega)
    big_l = p.cell_length / C_LIGHT
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        abs_mu_sq = np.abs(mu_sq)
        if principal_root:
            re_mu = np.sqrt(mu_sq).real
        else:
            re_mu = np.sqrt(0.5 * (abs_mu_sq + mu_sq.real))
        g = np.exp((re_mu - 0.5 * direct.real) * big_l)
        r = np.minimum(big_l, 1.0 / np.sqrt(abs_mu_sq))
        return g * (1.0 + 0.5 * np.abs(direct) * r), g * np.abs(alpha) * r


def rk4_transfer_batch(mats, zs, n_steps=10_000):
    """Matrix exponentials of a (k, 2, 2) stack by classical RK4.

    `mats[i]` is the constant generator of draw i, integrated over
    distance `zs[i]` with `n_steps` equal steps.
    """
    mats = np.asarray(mats, dtype=complex)
    hs = (np.asarray(zs, dtype=float) / n_steps)[:, None, None]
    m = np.broadcast_to(np.eye(2, dtype=complex), mats.shape).copy()
    a = mats
    for _ in range(n_steps):
        k1 = a @ m
        k2 = a @ (m + 0.5 * hs * k1)
        k3 = a @ (m + 0.5 * hs * k2)
        k4 = a @ (m + hs * k3)
        m = m + hs / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return m


def rk4_transfer(p, omega, z=None, n_steps=10_000, include_vacuum=True):
    """Single-draw convenience wrapper around :func:`rk4_transfer_batch`."""
    if z is None:
        z = p.cell_length
    a = generator(p, omega, include_vacuum)
    return rk4_transfer_batch(a[None], [z], n_steps)[0]


def pulse_oracle(p, envelope, t_step, propagation_mode="relative", n_steps=2000):
    """Probe and conjugate envelopes after the cell, rebuilt bin by bin by RK4.

    Only the bins where |fft(E)| exceeds 1e-16 of its peak are integrated;
    the output spectrum is zero elsewhere.  The transforms are plain
    ``np.fft`` calls, so the result rests on no spectrum convention of the
    package.  The conjugate row of the state is E_c*(-w), so the conjugate
    envelope is the complex conjugate of its inverse transform.
    """
    env = np.asarray(envelope, dtype=complex)
    spec = np.fft.fft(env)
    omegas = 2.0 * np.pi * np.fft.fftfreq(env.size, t_step)
    band = np.flatnonzero(np.abs(spec) > 1e-16 * np.abs(spec).max())
    include_vacuum = propagation_mode == "exact"
    mats = [generator(p, w, include_vacuum) for w in omegas[band]]
    m = rk4_transfer_batch(mats, np.full(band.size, p.cell_length), n_steps)
    probe = np.zeros_like(spec)
    conj_star = np.zeros_like(spec)
    probe[band] = m[:, 0, 0] * spec[band]
    conj_star[band] = m[:, 1, 0] * spec[band]
    return np.fft.ifft(probe), np.conj(np.fft.ifft(conj_star))


def ivp_transfer(p, omega, z=None, include_vacuum=True, rtol=1e-11):
    """Transfer matrix by adaptive high-order ODE integration (DOP853).

    Unlike the fixed-step RK4 oracle this stays accurate when the
    generator norm is large but the two coupling terms nearly cancel.
    """
    from scipy.integrate import solve_ivp

    if z is None:
        z = p.cell_length
    a = generator(p, omega, include_vacuum)

    def rhs(_, y):
        return (a @ y.reshape(2, 2)).ravel()

    sol = solve_ivp(
        rhs,
        (0.0, z),
        np.eye(2, dtype=complex).ravel(),
        method="DOP853",
        rtol=rtol,
        atol=1e-14,
    )
    if not sol.success:
        raise RuntimeError(f"oracle integration failed: {sol.message}")
    return sol.y[:, -1].reshape(2, 2)


def polyfit_gaussian(pulse):
    """:class:`GaussianFit` of the pulse intensity by weighted ``np.polyfit``.

    The same samples, weights and :class:`FitError` rules as
    ``fit_gaussian``: a parabola in log-intensity over the contiguous
    samples within 1/e^2 of the peak, weighted by I / peak (which polyfit
    squares), solved by ``lstsq`` on the scaled Vandermonde matrix.
    """
    inten = pulse.intensity
    peak = float(inten.max())
    if peak <= 0.0:
        raise FitError("cannot fit an all-zero pulse")
    idx = np.flatnonzero(inten >= peak * math.exp(-2.0))
    if idx.size < 8:
        raise FitError(f"only {idx.size} samples above the 1/e^2 threshold")
    if np.any(np.diff(idx) != 1):
        raise FitError("no unique dominant peak: 1/e^2 region is not contiguous")
    t = pulse.grid.times[idx]
    t0 = t[np.argmax(inten[idx])]
    x = (t - t0) / 1e-9  # nanoseconds around the discrete peak
    a, b, c = np.polyfit(x, np.log(inten[idx]), 2, w=inten[idx] / peak)
    if a >= 0.0:
        raise FitError("non-negative log-intensity curvature: not a pulse")
    return GaussianFit(
        center=t0 - b / (2.0 * a) * 1e-9,
        fwhm=math.sqrt(-4.0 * math.log(2.0) / a) * 1e-9,
        peak=math.exp(c - b * b / (4.0 * a)),
    )
