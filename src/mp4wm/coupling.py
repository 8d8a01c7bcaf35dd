"""Per-frequency coupling coefficients and the 2x2 cell transfer matrix.

The state vector per envelope frequency is (E_p(w), E_c*(-w)).  Writing
L = z/c, dtilde = delta - Omega^2/4Delta, and

    d(w) = eta(w) * [i (dtilde + w) + gamma_c]        (probe direct term)
    alpha(w) = eta(w) * Delta_R                        (4WM cross term)

the coupled-mode equations reduce to d/dL v = (-i w I + N) v with

    N = [[-d, i alpha], [-i alpha, 0]].

Splitting N = -(d/2) I + D with traceless D and D^2 = mu^2 I,
mu = sqrt(d^2/4 + alpha^2), gives the closed form

    exp(N L) = exp(-d L / 2) [cosh(mu L) I + sinh(mu L)/mu * D].

:func:`transfer_entries` forms all four entries from two exponentials,
e_pm = e^{(-d/2 +/- mu) L} = P e^{+/- mu L} with P = e^{-d L/2} (times the
vacuum phase e^{-i w L} in exact mode):

    m_pp, m_cc = (e_+ + e_-)/2 -/+ (d/2) (e_+ - e_-)/(2 mu),
    m_cp = -m_pc = -i alpha (e_+ - e_-)/(2 mu).

e^{mu L} is taken as 1 + expm1(mu L), so that e_+ - e_- =
P expm1(mu L) (1 + e^{-mu L}) keeps full precision as mu L -> 0; below
|mu L| = 1e-6 the series L (1 + (mu L)^2/6) replaces sinh(mu L)/mu.
:func:`entry_bounds` bounds |m_pp| and |m_cp| from the same d, alpha and
mu^2 without evaluating the entries.

The Fourier convention is the NumPy one: spectra are obtained with the
e^{-i w t} kernel, so a time delay tau multiplies a spectrum by
e^{-i w tau}.  Under this convention the matrix above yields positive
group delays (common delay eta z / 2c) and physical damping
(exp(-eta gamma_c z / 2c) per field at line center).
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np
from scipy.constants import c as C_LIGHT

from .errors import GuardError
from .params import MediumParams, derive_coefficients, eta_of_omega

PROPAGATION_MODES = ("exact", "relative")
DISPERSION_MODES = ("constant", "full")

# below this |mu L| the sinh(mu L)/mu factor switches to its series
_SINHC_THRESHOLD = 1e-6


@dataclass(frozen=True)
class CouplingCoefficients:
    """Complex model coefficients at one envelope frequency."""

    eta: complex
    sigma: complex   # (eta/2)(dtilde + omega + i gamma_c)
    alpha: complex   # eta * Delta_R
    xi: complex      # principal sqrt(alpha^2 - sigma^2)


def coefficients_at(
    p: MediumParams, omega, dispersion_mode: str = "constant"
) -> CouplingCoefficients:
    """Evaluate eta, sigma, alpha and xi at a single envelope frequency."""
    d = derive_coefficients(p)
    eta = complex(eta_of_omega(p, omega, dispersion_mode))
    sigma = 0.5 * eta * (d.delta_tilde + omega + 1j * p.gamma_c)
    alpha = eta * d.delta_r
    xi = cmath.sqrt(alpha * alpha - sigma * sigma)
    return CouplingCoefficients(eta=eta, sigma=sigma, alpha=alpha, xi=xi)


def _big_l(p: MediumParams, z: float | None) -> float:
    """Propagation time z / c through the cell, or through `z` when given."""
    if z is None:
        z = p.cell_length
    if z < 0:
        raise GuardError("propagation distance must be >= 0")
    return z / C_LIGHT


def _generator_terms(p: MediumParams, omega: np.ndarray, dispersion_mode: str):
    """d, alpha and mu^2 = d^2/4 + alpha^2 at each frequency.

    Extreme inputs overflow to non-finite values, so callers run this under
    ``np.errstate``.
    """
    d = derive_coefficients(p)
    eta = eta_of_omega(p, omega, dispersion_mode)
    alpha = eta * d.delta_r
    direct = eta * (1j * (d.delta_tilde + omega) + p.gamma_c)
    return direct, alpha, 0.25 * direct * direct + alpha * alpha


def transfer_entries(
    p: MediumParams,
    omega,
    z: float | None = None,
    propagation_mode: str = "relative",
    dispersion_mode: str = "constant",
):
    """Vectorized transfer-matrix entries (m_pp, m_pc, m_cp, m_cc).

    `omega` may be a scalar or ndarray; entries broadcast with it.
    `propagation_mode="exact"` keeps the vacuum factor e^{-i w z/c};
    `"relative"` drops it, so delays are measured against the vacuum
    reference pulse, as in the experiment.
    """
    if propagation_mode not in PROPAGATION_MODES:
        raise GuardError(f"unknown propagation mode {propagation_mode!r}")
    big_l = _big_l(p, z)
    omega = np.asarray(omega, dtype=float)
    # overflow at extreme gain-length products degrades a point to
    # non-finite entries, which downstream guards turn into absent results
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        direct, alpha, mu_sq = _generator_terms(p, omega, dispersion_mode)
        mu = np.sqrt(mu_sq)
        x = mu * big_l
        pref = np.exp(-0.5 * direct * big_l)
        if propagation_mode == "exact":
            # a factor of its own: folded into the exponent, the phase would
            # round at the ulp of |d L/2|, ~6e-14 relative at |mu L| ~ 700
            pref = pref * np.exp(-1j * omega * big_l)
        grow_m1 = np.expm1(x)             # e^{mu L} - 1
        shrink = 1.0 / (1.0 + grow_m1)    # e^{-mu L}
        e_plus = pref * (1.0 + grow_m1)
        e_minus = pref * shrink
        pref_ch = 0.5 * (e_plus + e_minus)
        # e_+ - e_- = P expm1(mu L) (1 + e^{-mu L}) does not cancel as mu L -> 0
        pref_shc = 0.5 * pref * grow_m1 * (1.0 + shrink) / mu
        small = np.abs(x) < _SINHC_THRESHOLD
        pref_shc = np.where(small, pref * big_l * (1.0 + x * x / 6.0), pref_shc)
        half_d_shc = 0.5 * direct * pref_shc
        m_cp = -1j * alpha * pref_shc
        return pref_ch - half_d_shc, -m_cp, m_cp, pref_ch + half_d_shc


def entry_bounds(
    p: MediumParams,
    omega,
    z: float | None = None,
    dispersion_mode: str = "constant",
):
    """Upper bounds on |m_pp| and |m_cp| (= |m_pc|) at each frequency.

    With g = e^{(|Re mu| - Re d/2) L} and r = min(L, 1/|mu|),

        |m_pp| <= g (1 + |d|/2 r),    |m_cp| <= g |alpha| r,

    because |cosh mu L| and |sinh mu L| are at most e^{|Re mu| L} and
    sinh(mu L)/mu is the integral of cosh(mu s) over [0, L].  The
    exact-mode vacuum factor has modulus 1, so the bounds hold in every
    propagation mode.  |mu| and Re mu of the principal root come from mu^2
    as sqrt(|mu^2|) and sqrt((|mu^2| + Re mu^2)/2), with no complex sqrt.
    The bounds are non-finite where the entries may overflow.
    """
    big_l = _big_l(p, z)
    omega = np.asarray(omega, dtype=float)
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        direct, alpha, mu_sq = _generator_terms(p, omega, dispersion_mode)
        abs_mu_sq = np.abs(mu_sq)
        re_mu = np.sqrt(0.5 * (abs_mu_sq + mu_sq.real))
        g = np.exp((re_mu - 0.5 * direct.real) * big_l)
        r = np.minimum(big_l, 1.0 / np.sqrt(abs_mu_sq))
        return g * (1.0 + 0.5 * np.abs(direct) * r), g * np.abs(alpha) * r


@dataclass(frozen=True)
class AnalyticDelays:
    """Closed-form delay and gain figures at line center (dtilde=0, w=0)."""

    # common delay eta z / 2c (s); also the differential delay in the
    # low-gain limit, where (eta / 2 xi) tanh(xi z / c) -> eta z / 2c
    tau: float
    dtau_locked: float        # differential delay plateau (s)
    linear_gain_coeff: float  # (xi - eta gamma_c / 2) / c (1/m)
    peak_gain: float          # intensity gain of the probe at line center


def peak_gain_formula(eta: float, xi: float, gamma_c: float, z: float) -> float:
    """Probe intensity gain at line center for given eta, xi.

    G = exp(-eta gamma_c z/c) [cosh(xi z/c) - (eta gamma_c / 2 xi) sinh(xi z/c)]^2
    """
    if xi <= 0:
        raise GuardError("xi must be > 0")
    loss_ratio = 0.5 * eta * gamma_c / xi
    if loss_ratio >= 1.0:
        raise GuardError("loss exceeds gain: 2 xi <= eta gamma_c")
    big_l = xi * z / C_LIGHT
    try:
        amp = math.cosh(big_l) - loss_ratio * math.sinh(big_l)
    except OverflowError:
        raise GuardError(f"gain overflows double precision: xi z / c = {big_l:g}") from None
    return math.exp(-eta * gamma_c * z / C_LIGHT) * amp * amp


def analytic_delays(p: MediumParams, z: float | None = None) -> AnalyticDelays:
    """Analytic delay/gain summary, constant-eta form at dtilde=0, w=0.

    Raises :class:`GuardError` when 2 xi <= eta gamma_c (the locked
    differential delay is undefined outside gamma_c << 2 Delta_R).
    """
    if z is None:
        z = p.cell_length
    d = derive_coefficients(p)
    eta = d.eta0
    # sigma = i eta gamma_c / 2 at line center, so xi^2 = alpha^2 + (eta gamma_c/2)^2
    xi = math.hypot(d.alpha0, 0.5 * eta * p.gamma_c)
    if 2.0 * xi <= eta * p.gamma_c:
        raise GuardError("locked delay undefined: 2 xi <= eta gamma_c")
    return AnalyticDelays(
        tau=eta * z / (2.0 * C_LIGHT),
        dtau_locked=eta / (2.0 * xi - eta * p.gamma_c),
        linear_gain_coeff=(xi - 0.5 * eta * p.gamma_c) / C_LIGHT,
        peak_gain=peak_gain_formula(eta, xi, p.gamma_c, z),
    )


def renormalized_length(gain: float) -> float:
    """Effective propagation length L = arccosh(sqrt(G)) for a gain G >= 1."""
    if not math.isfinite(gain) or gain < 1.0:
        raise GuardError(f"gain must be >= 1 to renormalize, got {gain!r}")
    return math.acosh(math.sqrt(gain))
