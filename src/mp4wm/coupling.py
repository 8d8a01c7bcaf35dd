"""Per-frequency coupling coefficients and the 2x2 cell transfer matrix.

The state vector per envelope frequency is (E_p(w), E_c*(-w)).  Writing
L = z/c for the cell length z, dtilde = delta - Omega^2/4Delta, and

    d(w) = eta(w) * [i (dtilde + w) + gamma_c]        (probe direct term)
    alpha(w) = eta(w) * Delta_R                        (4WM cross term)

the coupled-mode equations reduce to d/dL v = (-i w I + N) v with

    N = [[-d, i alpha], [-i alpha, 0]].

Splitting N = -(d/2) I + D with traceless D and D^2 = mu^2 I,
mu = sqrt(d^2/4 + alpha^2), gives the closed form

    exp(N L) = exp(-d L / 2) [cosh(mu L) I + sinh(mu L)/mu * D].

The vacuum transit e^{-i w L} multiplies every entry alike; the entries
below leave it out, and :mod:`mp4wm.pulses` applies it to the input.

:func:`transfer_entries` forms all four entries from two exponentials,
e_pm = e^{(-d/2 +/- mu) L} = P e^{+/- mu L} with P = e^{-d L/2}:

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

from .errors import GuardError
from .params import C_LIGHT, MediumParams, derive_coefficients, eta_of_omega

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


def transfer_entries(p: MediumParams, omega, dispersion_mode: str = "constant"):
    """Vectorized transfer-matrix entries (m_pp, m_pc, m_cp, m_cc) of exp(N L).

    `omega` may be a scalar or ndarray; entries broadcast with it.  The
    vacuum factor e^{-i w L} is left out, so delays are measured against
    the vacuum reference pulse, as in the experiment.
    """
    big_l = p.cell_length / C_LIGHT
    omega = np.asarray(omega, dtype=float)
    # overflow at extreme gain-length products degrades a point to
    # non-finite entries, which downstream guards turn into absent results
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        direct, alpha, mu_sq = _generator_terms(p, omega, dispersion_mode)
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
        small = np.abs(x) < _SINHC_THRESHOLD
        pref_shc = np.where(small, pref * big_l * (1.0 + x * x / 6.0), pref_shc)
        half_d_shc = 0.5 * direct * pref_shc
        m_cp = -1j * alpha * pref_shc
        return pref_ch - half_d_shc, -m_cp, m_cp, pref_ch + half_d_shc


def entry_bounds(
    p: MediumParams,
    omega,
    dispersion_mode: str = "constant",
):
    """Upper bounds on |m_pp| and |m_cp| (= |m_pc|) at each frequency.

    With g = e^{(|Re mu| - Re d/2) L} and r = min(L, 1/|mu|),

        |m_pp| <= g (1 + |d|/2 r),    |m_cp| <= g |alpha| r,

    because |cosh mu L| and |sinh mu L| are at most e^{|Re mu| L} and
    sinh(mu L)/mu is the integral of cosh(mu s) over [0, L].
    The bounds are non-finite where the entries may overflow.

    Re mu and |mu| come from the real and imaginary parts of mu^2, with no
    complex sqrt and no cancellation (see :func:`_growth_and_reach`).  In
    constant mode eta, Re d and alpha are scalars and only Im d =
    eta (dtilde + w) is an array, so mu^2 is formed in real arithmetic, in
    place; Im d is formed twice rather than kept.
    """
    if np.ndim(omega) == 0:  # one frequency: a length-1 array, worked in place
        return tuple(b[0] for b in entry_bounds(p, np.reshape(omega, 1), dispersion_mode))
    big_l = p.cell_length / C_LIGHT
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        if dispersion_mode != "constant":
            direct, alpha, mu_sq = _generator_terms(p, omega, dispersion_mode)
            abs_d, abs_alpha = np.abs(direct), np.abs(alpha)
            g, r = _growth_and_reach(mu_sq, 0.5 * direct.real, big_l)
        else:
            c = derive_coefficients(p)
            re_d, abs_alpha = c.eta0 * p.gamma_c, c.alpha0
            im_d = np.array(omega, dtype=float)
            im_d += c.delta_tilde
            im_d *= c.eta0
            mu_sq = np.empty(im_d.shape, dtype=complex)  # d^2/4 + alpha^2
            np.multiply(im_d, 0.5 * re_d, out=mu_sq.imag)
            re_mu_sq = np.square(im_d, out=mu_sq.real)
            np.subtract(re_d * re_d, re_mu_sq, out=re_mu_sq)
            re_mu_sq *= 0.25
            re_mu_sq += abs_alpha * abs_alpha
            g, r = _growth_and_reach(mu_sq, 0.5 * re_d, big_l, out=im_d)
            # |d| = sqrt(Re d^2 + Im d^2); Im d^2 overflows only where mu^2 does
            abs_d = np.add(omega, c.delta_tilde, out=mu_sq.imag)
            abs_d *= c.eta0
            np.square(abs_d, out=abs_d)
            abs_d += re_d * re_d
            np.sqrt(abs_d, out=abs_d)
        # g (1 + |d|/2 r) and (g |alpha|) r
        abs_d *= 0.5
        abs_d *= r
        abs_d += 1.0
        abs_d *= g
        g *= abs_alpha
        r *= g
        return abs_d, r


def peak_entry_bounds(p: MediumParams, omega: np.ndarray, dispersion_mode: str = "constant"):
    """Two scalars at or above :func:`entry_bounds` at every frequency of `omega`.

    Constant mode only, and only where every frequency lies beyond 2 Delta_R
    of the two-photon resonance: with y_min = min |dtilde + w| and
    rho = 2 Delta_R / y_min < 1,

        |m_pp| bound <= G (1 + 1/sqrt(1 - rho^2)),
        |m_cp| bound <= G rho / sqrt(1 - rho^2),   G = e^{2 eta0 Delta_R^2 L / y_min}.

    There d/2 = (eta0/2)(gamma_c + i y) with y = dtilde + w, and
    alpha = eta0 Delta_R.  The root mu' = +/-mu whose imaginary part has
    the sign of Im d has Re mu' = |Re mu|, and (mu' - d/2)(mu' + d/2) =
    alpha^2, so |Re mu| - Re d/2 = Re(alpha^2 / (mu' + d/2)) <=
    alpha^2 / |Im d/2| <= 2 eta0 Delta_R^2 / y_min, which bounds g.  Since
    |mu|^2 >= |d/2|^2 - alpha^2 and alpha / |d/2| <= rho, r |d|/2 <=
    1/sqrt(1 - rho^2) and r alpha <= rho/sqrt(1 - rho^2).  Returns None in
    full mode, where eta(w) is complex, and where rho >= 1 or is nan.  An
    empty `omega` has y_min = inf.
    """
    if dispersion_mode != "constant":
        return None
    c = derive_coefficients(p)
    y = np.add(omega, c.delta_tilde)
    y_min = float(np.abs(y, out=y).min()) if y.size else math.inf
    if not 2.0 * c.delta_r < y_min:
        return None
    rho = 2.0 * c.delta_r / y_min
    root = math.sqrt(1.0 - rho * rho)
    exponent = 2.0 * c.eta0 * c.delta_r * c.delta_r * (p.cell_length / C_LIGHT) / y_min
    try:
        growth = math.exp(exponent)  # nan where the exponent is
    except OverflowError:
        growth = math.inf
    return growth * (1.0 + 1.0 / root), growth * rho / root


def _growth_and_reach(mu_sq: np.ndarray, half_re_d, big_l: float, out=None):
    """g = e^{(Re mu - Re d/2) L} and r = min(L, 1/|mu|) from the complex mu^2.

    The principal root has 2 (Re mu)^2 = |mu^2| + Re mu^2, a sum that
    cancels where Re mu^2 < 0.  Since |mu^2|^2 = (Re mu^2)^2 + (Im mu^2)^2,
    it equals (Im mu^2)^2 / (|mu^2| + |Re mu^2|) + Re mu^2 + |Re mu^2|, a
    sum of terms >= 0 that is nan where Re mu^2 = -inf.  `mu_sq`'s
    imaginary part is overwritten; r goes to `out` when given.
    """
    re_mu_sq = mu_sq.real
    abs_mu_sq = np.abs(mu_sq, out=out)
    total = np.abs(re_mu_sq)
    g = np.add(re_mu_sq, total)
    total += abs_mu_sq
    im_part = np.square(mu_sq.imag, out=mu_sq.imag)
    im_part /= total
    g += im_part
    g *= 0.5
    np.sqrt(g, out=g)  # Re mu
    g -= half_re_d
    g *= big_l
    np.exp(g, out=g)
    r = np.sqrt(abs_mu_sq, out=abs_mu_sq)
    np.divide(1.0, r, out=r)
    np.minimum(r, big_l, out=r)
    return g, r


@dataclass(frozen=True)
class AnalyticDelays:
    """Closed-form delay and gain figures at line center (dtilde=0, w=0)."""

    # common delay eta z / 2c (s); also the differential delay in the
    # low-gain limit, where (eta / 2 xi) tanh(xi z / c) -> eta z / 2c
    tau: float
    dtau_locked: float  # differential delay plateau (s)
    peak_gain: float    # intensity gain of the probe at line center


def predict_gain(eta: float, xi: float, gamma_c: float, z: float) -> float:
    """Probe intensity gain at line center through length `z`, for given eta, xi.

    G = exp(-eta gamma_c z/c) [cosh(xi z/c) - (eta gamma_c / 2 xi) sinh(xi z/c)]^2
    """
    if eta <= 0 or xi <= 0 or z < 0 or gamma_c < 0:
        raise GuardError("predict_gain needs eta, xi > 0 and z, gamma_c >= 0")
    if 2.0 * xi <= eta * gamma_c:
        raise GuardError("loss exceeds gain: 2 xi <= eta gamma_c")
    loss_ratio = 0.5 * eta * gamma_c / xi
    big_l = xi * z / C_LIGHT
    try:
        # a Python float, so amp * amp overflows to inf without a numpy warning
        amp = float(math.cosh(big_l) - loss_ratio * math.sinh(big_l))
    except OverflowError:
        amp = math.inf
    gain = math.exp(-eta * gamma_c * z / C_LIGHT) * amp * amp
    if not math.isfinite(gain):
        raise GuardError(f"gain overflows double precision: xi z / c = {big_l:g}")
    return gain


def analytic_delays(p: MediumParams) -> AnalyticDelays:
    """Analytic delay/gain summary, constant-eta form at dtilde=0, w=0.

    Raises :class:`GuardError` from :func:`predict_gain`, which also covers
    2 xi <= eta gamma_c, where the locked differential delay is undefined.
    """
    d = derive_coefficients(p)
    eta = d.eta0
    # sigma = i eta gamma_c / 2 at line center, so xi^2 = alpha^2 + (eta gamma_c/2)^2
    xi = math.hypot(d.alpha0, 0.5 * eta * p.gamma_c)
    peak_gain = predict_gain(eta, xi, p.gamma_c, p.cell_length)
    return AnalyticDelays(
        tau=eta * p.cell_length / (2.0 * C_LIGHT),
        dtau_locked=eta / (2.0 * xi - eta * p.gamma_c),
        peak_gain=peak_gain,
    )


def renormalized_length(gain: float) -> float:
    """Effective propagation length L = arccosh(sqrt(G)) for a gain G >= 1."""
    if not math.isfinite(gain) or gain < 1.0:
        raise GuardError(f"gain must be >= 1 to renormalize, got {gain!r}")
    return math.acosh(math.sqrt(gain))
