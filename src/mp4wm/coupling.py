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
mu^2 without evaluating the entries, and :func:`peak_entry_bounds` bounds
them in closed form on an interval of frequencies.  All three read
Delta_R and dtilde from the medium's ``p.coefficients``.
:func:`transfer_entries` also takes a block of media that share one
``dispersion_mode``, one row each, in one vectorized call.

The Fourier convention is the NumPy one: spectra are obtained with the
e^{-i w t} kernel, so a time delay tau multiplies a spectrum by
e^{-i w tau}.  Under this convention the matrix above yields positive
group delays (common delay eta z / 2c) and physical damping
(exp(-eta gamma_c z / 2c) per field at line center).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, fields
from operator import attrgetter
from types import SimpleNamespace

import numpy as np

from .errors import GuardError
from .params import _NUMERIC_FIELDS, C_LIGHT, DerivedCoefficients, MediumParams, eta_of_omega

# below this |mu L| the sinh(mu L)/mu factor switches to its series
_SINHC_THRESHOLD = 1e-6

# the float fields of a medium, then of its coefficients: a block's columns
_COEFFICIENTS = tuple(f.name for f in fields(DerivedCoefficients))
_floats = attrgetter(*_NUMERIC_FIELDS, *(f"coefficients.{name}" for name in _COEFFICIENTS))


def _block(media) -> SimpleNamespace:
    """A block of k media as one medium whose scalars are (k, 1) columns.

    Each float field of the media and of their coefficients is the column of
    its values, so every expression of them broadcasts to one row per medium,
    with the bits of that medium alone.  The media share one
    ``dispersion_mode``, the string that :func:`eta_of_omega` branches on.
    """
    media = list(media)
    if len({m.dispersion_mode for m in media}) != 1:
        raise GuardError("a block needs one or more media that share one dispersion_mode")
    columns = list(np.array([_floats(m) for m in media], dtype=float).T[:, :, None])
    return SimpleNamespace(
        **dict(zip(_NUMERIC_FIELDS, columns)), dispersion_mode=media[0].dispersion_mode,
        coefficients=SimpleNamespace(**dict(zip(_COEFFICIENTS, columns[len(_NUMERIC_FIELDS):]))))


def _generator_terms(p, omega: np.ndarray):
    """d, alpha and mu^2 = d^2/4 + alpha^2 at each frequency, of a medium or
    of a :func:`_block` (one row per medium).

    Extreme inputs overflow to non-finite values, so callers run this under
    ``np.errstate``.
    """
    d = p.coefficients
    eta = eta_of_omega(p, omega)
    alpha = eta * d.delta_r
    # named, so numpy cannot evaluate `eta * temporary` as `temporary *= eta`
    # once it has 256 KiB: a complex product's rounding depends on the order
    # of its operands, and a block's rows would change with the block's size
    rotation = 1j * (d.delta_tilde + omega) + p.gamma_c
    direct = eta * rotation
    return direct, alpha, 0.25 * direct * direct + alpha * alpha


def transfer_entries(p, omega):
    """Vectorized transfer-matrix entries (m_pp, m_pc, m_cp, m_cc) of exp(N L).

    `omega` may be a scalar or ndarray; entries broadcast with it.  `p` is one
    :class:`MediumParams`, or a block: a sequence of k media that share one
    `dispersion_mode` (else :class:`GuardError`), whose entries have a
    leading axis of length k, row i those of medium i alone to the bit.  The
    vacuum factor e^{-i w L} is left out, so delays are measured against the
    vacuum reference pulse, as in the experiment.
    """
    if not isinstance(p, MediumParams):
        p = _block(p)
    big_l = p.cell_length / C_LIGHT
    omega = np.asarray(omega, dtype=float)
    # overflow at extreme gain-length products degrades a point to
    # non-finite entries, which downstream guards turn into absent results
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        direct, alpha, mu_sq = _generator_terms(p, omega)
        mu = np.sqrt(mu_sq)
        x = mu * big_l
        pref = np.exp(-0.5 * direct * big_l)  # P = e^{-d L/2}
        grow_m1 = np.expm1(x)             # e^{mu L} - 1
        grow = 1.0 + grow_m1              # e^{mu L}
        shrink = 1.0 / grow               # e^{-mu L}
        # e_+ - e_- = P expm1(mu L) (1 + e^{-mu L}) does not cancel as mu L -> 0
        pref_shc = 0.5 * pref * grow_m1 * (shrink + 1.0) / mu
        small = np.abs(x) < _SINHC_THRESHOLD
        if small.any():
            pref_shc = np.where(small, pref * big_l * (1.0 + x * x / 6.0), pref_shc)
        pref = (pref * grow + pref * shrink) * 0.5  # (e_+ + e_-)/2
        # ufunc calls: on numpy scalars `*` rounds otherwise, and a scalar omega keeps its bits
        half_d_shc = np.multiply(0.5 * direct, pref_shc)
        m_cp = np.multiply(-1j * alpha, pref_shc)
        return pref - half_d_shc, -m_cp, m_cp, pref + half_d_shc


def entry_bounds(p: MediumParams, omega: np.ndarray):
    """Upper bounds on |m_pp| and |m_cp| (= |m_pc|) at each frequency of `omega`.

    With g = e^{(|Re mu| - Re d/2) L} and r = min(L, 1/|mu|),

        |m_pp| <= g (1 + |d|/2 r),    |m_cp| <= g |alpha| r,

    because |cosh mu L| and |sinh mu L| are at most e^{|Re mu| L} and
    sinh(mu L)/mu is the integral of cosh(mu s) over [0, L].
    The bounds are non-finite where the entries may overflow.

    Re mu and |mu| come from the real and imaginary parts of mu^2, with no
    complex sqrt.  The principal root has 2 (Re mu)^2 = |mu^2| + Re mu^2, a
    sum that cancels where Re mu^2 < 0.  Since |mu^2|^2 = (Re mu^2)^2 +
    (Im mu^2)^2, it equals (Im mu^2)^2 / (|mu^2| + |Re mu^2|) + Re mu^2 +
    |Re mu^2|, a sum of terms >= 0 that is nan where Re mu^2 = -inf.
    """
    big_l = p.cell_length / C_LIGHT
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        direct, alpha, mu_sq = _generator_terms(p, omega)
        re, abs_re, size = mu_sq.real, np.abs(mu_sq.real), np.abs(mu_sq)
        re_mu = np.sqrt((re + abs_re + np.square(mu_sq.imag) / (abs_re + size)) * 0.5)
        g = np.exp((re_mu - 0.5 * direct.real) * big_l)
        r = np.minimum(1.0 / np.sqrt(size), big_l)
        return (np.abs(direct) * 0.5 * r + 1.0) * g, g * np.abs(alpha) * r


def peak_entry_bounds(p: MediumParams, y_min: float, omega_lo: float, omega_hi: float):
    """Two scalars at or above :func:`entry_bounds` at every frequency w in
    [omega_lo, omega_hi] with |dtilde + w| >= y_min.

    With rho = 2 Delta_R / y_min < 1 and the maxima taken over the interval,

        |m_pp| bound <= G (1 + 1/sqrt(1 - rho^2)),
        |m_cp| bound <= G rho / sqrt(1 - rho^2),
        G = e^{L [max(0, -Re d)_max + 2 Delta_R^2 |eta|_max / y_min]}.

    Write h = (gamma_c + i y)/2 with y = dtilde + w, so d = 2 eta h,
    alpha = eta Delta_R and mu = eta nu with nu^2 = h^2 + Delta_R^2.  The
    root nu0 with Re(nu0 conj(h)) >= 0 has |nu0 + h| >= |h|, so |nu0 - h| =
    Delta_R^2 / |nu0 + h| <= 2 Delta_R^2 / y_min.  Whatever the sign of
    Re(eta nu0), |Re mu| - Re d/2 = |Re(eta nu0)| - Re(eta h) <=
    |eta| |nu0 - h| + max(0, -Re d), which bounds g.  Since |nu|^2 >=
    |h|^2 - Delta_R^2 and Delta_R / |h| <= rho, r |d|/2 <= |h|/|nu| <=
    1/sqrt(1 - rho^2) and r |alpha| <= Delta_R/|nu| <= rho/sqrt(1 - rho^2).

    In constant mode eta = eta0 and -Re d = -eta0 gamma_c <= 0, so
    G = e^{2 eta0 Delta_R^2 L / y_min}.  In full mode eta = g^2 N / D with
    D = u + i Delta_1 gamma_c and u = Omega^2/4 + Delta_1 (delta + w),
    linear in w, so |eta|_max is g^2 N over the smallest |D| on the
    interval, and -Re d = gamma_c (K - 2u) |eta|^2 / g^2 N with
    K = Omega^2/4 + Delta_1 Delta_R is at most
    gamma_c max(0, K - 2 u_min) |eta|_max^2 / g^2 N.  The pair is infinite
    where rho >= 1 or is nan, and where the interval reaches the pole of
    eta(w); it is nan where the exponent is.
    """
    c = p.coefficients
    if not y_min > 2.0 * c.delta_r:
        return math.inf, math.inf
    rho = 2.0 * c.delta_r / y_min
    root = math.sqrt(1.0 - rho * rho)
    shift = 2.0 * c.delta_r * c.delta_r
    if p.dispersion_mode == "constant":
        exponent = shift * c.eta0 / y_min
    else:
        g2n, quarter = p.coupling_g2n, c.quarter_rabi_sq
        u_lo = quarter + p.delta_one * (p.delta_two_photon + omega_lo)
        u_hi = quarter + p.delta_one * (p.delta_two_photon + omega_hi)
        # the smallest |D|^2 on the interval: u^2 is 0 where u changes sign
        den = (min(u_lo * u_lo, u_hi * u_hi) if u_lo * u_hi > 0.0 else 0.0)
        den += (p.delta_one * p.gamma_c) ** 2
        if not den > 0.0:
            return math.inf, math.inf
        loss = max(quarter + p.delta_one * c.delta_r - 2.0 * min(u_lo, u_hi), 0.0)
        exponent = (loss * p.gamma_c * g2n + shift * g2n * math.sqrt(den) / y_min) / den
    try:
        growth = math.exp(exponent * p.cell_length / C_LIGHT)  # nan where the exponent is
    except OverflowError:
        growth = math.inf
    return growth * (1.0 + 1.0 / root), growth * rho / root


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
    d = p.coefficients
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
