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

PROPAGATION_MODES = ("exact", "paper", "relative")
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


@dataclass(frozen=True)
class TransferMatrix:
    """2x2 complex map of (E_p(w,0), E_c*(-w,0)) across the cell."""

    m_pp: complex
    m_pc: complex
    m_cp: complex
    m_cc: complex

    def as_array(self) -> np.ndarray:
        return np.array(
            [[self.m_pp, self.m_pc], [self.m_cp, self.m_cc]], dtype=complex
        )


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
    `"relative"` and `"paper"` drop it, so delays are measured against
    the vacuum reference pulse, as in the experiment.
    """
    if propagation_mode not in PROPAGATION_MODES:
        raise GuardError(f"unknown propagation mode {propagation_mode!r}")
    if z is None:
        z = p.cell_length
    if z < 0:
        raise GuardError("propagation distance must be >= 0")

    omega = np.asarray(omega, dtype=float)
    d = derive_coefficients(p)
    eta = eta_of_omega(p, omega, dispersion_mode)
    alpha = eta * d.delta_r
    direct = eta * (1j * (d.delta_tilde + omega) + p.gamma_c)

    big_l = z / C_LIGHT
    # overflow at extreme gain-length products degrades a point to
    # non-finite entries, which downstream guards turn into absent results
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        mu = np.sqrt(0.25 * direct * direct + alpha * alpha)
        x = mu * big_l
        ch = np.cosh(x)
        # sinh(mu L)/mu, series-protected near mu L = 0
        small = np.abs(x) < _SINHC_THRESHOLD
        shc = np.where(
            small, big_l * (1.0 + x * x / 6.0), np.sinh(x) / np.where(small, 1.0, mu)
        )
        pref = np.exp(-0.5 * direct * big_l)
        if propagation_mode == "exact":
            pref = pref * np.exp(-1j * omega * big_l)

        m_pp = pref * (ch - 0.5 * direct * shc)
        m_pc = pref * (1j * alpha * shc)
        m_cp = pref * (-1j * alpha * shc)
        m_cc = pref * (ch + 0.5 * direct * shc)
    return m_pp, m_pc, m_cp, m_cc


def transfer_matrix(
    p: MediumParams,
    omega: float,
    z: float | None = None,
    propagation_mode: str = "relative",
    dispersion_mode: str = "constant",
) -> TransferMatrix:
    """Transfer matrix at one frequency. See :func:`transfer_entries`."""
    m_pp, m_pc, m_cp, m_cc = transfer_entries(
        p, omega, z, propagation_mode, dispersion_mode
    )
    return TransferMatrix(
        m_pp=complex(m_pp), m_pc=complex(m_pc), m_cp=complex(m_cp), m_cc=complex(m_cc)
    )


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
