import math

import numpy as np

from mp4wm.coupling import transfer_entries
from mp4wm.params import MediumParams
from mp4wm.pulses import Propagator, TimeGrid

MHZ = 2.0 * math.pi * 1e6
C = 299792458.0


def make_params(
    eta0=960.0,
    omega_mhz=420.0,
    delta_mhz=4000.0,
    delta1_mhz=0.0,
    gamma_mhz=6.0,
    gamma_c_frac=0.0,
    z=0.025,
    delta2_mhz=None,
    dispersion_mode="constant",
):
    """Reference parameter set; delta2 defaults to the light shift."""
    omega_rabi = omega_mhz * MHZ
    delta_raman = delta_mhz * MHZ
    if delta2_mhz is None:
        # bit-identical to the derived light shift so dtilde is exactly 0
        delta_two_photon = omega_rabi**2 / (4.0 * delta_raman)
    else:
        delta_two_photon = delta2_mhz * MHZ
    return MediumParams(
        omega_rabi=omega_rabi,
        delta_raman=delta_raman,
        delta_one=delta1_mhz * MHZ,
        delta_two_photon=delta_two_photon,
        gamma=gamma_mhz * MHZ,
        gamma_c=gamma_c_frac * gamma_mhz * MHZ,
        coupling_g2n=eta0 * omega_rabi**2 / 4.0,
        cell_length=z,
        dispersion_mode=dispersion_mode,
    )


def transfer_array(p, omega, z=None):
    """:func:`transfer_entries` at one frequency as [[m_pp, m_pc], [m_cp, m_cc]].

    `z`, when given, replaces the cell length of `p`.
    """
    if z is not None:
        p = p.replace(cell_length=z)
    return np.array(transfer_entries(p, omega)).reshape(2, 2)


def gaussian_propagator(*, fwhm=70e-9, window=2e-6, n_samples=4096, center=0.0,
                        propagation_mode="relative"):
    """:meth:`Propagator.gaussian` of an input on its own grid, by default the
    config's 70 ns pulse."""
    grid = TimeGrid.centered(window, n_samples, center)
    return Propagator.gaussian(grid, fwhm, center, propagation_mode)
