"""Acceptance gate: nine criteria, one PASS/FAIL line each.

Run with `pytest -s tests/test_acceptance.py` to see the lines as they
print; each criterion is also an ordinary assertion so the suite fails
loudly when one is violated.
"""
import json
import math

import numpy as np
import pytest

from mp4wm.cli import main
from mp4wm.coupling import (
    analytic_delays,
    coefficients_at,
    renormalized_length,
    transfer_entries,
)
from mp4wm.experiments import (
    PulseConfig,
    infer_eta_xi,
    run_single,
    scan,
)
from mp4wm.params import derive_coefficients
from mp4wm.pulses import (
    SampledPulse,
    TimeGrid,
    fit_gaussian,
    make_gaussian_pulse,
    propagate_pulse,
)

from _oracles import ivp_transfer
from conftest import C, MHZ, make_params, transfer_array

DERIVE_CONFIG = """\
omega_rabi_mhz = 420
delta_raman_mhz = 4000
delta_two_photon_mhz = 11.025
eta0 = 960
gamma_c_over_gamma = 0
cell_length_cm = 2.5
"""


def _report(number: int, label: str, ok: bool, detail: str):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number} {label}: {status} ({detail})")
    assert ok, f"acceptance criterion {number} failed: {detail}"


def _xi0(p):
    return abs(coefficients_at(p, 0.0).xi)


def test_acceptance_1_light_shift(tmp_path, capsys):
    cfg = tmp_path / "a1.cfg"
    cfg.write_text(DERIVE_CONFIG)
    assert main(["derive", "--config", str(cfg)]) == 0
    out = json.loads(capsys.readouterr().out)
    shift = out["light_shift_mhz"]
    ok = shift == pytest.approx(11.025, rel=1e-6) and abs(shift / 11.0 - 1.0) <= 0.05
    with capsys.disabled():
        _report(1, "light shift 11 MHz", ok, f"derived {shift:.4g} MHz")


def test_acceptance_2_differential_delay(capsys):
    p = make_params(gamma_c_frac=0.0)
    dtau = analytic_delays(p).dtau_locked
    expected = 2.0 * p.delta_raman / p.omega_rabi**2
    ok = (
        dtau == pytest.approx(expected, rel=1e-9)
        and dtau == pytest.approx(7.22e-9, abs=0.01e-9)
        and abs(dtau / 7e-9 - 1.0) <= 0.10
    )
    with capsys.disabled():
        _report(2, "locked differential delay 7 ns", ok, f"{dtau * 1e9:.3g} ns")


def test_acceptance_3_saturation(capsys):
    p = make_params()
    sat = derive_coefficients(p).saturation_rabi / MHZ
    expect = 2.0 * math.sqrt(4000.0 * 6.0)  # MHz
    ok = sat == pytest.approx(expect, rel=1e-9) and abs(sat / 300.0 - 1.0) <= 0.05
    with capsys.disabled():
        _report(3, "saturation pump 300 MHz", ok, f"{sat:.4g} MHz")


def test_acceptance_4_slowdown(capsys):
    p = make_params(gamma_c_frac=0.0)
    res = run_single(p, PulseConfig())
    delay = res.conjugate_metrics.delay_vs_reference
    slowdown = C * delay / p.cell_length
    ok = abs(delay - 40e-9) <= 0.5e-9 and abs(round(slowdown / 100) * 100 / 500 - 1) <= 0.05
    with capsys.disabled():
        _report(
            4,
            "conjugate delay 40 ns / slowdown 500",
            ok,
            f"delay {delay * 1e9:.3g} ns, slowdown {slowdown:.0f}",
        )


def test_acceptance_5_matched_pulse_locking(capsys):
    p = make_params(gamma_c_frac=0.0)
    base_l = _xi0(p) * p.cell_length / C
    targets = np.linspace(0.1, 5.0, 50)
    records = scan(p, "density", targets / base_l, PulseConfig())
    ells = np.array([
        _xi0(p.scaled_density(s)) * p.cell_length / C for s in targets / base_l
    ])

    order_ok = all(r.conj_delay < r.probe_delay for r in records)

    i02 = int(np.argmin(np.abs(ells - 0.2)))
    ratio = records[i02].probe_delay / records[i02].conj_delay
    ratio_ok = abs(ratio - 2.0) <= 0.1

    d = derive_coefficients(p)
    plateau = d.eta0 / (2.0 * _xi0(p) - d.eta0 * p.gamma_c)
    plateau_ok = all(
        abs(r.differential_delay / plateau - 1.0) <= 0.05
        for r, ell in zip(records, ells)
        if ell >= 3.0
    )

    half = 0.5 * plateau
    crossing_gain = None
    for prev, curr in zip(records, records[1:]):
        if prev.differential_delay < half <= curr.differential_delay:
            crossing_gain = curr.gain_peak
            break
    cross_ok = crossing_gain is not None and 2.0 / 1.5 <= crossing_gain <= 2.0 * 1.5

    ok = order_ok and ratio_ok and plateau_ok and cross_ok
    with capsys.disabled():
        _report(
            5,
            "matched-pulse ordering and delay locking",
            ok,
            f"ordering {order_ok}, ratio@L=0.2 {ratio:.3f}, "
            f"plateau within 5% {plateau_ok}, half-plateau gain {crossing_gain:.3f}",
        )


def test_acceptance_6_distortion_bound(capsys):
    base = make_params(gamma_c_frac=0.0)
    best = None
    for eta_scale in (0.85, 1.0, 1.15):
        p = base.scaled_density(eta_scale)
        res = run_single(p, PulseConfig())
        pm = res.probe_metrics
        cand = (pm.fractional_delay, pm.broadening_fraction, eta_scale)
        if pm.broadening_fraction <= 0.10 and (best is None or cand[0] > best[0]):
            best = cand
    ok = best is not None and best[0] >= 0.5
    detail = (
        f"fractional delay {best[0]:.3f}, broadening {best[1] * 100:.2f}% "
        f"at density scale {best[2]:g}"
        if best
        else "no candidate met the broadening bound"
    )
    with capsys.disabled():
        _report(6, "fractional delay >= 0.5 with <= 10% broadening", ok, detail)


def test_acceptance_7_oracle_equivalence(capsys):
    rng = np.random.default_rng(2026)
    worst = 0.0
    draws = 0
    while draws < 100:
        p = make_params(
            eta0=float(rng.uniform(50.0, 3000.0)),
            omega_mhz=float(rng.uniform(150.0, 800.0)),
            delta_mhz=float(rng.uniform(1000.0, 8000.0)),
            gamma_c_frac=float(rng.uniform(0.0, 1.0)),
            delta2_mhz=float(rng.uniform(0.0, 30.0)),
        )
        omega = float(rng.uniform(-1.0, 1.0)) * 2.0 * derive_coefficients(p).delta_r
        z = float(rng.uniform(0.2, 1.5)) * p.cell_length
        if abs(coefficients_at(p, omega).xi) * z / C > 10.0:
            continue
        draws += 1
        closed = transfer_array(p, omega, z, propagation_mode="exact")
        oracle = ivp_transfer(p, omega, z)
        worst = max(
            worst,
            float(np.max(np.abs(closed - oracle)) / np.max(np.abs(oracle))),
        )
    ok = worst <= 1e-6
    with capsys.disabled():
        _report(
            7, "closed form vs ODE oracle, 100 draws", ok, f"worst rel err {worst:.2e}"
        )


def test_acceptance_8_invariant_suite(capsys):
    grid = TimeGrid.centered(2048e-9, 4096)
    checks = {}

    # Manley-Rowe at gamma_c = 0: |m_pp|^2 - |m_cp|^2 == 1 across frequencies
    p0 = make_params(gamma_c_frac=0.0)
    m_pp, _, m_cp, _ = transfer_entries(p0, grid.omegas)
    checks["manley_rowe"] = float(
        np.max(np.abs(np.abs(m_pp) ** 2 - np.abs(m_cp) ** 2 - 1.0))
    ) <= 1e-10

    # semigroup: M(z1 + z2) == M(z2) M(z1)
    p = make_params(gamma_c_frac=0.5)
    w = 2.0 * math.pi * 3e6
    z1, z2 = 0.008, 0.011
    whole = transfer_array(p, w, z1 + z2)
    split = transfer_array(p, w, z2) @ transfer_array(p, w, z1)
    checks["semigroup"] = float(
        np.max(np.abs(whole - split)) / np.max(np.abs(whole))
    ) <= 1e-12

    # branch invariance: every matrix entry is an even function of mu
    c = coefficients_at(p, w)
    dcoef = derive_coefficients(p)
    direct = dcoef.eta0 * (1j * (dcoef.delta_tilde + w) + p.gamma_c)
    big_l = p.cell_length / C
    mu = np.sqrt(0.25 * direct**2 + c.alpha**2 + 0j)

    def manual(mu_b):
        pref = np.exp(-0.5 * direct * big_l)
        ch = np.cosh(mu_b * big_l)
        shc = np.sinh(mu_b * big_l) / mu_b
        return np.array(
            [
                [pref * (ch - 0.5 * direct * shc), pref * 1j * c.alpha * shc],
                [pref * -1j * c.alpha * shc, pref * (ch + 0.5 * direct * shc)],
            ]
        )

    checks["branch_invariance"] = bool(
        np.allclose(manual(mu), manual(-mu), rtol=1e-12, atol=0)
        and np.allclose(manual(mu), transfer_array(p, w), rtol=1e-10)
    )

    # determinant-trace identity: det M == exp(-d L), tr M == 2 e^{-dL/2} cosh(mu L)
    m = transfer_array(p, w)
    det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
    tr = m[0, 0] + m[1, 1]
    det_ok = abs(det - np.exp(-direct * big_l)) / abs(det) <= 1e-10
    tr_ok = (
        abs(tr - 2.0 * np.exp(-0.5 * direct * big_l) * np.cosh(mu * big_l)) / abs(tr)
        <= 1e-10
    )
    checks["det_trace"] = bool(det_ok and tr_ok)

    # linearity and shift covariance of the pulse pipeline
    pulse = make_gaussian_pulse(grid, 70e-9)
    s = 0.6 - 0.8j
    r1 = propagate_pulse(p, pulse)
    r2 = propagate_pulse(p, SampledPulse(grid, s * np.asarray(pulse.envelope)))
    checks["linearity"] = bool(
        np.allclose(r2.probe.envelope, s * np.asarray(r1.probe.envelope), rtol=1e-12)
    )
    shifted = make_gaussian_pulse(grid, 70e-9, center=64e-9)
    r3 = propagate_pulse(p, shifted)
    n_shift = round(64e-9 / grid.t_step)
    checks["shift_covariance"] = bool(
        np.allclose(
            np.roll(np.asarray(r1.probe.envelope), n_shift),
            np.asarray(r3.probe.envelope),
            rtol=0,
            atol=1e-9 * float(np.max(np.abs(r1.probe.envelope))),
        )
    )

    # simulate -> fit -> infer roundtrip within 2% at xi z / c >= 3
    pr = make_params(gamma_c_frac=0.01)
    assert abs(coefficients_at(pr, 0.0).xi) * pr.cell_length / C >= 3.0
    res = run_single(pr, PulseConfig())
    dtau = (
        res.probe_metrics.delay_vs_reference
        - res.conjugate_metrics.delay_vs_reference
    )
    eta_i, xi_i = infer_eta_xi(
        res.conjugate_metrics.delay_vs_reference, dtau, pr.cell_length, pr.gamma_c
    )
    checks["fit_infer_roundtrip"] = (
        abs(eta_i / derive_coefficients(pr).eta0 - 1.0) <= 0.02
        and abs(xi_i / abs(coefficients_at(pr, 0.0).xi) - 1.0) <= 0.02
    )

    ok = all(checks.values())
    with capsys.disabled():
        _report(
            8,
            "invariant suite",
            ok,
            ", ".join(f"{k}={'ok' if v else 'FAIL'}" for k, v in checks.items()),
        )


def test_acceptance_9_renormalized_length(capsys):
    p = make_params(gamma_c_frac=0.0).scaled_density(0.3)
    cfg = PulseConfig(fwhm=400e-9, window=8192e-9, n_samples=8192)
    res = run_single(p, cfg)
    gain = res.probe_metrics.gain_peak
    ell = renormalized_length(gain)
    ell_direct = _xi0(p) * p.cell_length / C
    ok = gain == pytest.approx(math.cosh(ell_direct) ** 2, rel=0.03) and ell == pytest.approx(
        ell_direct, abs=0.05
    )
    with capsys.disabled():
        _report(
            9,
            "G = cosh^2(L) consistency",
            ok,
            f"gain {gain:.4f}, L {ell:.4f} vs xi z/c {ell_direct:.4f}",
        )
