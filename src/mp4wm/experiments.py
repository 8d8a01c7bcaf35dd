"""Model-level reproductions of the experiments and the inverse analysis.

One scan engine covers three axes: two-photon detuning, density (pseudo
propagation distance) and pump Rabi frequency.  Each scan point runs the
full pulse pipeline and is summarized in a :class:`ScanRecord`; a failing
point is recorded with absent fields and its error instead of aborting the
scan.
"""
from __future__ import annotations

import collections
import math
import warnings
from collections.abc import Callable
from dataclasses import dataclass

from .coupling import predict_gain, renormalized_length
from .errors import GuardError
from .params import C_LIGHT, MediumParams, raman_bandwidth
from .pulses import PropagationResult, Propagator, PulseMetrics, pulse_metrics

_ZERO_CONJUGATE_ENERGY = 1e-30  # relative to reference energy


@dataclass(frozen=True)
class SingleRunResult:
    traces: PropagationResult
    probe_metrics: PulseMetrics
    conjugate_metrics: PulseMetrics | None  # None when no conjugate is generated


@dataclass(frozen=True)
class ScanRecord:
    """One row of a scan output; absent fields are None."""

    var: float
    gain_peak: float | None = None
    gain_energy: float | None = None
    probe_delay: float | None = None
    conj_delay: float | None = None
    differential_delay: float | None = None
    probe_broadening: float | None = None
    conj_broadening: float | None = None
    renorm_length: float | None = None
    inferred_eta: float | None = None
    inferred_xi: float | None = None
    predicted_gain: float | None = None
    approx_valid: bool = True  # dtilde << 2 Delta_R flag, not serialized
    # class name and message of the GuardError that blanked the point, not serialized
    error: tuple[str, str] | None = None


def run_single(p: MediumParams,
               propagate: Callable[[MediumParams], PropagationResult]) -> SingleRunResult:
    """Propagate one probe pulse through `p` and measure it like the experiment."""
    traces = propagate(p)
    probe_m = pulse_metrics(traces.reference, traces.probe)
    conj_m = None
    if traces.conjugate.energy > _ZERO_CONJUGATE_ENERGY * traces.reference.energy:
        conj_m = pulse_metrics(traces.reference, traces.conjugate)
    return SingleRunResult(
        traces=traces, probe_metrics=probe_m, conjugate_metrics=conj_m
    )


def infer_eta_xi(
    conj_delay: float, differential_delay: float, z: float, gamma_c: float
) -> tuple[float, float]:
    """Invert the delay formulas: eta from tau, xi from the locked dtau.

    Valid in the large-gain, small-gamma_c limit where the conjugate
    delay equals eta z / 2c and the differential delay has locked to
    eta / (2 xi - eta gamma_c).
    """
    if conj_delay <= 0 or differential_delay <= 0:
        raise GuardError("delays must be > 0 to invert")
    if z <= 0:
        raise GuardError("z must be > 0 to invert")
    eta = 2.0 * C_LIGHT * conj_delay / z
    xi = 0.5 * eta * (1.0 / differential_delay + gamma_c)
    return eta, xi


def _record_for(p: MediumParams, var: float,
                propagate: Callable[[MediumParams], PropagationResult]) -> ScanRecord:
    d = p.coefficients
    approx_valid = abs(d.delta_tilde) <= 2.0 * d.delta_r
    try:
        res = run_single(p, propagate)
    except GuardError as exc:
        return ScanRecord(var=var, approx_valid=approx_valid,
                          error=(type(exc).__name__, str(exc)))

    pm = res.probe_metrics
    cm = res.conjugate_metrics
    dtau = eta_i = xi_i = gain_pred = None
    if cm is not None:
        dtau = pm.delay_vs_reference - cm.delay_vs_reference
        try:
            eta_i, xi_i = infer_eta_xi(
                cm.delay_vs_reference, dtau, p.cell_length, p.gamma_c
            )
            gain_pred = predict_gain(eta_i, xi_i, p.gamma_c, p.cell_length)
        except GuardError:
            eta_i = xi_i = None
    return ScanRecord(
        var=var,
        gain_peak=pm.gain_peak,
        gain_energy=pm.gain_energy,
        probe_delay=pm.delay_vs_reference,
        conj_delay=cm.delay_vs_reference if cm else None,
        differential_delay=dtau,
        probe_broadening=pm.broadening_fraction,
        conj_broadening=cm.broadening_fraction if cm else None,
        renorm_length=(
            renormalized_length(pm.gain_peak) if pm.gain_peak >= 1.0 else None
        ),
        inferred_eta=eta_i,
        inferred_xi=xi_i,
        predicted_gain=gain_pred,
        approx_valid=approx_valid,
    )


DELTA_POLICIES = ("track", "fixed")


def _pump_point(p: MediumParams, rabi: float, delta_policy: str) -> MediumParams:
    if delta_policy == "fixed":
        return p.replace(omega_rabi=rabi)
    try:  # delta at the new light shift, so dtilde = 0
        shift = raman_bandwidth(rabi, p.delta_raman)
    except OverflowError:  # MediumParams rejects this Omega and says why
        shift = math.inf
    return p.replace(omega_rabi=rabi, delta_two_photon=shift)


# scan axis -> medium at one scan value (SI units) under a delta policy
_AXES = {
    "delta": lambda p, v, policy: p.replace(delta_two_photon=v),
    "density": lambda p, v, policy: p.scaled_density(v),
    "pump": _pump_point,
}


def scan(
    p: MediumParams,
    axis: str,
    values,
    propagate: Propagator,
    delta_policy: str = "track",
) -> list[ScanRecord]:
    """Run one pulse per scan value; records follow the order of `values`.

    `axis="delta"` sets the two-photon detuning (rad/s), `"density"`
    multiplies g^2 N by the value and `"pump"` sets the Rabi frequency
    (rad/s).  For the pump axis, `delta_policy="track"` makes the
    two-photon detuning follow the moving light shift (dtilde pinned to
    0) and `"fixed"` keeps the configured value.  Every point propagates
    the one input of `propagate`; the recorded var is the scan value as given.
    One warning names the points past the line-center approximation, and
    how many points are blank, by error class, with the first one's message
    and its point number, counted from 1 in the order of `values`.
    """
    if axis not in _AXES:
        raise GuardError(f"unknown scan axis {axis!r}")
    if delta_policy not in DELTA_POLICIES:
        raise GuardError(f"unknown delta policy {delta_policy!r}")
    point_at = _AXES[axis]
    values = [float(v) for v in values]
    media = [point_at(p, v, delta_policy) for v in values]
    # map keeps no call past its record, so no block's rows outlive their block
    records = list(map(_record_for, media, values, propagate.each(media)))
    clauses = [] if all(r.approx_valid for r in records) else [
        "some scan points have |dtilde| > 2 Delta_R where the line-center "
        "approximation breaks down"]
    counts, firsts = collections.Counter(), {}  # by error class, in order of first point
    for number, r in enumerate(records, 1):
        if r.error is not None:
            name, message = r.error
            counts[name] += 1
            firsts.setdefault(name, f"{message}, first at point {number}")
    if counts:
        groups = "; ".join(f"{name} {n}: {firsts[name]}" for name, n in counts.items())
        clauses.append(f"{counts.total()} of {len(records)} points blank ({groups})")
    if clauses:
        warnings.warn("; ".join(clauses), stacklevel=2)
    return records
