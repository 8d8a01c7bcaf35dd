"""Ultraslow matched-pulse propagation in double-lambda four-wave mixing."""

from .coupling import (
    AnalyticDelays,
    CouplingCoefficients,
    analytic_delays,
    coefficients_at,
    renormalized_length,
    transfer_entries,
)
from .errors import (
    AliasingError,
    ConfigError,
    ContainmentError,
    FitError,
    GuardError,
    Mp4wmError,
)
from .experiments import (
    PulseConfig,
    ScanRecord,
    SingleRunResult,
    infer_eta_xi,
    predict_gain,
    run_single,
    scan,
)
from .params import (
    DerivedCoefficients,
    MediumParams,
    ModelValidityWarning,
    derive_coefficients,
    eta_of_omega,
)
from .pulses import (
    GaussianFit,
    PropagationResult,
    PulseMetrics,
    SampledPulse,
    TimeGrid,
    fit_gaussian,
    from_spectrum,
    make_gaussian_pulse,
    propagate_pulse,
    pulse_metrics,
    to_spectrum,
)
from .config import Config, parse_config

__version__ = "0.1.0"
