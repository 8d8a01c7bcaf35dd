"""Ultraslow matched-pulse propagation in double-lambda four-wave mixing."""

from .coupling import (
    AnalyticDelays,
    analytic_delays,
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
    Propagator,
    PulseMetrics,
    SampledPulse,
    TimeGrid,
    fit_gaussian,
    from_spectrum,
    make_gaussian_pulse,
    pulse_metrics,
    to_spectrum,
)
from .config import Config, parse_config

__version__ = "0.1.0"
