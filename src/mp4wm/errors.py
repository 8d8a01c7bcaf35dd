"""Exception hierarchy shared across the package.

Config problems and numerical guard failures map to distinct CLI exit
codes (2 and 3), so they get distinct base classes.
"""


class Mp4wmError(Exception):
    """Base class for all package errors."""


class ConfigError(Mp4wmError):
    """Invalid configuration text or parameter combination."""


class GuardError(Mp4wmError):
    """A numerical pre/post-condition guard failed."""


class ContainmentError(GuardError):
    """Pulse intensity does not vanish at the edges of the time window."""


class AliasingError(GuardError):
    """Spectral content touches the edge of the frequency grid."""


class FitError(GuardError):
    """Gaussian pulse fit could not be performed."""
