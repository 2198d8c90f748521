"""Exception types shared across the package."""


class GTLabError(Exception):
    """Base class for all package errors."""


class DomainViolation(GTLabError):
    """An evaluation disc or path intersects a declared singular locus."""


class NonConvergence(GTLabError):
    """A quadrature or extrapolation failed its self-consistency check."""


class SamplingExhausted(GTLabError):
    """Rejection sampling could not place the requested points."""


class InvalidModulus(GTLabError):
    """A modular parameter with non-positive imaginary part was supplied."""


class PoleHit(GTLabError):
    """Evaluation requested too close to a pole."""


class NoClosedForm(GTLabError):
    """A partial with no closed form: no ``partial_fn``, or one that declines it."""


class ConfigError(GTLabError):
    """A job configuration failed schema validation."""
