"""Exception types shared across the package."""


class GTLabError(Exception):
    """Base class for all package errors."""


class DomainViolation(GTLabError):
    """An evaluation point or circle meets a singular locus: a non-finite
    argument or circle sample, or a divisor that vanishes (g_1 in the march,
    a reconstruction denominator)."""


class NonConvergence(GTLabError):
    """A self-consistency check failed: a Gauss-Legendre rule that Halley's
    passes cannot certify, a hydro rank that moves under sample doubling or a
    basis expansion off its held-out points, or a march ratio with a zero
    fine-grid residual."""


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
