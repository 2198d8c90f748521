"""Numerical laboratory for GT structures and Whitham-type hierarchies.

The package builds the two-point/vector-field data of a GT structure on
concrete genus-0/1/2 geometries, verifies the defining identities by
seeded sampling, and exercises the constructive machinery: adding and
colliding punctures, coordinate pushforwards, conversion to quasilinear
Gibbons-Tsarev systems, hydrodynamic extraction, reconstruction of the
structure from its potentials, and period-matrix variational checks.
"""

__version__ = "0.1.0"

from .core import (
    EnhancedGT,
    GTStructure,
    Potential,
    VerificationReport,
    verify_all,
    verify_bracket,
    verify_cocycle,
    verify_lambda,
    verify_pole,
    verify_potential,
)
from .errors import (
    ConfigError,
    DomainViolation,
    GTLabError,
    InvalidModulus,
    NoClosedForm,
    NonConvergence,
    PoleHit,
    SamplingExhausted,
)
from .kernel import Domain, JetEvaluator, SplitMix64

__all__ = [
    "__version__",
    "EnhancedGT",
    "GTStructure",
    "Potential",
    "VerificationReport",
    "verify_all",
    "verify_bracket",
    "verify_cocycle",
    "verify_lambda",
    "verify_pole",
    "verify_potential",
    "GTLabError",
    "ConfigError",
    "DomainViolation",
    "InvalidModulus",
    "NoClosedForm",
    "NonConvergence",
    "PoleHit",
    "SamplingExhausted",
    "Domain",
    "JetEvaluator",
    "SplitMix64",
]
