"""Exception types shared across the package."""

__all__ = [
    "FastDiffusionError",
    "NotSelfAdjoint",
    "NotNegativeDefinite",
    "ZeroNoiseMode",
    "InvalidExponent",
    "NonFiniteState",
    "InvalidP",
    "ZeroHorizon",
    "InvalidSampleCount",
    "NotTimeHomogeneous",
    "PositiveGamma",
    "SchemaError",
]


class FastDiffusionError(Exception):
    """Base class for all package-specific errors."""


class NotSelfAdjoint(FastDiffusionError):
    """Operator is not self-adjoint with respect to the weighted inner product."""


class NotNegativeDefinite(FastDiffusionError):
    """Operator has a nonnegative eigenvalue, so -L is not strictly positive."""


class ZeroNoiseMode(FastDiffusionError):
    """A diagonal noise amplitude is zero; every mode must be driven."""


class InvalidExponent(FastDiffusionError):
    """Norm or power exponent outside its admissible range."""


class NonFiniteState(FastDiffusionError):
    """A state vector picked up a NaN or infinity during integration."""


class InvalidP(FastDiffusionError):
    """Integrability exponent p must satisfy p > 1."""


class ZeroHorizon(FastDiffusionError):
    """Time horizon T must be strictly positive."""


class InvalidSampleCount(FastDiffusionError):
    """Path or sample count outside its admissible range."""


class NotTimeHomogeneous(FastDiffusionError):
    """Operation requires constant-in-time coefficients."""


class PositiveGamma(FastDiffusionError):
    """Operation requires gamma <= 0."""


class SchemaError(FastDiffusionError):
    """Configuration failed schema validation; message lists every violation."""
