"""Exception hierarchy for fiberbeta.

Two kinds of failure are kept apart throughout the package: *structural*
problems with the data we were handed (unknown component ids, asymmetric
intersection maps, floats where exact rationals are required) raise
exceptions from this module, while *mathematical* inconsistencies in a
well-formed fiber (broken fiber relation, wrong genus) are reported as
failed validation checks, never as exceptions.
"""


class FiberBetaError(Exception):
    """Base class for all package-specific errors."""


class MalformedInput(FiberBetaError):
    """Structurally invalid data: unknown ids, asymmetric maps, bad shapes."""


class SchemaError(MalformedInput):
    """A fiber document violates the schema; message carries the JSON path."""


class ExactnessError(SchemaError):
    """A float literal appeared where an exact rational is required."""


class SingularBeyondKernel(FiberBetaError):
    """The intersection matrix has rank < r-1; the fiber is disconnected."""


class DegreeMismatch(FiberBetaError):
    """Incidence numbers do not sum to the declared degree."""


class FiberMismatch(FiberBetaError):
    """Operands belong to different fibers."""


class WorkLimitExceeded(FiberBetaError):
    """Eliminating the intersection matrix would take more work than the limit."""


class NonpositiveDegree(FiberBetaError):
    """An operation requiring positive degree was given degree <= 0."""


class NotReduced(FiberBetaError):
    """A closed form valid only for reduced fibers was applied elsewhere."""


class InvalidParams(FiberBetaError):
    """Catalog generator parameters violate the generator's hypotheses."""


class InvalidGenus(InvalidParams):
    """The requested configuration has genus <= 1."""


class InvalidN(InvalidParams):
    """The level N does not satisfy the modular-curve hypotheses."""


class NotADivisor(InvalidParams):
    """The given prime does not divide the level N."""


class SelfCheckFailed(FiberBetaError):
    """A constructor's built-in verification of reference equations failed."""
