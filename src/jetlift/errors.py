"""Exception hierarchy shared across the package."""


class JetliftError(Exception):
    """Base class for all package-specific errors."""


class ExprError(JetliftError):
    """Problems building or manipulating expressions."""


class ParseError(ExprError):
    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class UnknownIdentifierError(ParseError):
    pass


class EvaluationError(JetliftError):
    """Numeric evaluation failed."""


class SingularPointError(EvaluationError):
    """A denominator fell below the singularity guard."""


class DomainError(EvaluationError):
    """log/sqrt of a negative number, or similar."""


class NonFiniteError(EvaluationError):
    """A value evaluated to inf or nan."""


class OrderOverflowError(JetliftError):
    """A procedural field was asked for a partial it has no rule for: a
    third partial, or a second one of a field given no Hessian."""


class SpaceMismatchError(JetliftError):
    """Operands live on different spaces."""


class TransformError(JetliftError):
    """A coordinate transform is singular or lacks a usable inverse."""


class EigenError(JetliftError):
    """Eigenvalues are complex, clustered, or the block is defective."""


class SamplingError(JetliftError):
    """Too many sample points were rejected by the singularity guard."""


class ModelError(JetliftError):
    """A model file is malformed or misses a required object."""
