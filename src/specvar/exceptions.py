"""Exception hierarchy shared by all specvar modules."""


class SpecvarError(Exception):
    """Base class for all errors raised by this package."""


class DimensionError(SpecvarError, ValueError):
    """Matrix or spectrum shapes are incompatible with the operation."""


class NonFiniteError(SpecvarError, ValueError):
    """Input contains NaN or Inf entries."""


class SingularMatrixError(SpecvarError, ValueError):
    """A matrix required to be nonsingular is (numerically) singular."""


class SizeLimitError(SpecvarError, ValueError):
    """Input exceeds the documented desk-scale size limit of an operation."""


class DomainError(SpecvarError, ValueError):
    """A scalar argument lies outside its admissible range."""


class NotApplicableError(SpecvarError, ValueError):
    """The operation's precondition excludes this input (use the documented
    alternative path instead)."""


class EigensolverError(SpecvarError, RuntimeError):
    """The underlying eigenvalue iteration failed to converge."""


class ConfigError(SpecvarError, ValueError):
    """A sweep or instance configuration is invalid or infeasible."""


class ParseError(SpecvarError, ValueError):
    """A file could not be parsed; carries the offending field path."""

    def __init__(self, message, field=""):
        super().__init__(f"{message} (at {field})" if field else message)
        self.field = field
