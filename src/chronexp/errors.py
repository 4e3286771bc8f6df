"""Exception types shared across the engine."""


class ChronexpError(Exception):
    """Base class for all engine errors."""


class InputError(ChronexpError):
    """Base for errors caused by malformed user input (text or documents)."""

    def __init__(self, message: str, span=None):
        super().__init__(message)
        self.span = span


class ParseError(InputError):
    """Expression text violates the surface grammar."""


class UnknownIdentifier(InputError):
    """An identifier is not declared by the problem context."""


class MixedDerivativeOrderTooHigh(InputError):
    """A jet's total derivative order exceeds the configured cap."""


class SchemaError(InputError):
    """A problem document has missing, unknown, or wrongly-typed keys."""


class ValidationError(InputError):
    """A structurally well-formed problem document is semantically invalid."""


class DivisionByZero(ChronexpError):
    """Constant folding hit a zero denominator."""


class UnsupportedFunction(ChronexpError):
    """A function name is not in the elementary-function table."""


class UnboundSymbol(ChronexpError):
    """Numeric evaluation met a symbol with no binding."""


class DomainError(ChronexpError):
    """Numeric evaluation left a function's real domain (ln, sqrt, 0**-n)."""


class ExpressionBlowup(ChronexpError):
    """A result exceeded its term-count budget or is too long to print."""


class NonPolynomialRhs(ChronexpError):
    """An operation requiring polynomial structure met a non-polynomial expression."""


class NonFiniteValue(ChronexpError):
    """A numeric integration produced inf or nan (solution blow-up)."""
