"""Exception hierarchy shared across the package."""


class LsaError(Exception):
    """Base class for all package errors."""


class DomainMismatch(LsaError):
    """Two scalars live in incompatible domains and cannot be promoted."""


class DivisionByZero(LsaError, ZeroDivisionError):
    pass


class UnboundVariable(LsaError):
    """Scalar text that does not parse or names an unknown parameter; pos,
    when set, is the offset in the text of the token it stopped at."""

    def __init__(self, message, pos=None):
        super().__init__(message)
        self.pos = pos


class DenominatorVanishes(LsaError):
    """A substitution makes a rational-function denominator zero."""


class DegreeTooHigh(LsaError):
    pass


class DimensionMismatch(LsaError):
    pass


class NotDimension3(LsaError):
    pass


class NotBijective(LsaError):
    pass


class NotCocycle(LsaError):
    """The representation or cocycle identities fail; cert says where."""

    def __init__(self, message, cert=None):
        super().__init__(message)
        self.cert = cert


class NotLeftSymmetric(LsaError):
    pass


class NotLieAlgebra(LsaError):
    """A bracket table that is not antisymmetric or breaks Jacobi."""


class SingularWitness(LsaError):
    pass


class NotAutomorphism(LsaError):
    pass


class ZeroAlgebra(LsaError):
    pass


class NotCommutativeAssociative(LsaError):
    pass


class NotDerivation(LsaError):
    pass


class CybeFails(LsaError):
    pass


class NotOOperator(LsaError):
    pass


class UnknownId(LsaError):
    pass


class ConstraintViolated(LsaError):
    pass


class InternalError(LsaError):
    """A self-check of the library failed: a bug, not a fault of the input."""


class DocSyntaxError(LsaError):
    """Malformed document text; carries line/column."""

    def __init__(self, message, line=None, col=None):
        if line is not None:
            message = "line %s, col %s: %s" % (line, col, message)
        super().__init__(message)
        self.line = line
        self.col = col


class DocSemanticError(LsaError):
    """Well-formed text that does not describe a valid object."""
