"""Exception hierarchy shared by all modules.

Every error raised on bad mathematical input derives from DomainError so
the command-line layer can map it to a single exit code.  Parse failures
of expressions or variety files derive from ParseError instead.
"""


class OscformError(Exception):
    """Base class for all package errors."""


class DomainError(OscformError):
    """Input is well-formed but mathematically inadmissible."""


class ParseError(OscformError):
    """Input text could not be parsed."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        self.line = line
        self.column = column
        if line is not None:
            where = f"line {line}" + (f", column {column}" if column is not None else "")
            message = f"{where}: {message}"
        super().__init__(message)


class ConsistencyError(ParseError):
    """A variety file parses but its fields contradict each other."""


class VariableMismatch(DomainError):
    """Operands live over different variable tuples."""


class NotHomogeneous(DomainError):
    """A form was required to be homogeneous and is not."""


class ZeroDivisionRequested(DomainError):
    """Division by the zero polynomial or zero ring element."""


class InexactDivision(DomainError):
    """Exact polynomial division was requested but leaves a remainder."""


class NotInvertible(DomainError):
    """Element of a quotient ring has no inverse (modulus not coprime)."""


class DenominatorVanishes(DomainError):
    """A rational function was evaluated where its denominator is zero."""

    def __init__(self, message: str, denominator=None):
        self.denominator = denominator
        super().__init__(message)


class ShapeMismatch(DomainError):
    """Matrix or vector dimensions are incompatible."""


class AmbientMismatch(DomainError):
    """Subspaces of different ambient dimensions were combined."""


class TruncationOrderExceeded(DomainError):
    """A jet order beyond the validity of a truncated parameterization."""


class PointNotOnVariety(DomainError):
    """The supplied point does not satisfy the defining equations."""


class SingularPoint(DomainError):
    """The variety is singular (or not immersed) at the supplied point."""


class InvariantViolation(OscformError):
    """An internal consistency law failed; indicates a bug, not bad input."""


class UnsupportedAmbient(DomainError):
    """Operation requires a specific source or ambient dimension."""


class HyperplaneMissesPoint(DomainError):
    """Hyperplane section was requested at a point not on the hyperplane."""


class HyperplaneContainsAllOsculating(DomainError):
    """Hyperplane vanishes on every computed osculating space, so no

    finite vanishing order exists within the requested bound."""

    def __init__(self, message: str, max_order: int | None = None):
        self.max_order = max_order
        super().__init__(message)


class NotASurfaceInP3(DomainError):
    """Operation requires a surface in three-dimensional projective space."""


class DegenerateSecondForm(DomainError):
    """Second-order normal-form piece is zero or degenerate."""
