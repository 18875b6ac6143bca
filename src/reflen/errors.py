"""Exception hierarchy shared by all reflen modules."""


class ReflenError(Exception):
    """Base class for all errors raised by this package."""


class FieldMismatch(ReflenError):
    """Operands live over different fields."""


class ShapeMismatch(ReflenError):
    """Operand dimensions are incompatible."""


class NotPrime(ReflenError):
    """Requested prime-field modulus is not prime (or out of range)."""


class ZeroVector(ReflenError):
    """A nonzero vector was required."""


class ZeroForm(ReflenError):
    """A nonzero linear form was required."""


class NotInvertible(ReflenError):
    """The (v, alpha) pair does not define an invertible map."""


class Singular(ReflenError):
    """An invertible matrix was required."""


class NotAReflection(ReflenError):
    """The given map is not a reflection."""


class NotAHyperplane(ReflenError):
    """An affine hyperplane (codimension 1, nonempty) was required."""


class PointOnHyperplane(ReflenError):
    """A point off the mirror hyperplane was required."""


class NoReflections(ReflenError):
    """The group contains no reflections (1-dimensional affine space over F_2)."""


class TooLarge(ReflenError):
    """Group order or tuple-check count exceeds the work cap."""


class NotClosed(ReflenError):
    """A product of group-table elements is missing from the table."""


class InexactScalar(ReflenError):
    """A float was given where an exact scalar is required."""


class ParseError(ReflenError):
    """Malformed matrix input text."""

    def __init__(self, message, line=None):
        if line is not None:
            message = "line %d: %s" % (line, message)
        super().__init__(message)
        self.line = line
