"""Exception types shared across the package."""


class GsvError(Exception):
    """Base class for all library errors."""


class ParseError(GsvError):
    """Raised on malformed polynomial or problem-file input."""

    def __init__(self, message, position=None, line=None):
        self.position = position
        self.line = line
        where = ""
        if line is not None:
            where = f" (line {line})"
        if position is not None:
            where += f" at column {position + 1}"
        super().__init__(message + where)


class ShapeError(GsvError):
    """Problem data has the wrong shape (e.g. not a curve: q != n-1)."""


class TangencyError(GsvError):
    """Xf = Cf fails as an exact polynomial identity."""

    def __init__(self, residuals):
        self.residuals = residuals
        super().__init__(
            "vector field is not tangent: nonzero residuals in Xf - Cf"
        )


class NormalizationError(GsvError):
    """No tried coordinate change made (f, X1) zero-dimensional."""


class InfiniteDimensionError(GsvError):
    """The local quotient is not finite dimensional."""


class DegreeCapExceededError(GsvError):
    """Standard-basis completion ran past the configured degree cap.

    Distinct from a provably infinite quotient: the cap only guards
    runaway completion, it is not a verdict on the staircase.
    """


class C1ClassZeroError(GsvError):
    """The trace coefficient projects to zero although dim C0 > 0."""


class JacobianZeroClassError(GsvError):
    """det(Dg) vanishes in Q_g: the zero is not algebraically isolated."""


class VerificationError(GsvError):
    """An internal symbolic post-check failed or a hypothesis is violated."""


class CertificateError(VerificationError):
    """An internal certificate (a witness or coordinate check) failed."""
