"""Exception types shared across the package."""


class OapolyError(Exception):
    """Base class for errors raised by this package."""


class UnsupportedGroup(OapolyError):
    """Requested group is outside the builtin menu or exceeds the size cap."""


class GroupMismatch(OapolyError):
    """Operands belong to different groups or algebras."""


class DimensionMismatch(OapolyError):
    """A matrix block does not have the declared shape."""


class IncompleteRegistry(OapolyError):
    """An irrep registry does not satisfy sum(dim^2) == group order."""


class BadExponent(OapolyError):
    """Norm exponent outside its valid range."""


class HomogeneityViolation(OapolyError):
    """A black-box polynomial failed its declared-degree homogeneity probe."""


class VerificationFailure(OapolyError):
    """An extracted representing map failed probe verification."""

    def __init__(self, message, max_residual=None):
        super().__init__(message)
        self.max_residual = max_residual


class NotOrthogonal(OapolyError):
    """A supplied pair does not have vanishing two-sided products."""


class UnderSampled(OapolyError):
    """Quadrature grid too coarse for the degrees involved."""
