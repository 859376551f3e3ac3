"""Shared exception types for the hankel_dual package."""


class HankelDualError(Exception):
    """Base class for all package-specific errors."""


class DomainError(HankelDualError, ValueError):
    """Argument outside the mathematical domain of the function."""


class ParameterError(HankelDualError, ValueError):
    """Parameter combination is invalid (e.g. a gamma factor poles)."""


class AdmissibilityError(HankelDualError):
    """Seed function fails the integrability condition at an endpoint."""

    def __init__(self, message, verdict=None):
        super().__init__(message)
        self.verdict = verdict


class InconclusiveConditionError(HankelDualError):
    """Estimated envelope exponent too close to the decision threshold."""

    def __init__(self, message, exponent=None, endpoint=None):
        super().__init__(message)
        self.exponent = exponent
        self.endpoint = endpoint


class UnknownIdError(HankelDualError, KeyError):
    """Requested catalog id does not exist."""
