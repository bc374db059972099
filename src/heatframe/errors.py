"""Exception and warning types shared across the package."""
from __future__ import annotations


class HeatframeError(Exception):
    """Base class for all package errors."""


class DomainError(HeatframeError, ValueError):
    """A parameter or evaluation point lies outside its admissible domain."""


class PreconditionError(HeatframeError):
    """A verifier was invoked without the hypotheses its estimate needs."""


class ContractError(HeatframeError):
    """Objects passed together do not fit (shape, space, or net mismatch)."""


class ExactnessError(HeatframeError):
    """The quadrature rule cannot represent the requested degree or scale."""


class SamplingError(HeatframeError):
    """A sample set is empty or contains no admissible entries."""


class TruncationWarning(UserWarning):
    """Spectral content above the basis degree was silently dropped."""
