"""Exception types shared across the package."""


class CarlabError(Exception):
    """Base class for all package errors."""


class DomainError(CarlabError, ValueError):
    """An operation received a value outside its domain (NaN, bad range,
    undeclared level, mismatched dimensions, invalid parameters)."""


class FitError(CarlabError, RuntimeError):
    """A model fit failed (empty arm, singular or ill-conditioned design,
    separation, non-convergence)."""


class EstimatorError(CarlabError, RuntimeError):
    """A variance estimator could not be computed (singular regression,
    unusable subsample or resample)."""


class ConfigError(CarlabError, ValueError):
    """An experiment configuration failed validation."""
