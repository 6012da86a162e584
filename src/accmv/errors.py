"""Exception hierarchy shared across the package.

Exit-code mapping used by the CLI: config errors 2 (a resource error is
one), data errors 3, fit errors 4, inference errors 5.
"""


class AccmvError(Exception):
    """Base class for all package errors."""


class ConfigError(AccmvError):
    """Invalid configuration: bad options, missing models, dimension caps."""


class CongenialityError(ConfigError):
    """Raised when an outcome-model-based method is requested for a marginal
    parametric model.

    Regression adjustment and the multiply-robust construction place a
    conditional model on part of the primary vector given the rest, which
    constrains the joint law of the primary variables and can contradict the
    marginal model being estimated.  Only the odds-weighted route is
    compatible, so only IPW is offered for marginal parametric models.
    """


class ResourceError(ConfigError):
    """The run asks for more memory than it can get: the CLI's form of a
    MemoryError, whose remedy is a smaller size option or input."""


class DataError(AccmvError):
    """Problems with input data files."""


class ParseError(DataError):
    """A cell failed to parse; carries row/column context."""


class SchemaError(DataError):
    """Header or column-role mismatch between file and schema."""


class FitError(AccmvError):
    """Nuisance-model fitting failures."""


class PositivityError(FitError):
    """Empty pool for a pattern that requires one."""


class SmallStratumError(FitError):
    """Case stratum or pool below the configured minimum size."""


class NonConvergenceError(FitError):
    """Iterative solver failed to converge."""


class SeparationError(FitError):
    """Detected (quasi-)complete separation in a logistic odds fit."""


class SingularityError(FitError):
    """Singular design, information matrix, or estimating-equation Jacobian."""


class InferenceError(AccmvError):
    """Variance / interval construction failures."""


class DegenerateNormalizationError(InferenceError):
    """Self-normalization denominator is zero."""


class BootstrapInstabilityError(InferenceError):
    """Too many bootstrap replicates failed to fit."""
