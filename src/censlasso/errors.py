"""Exception hierarchy shared across the package.

Every error belongs to one of three groups, and each group carries the exit
code and the message prefix the command line reports it with: input (2),
solver (3) and configuration (4).
"""


class CensLassoError(Exception):
    """Base class for all errors raised by this package."""

    exit_code = 3
    prefix = "error"


class InputError(CensLassoError):
    """An input file cannot be read as a dataset."""

    exit_code = 2
    prefix = "input error"


class EstimationError(CensLassoError):
    """An estimator, or a statistic of its output, cannot be computed."""

    exit_code = 3
    prefix = "solver error"


class ConfigError(CensLassoError):
    """A setting or argument is invalid or inconsistent."""

    exit_code = 4
    prefix = "configuration error"


# --- dataset ingestion / generation ---

class MissingColumn(InputError):
    """A required CSV column is absent."""


class NonBinaryDelta(InputError):
    """An event indicator is not 0 or 1."""


class NonPositiveTime(InputError):
    """A follow-up time is not strictly positive."""


class RaggedRow(InputError):
    """A CSV row has the wrong number of fields."""


class NonFiniteCovariate(InputError):
    """A covariate is NaN or infinite."""


class NoConvergence(EstimationError):
    """An iterative procedure exhausted its iteration budget."""


# --- weighting / estimation ---

class DegenerateWeights(EstimationError):
    """All observation weights are zero."""


class DegenerateSample(EstimationError):
    """A sample does not carry the sign variation an estimator needs."""


class DimensionMismatch(ConfigError):
    """Vector/matrix dimensions do not agree."""


class SolverError(EstimationError):
    """The underlying optimizer failed outright."""


# --- tuning ---

class ZeroNormalizer(EstimationError):
    """The unpenalized criterion value is zero and cannot normalize."""


# --- aggregation ---

class InvalidK(ConfigError):
    """Group count is incompatible with the sample size."""


# --- simulation metrics ---

class EmptyActiveSet(EstimationError):
    """The active set is empty where a nonempty one is required."""


class FullActiveSet(EstimationError):
    """The active set covers all coordinates where a proper subset is required."""


class TooFewSamples(EstimationError):
    """Not enough observations for the requested diagnostic."""
