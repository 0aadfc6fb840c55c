"""Exception hierarchy shared across the package."""


class CensLassoError(Exception):
    """Base class for all errors raised by this package."""


# --- dataset ingestion / generation ---

class MissingColumn(CensLassoError):
    """A required CSV column is absent."""


class NonBinaryDelta(CensLassoError):
    """An event indicator is not 0 or 1."""


class NonPositiveTime(CensLassoError):
    """A follow-up time is not strictly positive."""


class RaggedRow(CensLassoError):
    """A CSV row has the wrong number of fields."""


class NonFiniteCovariate(CensLassoError):
    """A covariate is NaN or infinite."""


class NoConvergence(CensLassoError):
    """An iterative procedure exhausted its iteration budget."""


# --- weighting / estimation ---

class DegenerateWeights(CensLassoError):
    """All observation weights are zero."""


class DegenerateSample(CensLassoError):
    """A sample does not carry the sign variation an estimator needs."""


class DimensionMismatch(CensLassoError):
    """Vector/matrix dimensions do not agree."""


class SolverError(CensLassoError):
    """The underlying optimizer failed outright."""


# --- tuning ---

class ZeroNormalizer(CensLassoError):
    """The unpenalized criterion value is zero and cannot normalize."""


# --- aggregation ---

class InvalidK(CensLassoError):
    """Group count is incompatible with the sample size."""


# --- simulation metrics ---

class EmptyActiveSet(CensLassoError):
    """The active set is empty where a nonempty one is required."""


class FullActiveSet(CensLassoError):
    """The active set covers all coordinates where a proper subset is required."""


class TooFewSamples(CensLassoError):
    """Not enough observations for the requested diagnostic."""
