"""Exception types shared across the package."""


class DecalsError(Exception):
    """Base class for all package-specific errors."""


class NonFinite(DecalsError):
    """An input array contains NaN or Inf."""


class SingularDesign(DecalsError):
    """W'W fails the positive-definiteness check (min eig <= 1e-10 * max eig)."""


class MaxIterations(DecalsError):
    """An active-set loop exceeded its iteration cap; signals ill-conditioning."""


class GeneMismatch(DecalsError):
    """Gene identifiers of a signature and a bulk matrix cannot be aligned."""


class DimensionMismatch(DecalsError):
    """Array shapes are inconsistent with each other."""


class SingularMomentMatrix(DecalsError):
    """H'H is singular: too few samples or near-collinear squared proportions."""


class SingularCorrectedMoment(DecalsError):
    """H'H - B1 is not invertible: bias terms too large relative to the moment
    signal. Callers may fall back to the raw estimator with a warning."""


class InsufficientSamples(DecalsError):
    """Not enough samples for the requested cross-validation fold count."""


class SingularSigma(DecalsError):
    """A subject covariance given to GLS whitening is not positive definite."""


class NonPsd(DecalsError):
    """A matrix required to be positive semidefinite is not, beyond tolerance."""


class DivisibilityError(DecalsError):
    """The block correlation design needs p divisible by the number of blocks."""


class ParseError(DecalsError):
    """An input file is malformed; the message carries line/column context."""


class NonConvergenceWarning(UserWarning):
    """An iterative fit stopped at max_iter before meeting its tolerance."""
