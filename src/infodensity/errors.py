"""Exception hierarchy for model validation and analysis failures."""


class InfoDensityError(Exception):
    """Base class for all errors raised by this package."""


class DimensionMismatch(InfoDensityError, ValueError):
    """Shapes of mean, covariance, partition, or evaluation point disagree."""


class NotSymmetric(InfoDensityError, ValueError):
    """Covariance asymmetry exceeds the acceptance tolerance."""


class NonFiniteInput(InfoDensityError, ValueError):
    """A mean, covariance, evaluation point or equicorrelation rho contains NaN or +-inf."""


class NotPositiveDefinite(InfoDensityError, ValueError):
    """Cholesky factorization failed; ``pivot_index`` is the failing pivot."""

    def __init__(self, message, pivot_index=None):
        super().__init__(message)
        self.pivot_index = pivot_index


class BadPartition(InfoDensityError, ValueError):
    """Block sizes do not form a valid partition of the dimension."""


class EigenvalueOutOfRange(InfoDensityError, ValueError):
    """A spectrum violates the constraints of a valid coupling matrix."""


class OutOfDomain(InfoDensityError, ValueError):
    """Requested evaluation point lies outside the finite range of the CGF."""

    def __init__(self, t, domain):
        super().__init__(
            f"t={t} is outside the open interval ({domain.lower}, {domain.upper})"
        )
        self.t = t
        self.domain = domain


class CumulantOverflow(InfoDensityError, OverflowError):
    """A cumulant exceeds the double-precision range, or its order the cap.

    ``order`` is the first order refused.
    """

    def __init__(self, order, message=None):
        super().__init__(message or f"cumulant of order {order} overflows double precision")
        self.order = order


class CombinatorialLimit(InfoDensityError, RuntimeError):
    """Loop enumeration would exceed the configured cap; ``count`` is None past 64 bits, never formed."""

    def __init__(self, count, cap, length=None, message=None):
        super().__init__(message or f"{count} rooted loops of length {length} exceed cap {cap}")
        self.count = count
        self.cap = cap
        self.length = length


class ZeroVariance(InfoDensityError, ValueError):
    """Standardization is undefined because the variance is zero."""


class BatchTooSmall(InfoDensityError, ValueError):
    """The sample is too small for the requested estimator."""
