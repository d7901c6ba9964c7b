"""Closed forms for the equicorrelation model with all-scalar blocks.

A d-dimensional correlation matrix with constant off-diagonal entry rho has
eigenvalues 1 + (d-1)rho (once) and 1 - rho (d-1 times), and its coupling
matrix is rho * (U - I) with U the all-ones matrix. kappa_1 is the
multiinformation, and each rooted l-loop on the d blocks carries rho^l, so
kappa_l = (l-1)!/2 * rho^l * rooted_loop_count(d, l) for l >= 2, in closed
form, as are the standardized cumulants, whose d -> infinity limits are the
nonzero constants 2^{l/2-1} (l-1)!, the signature of non-normality in high
dimension.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CumulantOverflow, ZeroVariance
from .loops import rooted_loop_count
from .measures import _EXACT_FACTORIAL_MAX_ORDER, _LOG_DBL_MAX
from .model import GaussianModel, _float_array, _integral_at_least, validate_model


@dataclass(frozen=True)
class HomogeneousModel:
    """Equicorrelation parameters: dimension d >= 2 and -1/(d-1) < rho < 1.

    The lower bound is strict; at equality the largest-eigenvector direction
    becomes degenerate and the covariance is singular. d is read by the
    package's integral rule, and rho as the model's arrays are, so a complex
    rho raises ValueError.
    """

    dimension: int
    rho: float

    def __post_init__(self):
        d = _integral_at_least(self.dimension, 2, "dimension")
        rho = float(_float_array(self.rho, "rho"))
        lower = -1.0 / (d - 1)
        if not lower < rho < 1.0:
            raise ValueError(
                f"rho must lie strictly in ({lower:.6g}, 1) for dimension {d}, got {rho}"
            )
        object.__setattr__(self, "dimension", d)
        object.__setattr__(self, "rho", rho)


def homogeneous_covariance(hm: HomogeneousModel) -> GaussianModel:
    """The equicorrelation model: unit diagonal, rho elsewhere, scalar blocks, zero mean."""
    d = hm.dimension
    cov = np.full((d, d), hm.rho)
    np.fill_diagonal(cov, 1.0)
    return validate_model(np.zeros(d), cov, [1] * d)


def homogeneous_cumulant(hm: HomogeneousModel, l: int) -> float:
    """Cumulant of order l >= 1 in closed form.

    kappa_1 is the multiinformation, -[(d-1) ln(1-rho) + ln(1+(d-1)rho)] / 2,
    which is 0.0 (not -0.0) at rho = 0. Above it,
    (l-1)!/2 * rho^l * rooted_loop_count(d, l). Up to order 20 the integer
    (l-1)!/2 * count is formed exactly, so the result is one float product;
    above, or past 1000 bits, the magnitude is taken in log space with the
    sign carried by rho^l, and neither factor is formed. CumulantOverflow is
    raised instead of returning infinity. The order is read by the package's
    integral rule here and in ``standardized_cumulant`` and
    ``asymptotic_standardized_limit``.
    """
    l = _integral_at_least(l, 1, "order")
    d, rho = hm.dimension, hm.rho
    if l == 1:
        return 0.0 - 0.5 * ((d - 1) * math.log1p(-rho) + math.log1p((d - 1) * rho))
    if rho == 0.0 or (d == 2 and l % 2 == 1):  # the loop count is 0 only for d = 2, l odd
        return 0.0
    # ln rooted_loop_count(d, l) = ln[(d-1)^l + (-1)^l (d-1)], factored for a stable log.
    log_count = l * math.log(d - 1) + math.log1p((-1.0) ** l * float(d - 1) ** (1 - l))
    log_magnitude = math.lgamma(l) - math.log(2.0) + l * math.log(abs(rho)) + log_count
    if log_magnitude > _LOG_DBL_MAX:
        raise CumulantOverflow(l)
    if l <= _EXACT_FACTORIAL_MAX_ORDER:
        integer_part = math.factorial(l - 1) * rooted_loop_count(d, l) // 2
        if integer_part.bit_length() < 1000:
            return float(integer_part) * rho**l
    sign = -1.0 if (rho < 0 and l % 2 == 1) else 1.0
    return sign * math.exp(log_magnitude)


def standardized_cumulant(hm: HomogeneousModel, l: int) -> float:
    """kappa_l / kappa_2^{l/2} from the closed forms; exactly 1 at l = 2.

    rho^l divides out, leaving sign(rho)^l times the large-d limit
    2^{l/2-1} (l-1)! times (1 - 1/d)^{l/2} (1 + (-1)^l (d-1)^{1-l}), so
    every rho of one sign gives the same bits. Evaluated in log space, so it
    stays finite for large d even when the raw cumulants would overflow.
    Requires rho != 0 (ZeroVariance otherwise).
    """
    l = _integral_at_least(l, 2, "order")
    d = hm.dimension
    if hm.rho == 0.0:
        raise ZeroVariance("standardization undefined at rho = 0")
    if l == 2:
        return 1.0
    if d == 2 and l % 2 == 1:
        return 0.0
    log_ratio = math.lgamma(l) + (l / 2.0 - 1.0) * math.log(2.0) + (l / 2.0) * math.log1p(-1.0 / d)
    log_ratio += math.log1p((-1.0) ** l * float(d - 1) ** (1 - l))
    if log_ratio > _LOG_DBL_MAX:
        raise CumulantOverflow(l)
    sign = -1.0 if (hm.rho < 0 and l % 2 == 1) else 1.0
    return sign * math.exp(log_ratio)


def asymptotic_standardized_limit(l: int) -> float:
    """Large-d limit of the standardized cumulant of order l: 2^{l/2-1} (l-1)!."""
    l = _integral_at_least(l, 2, "order")
    log_value = (l / 2.0 - 1.0) * math.log(2.0) + math.lgamma(l)
    if log_value > _LOG_DBL_MAX:
        raise CumulantOverflow(l)
    return 2.0 ** (l / 2.0 - 1.0) * math.factorial(l - 1)

