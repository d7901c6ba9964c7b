"""Closed forms for the equicorrelation model with all-scalar blocks.

A d-dimensional correlation matrix with constant off-diagonal entry rho has
eigenvalues 1 + (d-1)rho (once) and 1 - rho (d-1 times), and its coupling
matrix is rho * (U - I) with U the all-ones matrix. Mean, cumulants, and
coupling powers of the density all admit closed forms, including the
standardized cumulants whose d -> infinity limits are the nonzero constants
2^{l/2-1} (l-1)!, the signature of non-normality in high dimension.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CumulantOverflow, ZeroVariance
from .model import GaussianModel, validate_model

_LOG_DBL_MAX = math.log(np.finfo(float).max)
_EXACT_ORDER_MAX = 20


@dataclass(frozen=True)
class HomogeneousModel:
    """Equicorrelation parameters: dimension d >= 2 and -1/(d-1) < rho < 1.

    The lower bound is strict; at equality the largest-eigenvector direction
    becomes degenerate and the covariance is singular.
    """

    dimension: int
    rho: float

    def __post_init__(self):
        d = int(self.dimension)
        if d < 2:
            raise ValueError(f"dimension must be >= 2, got {d}")
        rho = float(self.rho)
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


def homogeneous_mean(hm: HomogeneousModel) -> float:
    """Expected density: -[(d-1) ln(1-rho) + ln(1+(d-1)rho)] / 2."""
    d, rho = hm.dimension, hm.rho
    return -0.5 * ((d - 1) * math.log1p(-rho) + math.log1p((d - 1) * rho))


def _trace_term(d: int, l: int) -> int:
    """(-1)^l d + (d-1)^l - (-1)^l as an exact integer; nonnegative for all d, l >= 2."""
    return (-1) ** l * d + (d - 1) ** l - (-1) ** l


def _log_cumulant_magnitude(hm: HomogeneousModel, l: int) -> float:
    """ln|kappa_l| for rho != 0, computed without forming large intermediates."""
    d, rho = hm.dimension, hm.rho
    # (d-1)^l + (-1)^l (d-1), factored for a stable log.
    log_term = l * math.log(d - 1) + math.log1p((-1.0) ** l * float(d - 1) ** (1 - l))
    return math.lgamma(l) - math.log(2.0) + l * math.log(abs(rho)) + log_term


def homogeneous_cumulant(hm: HomogeneousModel, l: int) -> float:
    """Cumulant of order l >= 2 in closed form.

    (l-1)!/2 * rho^l * [(-1)^l d + (d-1)^l - (-1)^l]; the bracket is an exact
    integer, so small orders are computed exactly up to one float product.
    Large d or l switch to log-space magnitudes with the sign carried by
    rho^l, and CumulantOverflow is raised instead of returning infinity.
    """
    if l < 2:
        raise ValueError(f"order must be >= 2, got {l}")
    d, rho = hm.dimension, hm.rho
    if rho == 0.0:
        return 0.0
    term = _trace_term(d, l)
    if term == 0:  # only for d = 2, l odd
        return 0.0
    log_magnitude = _log_cumulant_magnitude(hm, l)
    if log_magnitude > _LOG_DBL_MAX:
        raise CumulantOverflow(l)
    integer_part = math.factorial(l - 1) * term // 2
    if l <= _EXACT_ORDER_MAX and integer_part.bit_length() < 1000:
        return float(integer_part) * rho**l
    sign = -1.0 if (rho < 0 and l % 2 == 1) else 1.0
    return sign * math.exp(log_magnitude)


def homogeneous_gamma_power(hm: HomogeneousModel, l: int) -> np.ndarray:
    """Closed-form l-th power of the coupling matrix rho (U - I).

    rho^l [(-1)^l I + ((d-1)^l - (-1)^l)/d * U]; the U coefficient is an
    exact integer division since (d-1)^l and (-1)^l agree modulo d.
    """
    if l < 1:
        raise ValueError(f"power must be >= 1, got {l}")
    d, rho = hm.dimension, hm.rho
    u_coef = ((d - 1) ** l - (-1) ** l) // d
    out = float(u_coef) * np.ones((d, d))
    out += (-1.0) ** l * np.eye(d)
    return rho**l * out


def standardized_cumulant(hm: HomogeneousModel, l: int) -> float:
    """kappa_l / kappa_2^{l/2} from the closed forms; exactly 1 at l = 2.

    Evaluated in log space so it stays finite for large d even when the raw
    cumulants would overflow. Requires rho != 0 (ZeroVariance otherwise).
    """
    if l < 2:
        raise ValueError(f"order must be >= 2, got {l}")
    if hm.rho == 0.0:
        raise ZeroVariance("standardization undefined at rho = 0")
    if l == 2:
        return 1.0
    if _trace_term(hm.dimension, l) == 0:
        return 0.0
    log_ratio = _log_cumulant_magnitude(hm, l) - (l / 2.0) * _log_cumulant_magnitude(hm, 2)
    if log_ratio > _LOG_DBL_MAX:
        raise CumulantOverflow(l)
    sign = -1.0 if (hm.rho < 0 and l % 2 == 1) else 1.0
    return sign * math.exp(log_ratio)


def asymptotic_standardized_limit(l: int) -> float:
    """Large-d limit of the standardized cumulant of order l: 2^{l/2-1} (l-1)!."""
    if l < 2:
        raise ValueError(f"order must be >= 2, got {l}")
    log_value = (l / 2.0 - 1.0) * math.log(2.0) + math.lgamma(l)
    if log_value > _LOG_DBL_MAX:
        raise CumulantOverflow(l)
    return math.exp(log_value) if l > _EXACT_ORDER_MAX else 2.0 ** (l / 2.0 - 1.0) * math.factorial(l - 1)

