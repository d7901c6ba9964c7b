"""Closed forms for models with exactly two blocks.

With two blocks the coupling matrix is block anti-diagonal, so odd powers
have zero trace and even powers reduce to powers of the product of the two
regression blocks. The second cumulant is the sum of the squared canonical
correlations; with a scalar block the one squared canonical correlation is
the squared multiple correlation of that coordinate on the other block, and
with two scalar blocks the squared correlation coefficient.
"""

from __future__ import annotations

import math

import numpy as np

from ._linalg import _inverse_lower, symmetrize
from .errors import BadPartition, OutOfDomain
from .measures import CgfDomain
from .model import GaussianModel, _integral_at_least, regression_block


def _require_two_blocks(model: GaussianModel) -> None:
    if model.partition.n_blocks != 2:
        raise BadPartition(f"two-block analysis needs exactly 2 blocks, got {model.partition.n_blocks}")


def two_block_trace(model: GaussianModel, l: int) -> float:
    """tr(G^l) for a two-block model: 0 for odd l, 2 tr[(C_01 C_10)^{l/2}] for even l.

    l is integral by ``Partition``'s rule: 4.0 is 4; 2.5 or True raises ValueError.
    """
    _require_two_blocks(model)
    l = _integral_at_least(l, 1, "l")
    if l % 2 == 1:
        return 0.0
    product = regression_block(model, 0, 1) @ regression_block(model, 1, 0)
    return 2.0 * float(np.trace(np.linalg.matrix_power(product, l // 2)))


def canonical_correlations(model: GaussianModel) -> tuple[float, ...]:
    """Squared canonical correlations between the two blocks, sorted descending.

    Computed as the spectrum of the symmetric matrix
    L^{-1} S_ab S_bb^{-1} S_ba L^{-T} with L the Cholesky factor of S_aa,
    taking the smaller block as 'a' so exactly min(n_1, n_2) values come out.
    Guaranteed real and nonnegative: a negative eigenvalue, which only
    rounding gives, is set to zero, and every other value is kept however
    small, so the values still add up to the variance.
    """
    _require_two_blocks(model)
    sizes = model.partition.block_sizes
    a, b = (0, 1) if sizes[0] <= sizes[1] else (1, 0)
    sl = model.partition.block_slice(a)
    inverse = _inverse_lower(model.block_factor[sl, sl])
    # M = L^{-1} (S_ab S_bb^{-1} S_ba) L^{-T}, similar to S_aa^{-1} S_ab S_bb^{-1} S_ba.
    inner = regression_block(model, a, b) @ model.covariance_block(b, a)  # symmetric PSD
    m = inverse @ inner @ inverse.T
    w = np.linalg.eigvalsh(symmetrize(m), UPLO="L")
    w = np.maximum(w, 0.0)
    values = tuple(float(v) for v in sorted(w, reverse=True))
    if values and values[0] >= 1.0:
        raise ValueError(f"squared canonical correlation {values[0]} >= 1; model is singular")
    return values


def scalar_pair_cgf(rho: float, t: float) -> float:
    """CGF for two scalar blocks with correlation rho.

    -(t/2) ln(1 - rho^2) - (1/2) ln(1 - t^2 rho^2); finite for |t| < 1/|rho|.
    The 1/2 coefficient on the second term makes this the exact reduction of
    the general determinant form, whose 2x2 determinant is 1 - t^2 rho^2.
    """
    if not abs(rho) < 1.0:
        raise ValueError(f"|rho| must be < 1, got {rho}")
    if rho == 0.0:
        return 0.0
    bound = 1.0 / abs(rho)
    if not -bound < t < bound:
        raise OutOfDomain(t, CgfDomain(lower=-bound, upper=bound))
    return -(t / 2.0) * math.log1p(-rho * rho) - 0.5 * math.log1p(-t * t * rho * rho)
