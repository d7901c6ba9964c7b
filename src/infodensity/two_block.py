"""Closed forms for models with exactly two blocks.

With two blocks the coupling matrix is block anti-diagonal, so odd powers
have zero trace and even powers reduce to powers of the product of the two
regression blocks. The second cumulant is the sum of the squared canonical
correlations; with a scalar first block everything collapses to the squared
multiple correlation, and with two scalar blocks to the plain correlation
coefficient.
"""

from __future__ import annotations

import math

import numpy as np

from ._linalg import _solve_lower
from .errors import BadPartition, BlockNotScalar, OutOfDomain
from .measures import CgfDomain
from .model import GaussianModel, regression_block

_CLAMP_EIGENVALUE = 1e-12


def _require_two_blocks(model: GaussianModel) -> None:
    if model.partition.n_blocks != 2:
        raise BadPartition(f"two-block analysis needs exactly 2 blocks, got {model.partition.n_blocks}")


def two_block_trace(model: GaussianModel, l: int) -> float:
    """tr(G^l) for a two-block model: 0 for odd l, 2 tr[(C_01 C_10)^{l/2}] for even l."""
    _require_two_blocks(model)
    if l < 1:
        raise ValueError(f"l must be >= 1, got {l}")
    if l % 2 == 1:
        return 0.0
    product = regression_block(model, 0, 1) @ regression_block(model, 1, 0)
    return 2.0 * float(np.trace(np.linalg.matrix_power(product, l // 2)))


def canonical_correlations(model: GaussianModel) -> tuple[float, ...]:
    """Squared canonical correlations between the two blocks, sorted descending.

    Computed as the spectrum of the symmetric matrix
    L^{-1} S_ab S_bb^{-1} S_ba L^{-T} with L the Cholesky factor of S_aa,
    taking the smaller block as 'a' so exactly min(n_1, n_2) values come out.
    Guaranteed real and nonnegative; values below 1e-12 are clamped to zero.
    """
    _require_two_blocks(model)
    sizes = model.partition.block_sizes
    a, b = (0, 1) if sizes[0] <= sizes[1] else (1, 0)
    sl = model.partition.block_slice(a)
    L = model.block_factor[sl, sl]
    # M = L^{-1} (S_ab S_bb^{-1} S_ba) L^{-T}, similar to S_aa^{-1} S_ab S_bb^{-1} S_ba.
    inner = regression_block(model, a, b) @ model.covariance_block(b, a)  # symmetric PSD
    half = _solve_lower(L, inner)
    m = _solve_lower(L, half.T)
    w = np.linalg.eigvalsh((m + m.T) / 2.0)
    w = np.where(w < _CLAMP_EIGENVALUE, 0.0, w)
    values = tuple(float(v) for v in sorted(w, reverse=True))
    if values and values[0] >= 1.0:
        raise ValueError(f"squared canonical correlation {values[0]} >= 1; model is singular")
    return values


def multiple_correlation(model: GaussianModel) -> float:
    """Squared multiple correlation of a scalar first block on the second block."""
    _require_two_blocks(model)
    if model.partition.block_sizes[0] != 1:
        raise BlockNotScalar(f"first block has size {model.partition.block_sizes[0]}, expected 1")
    predicted = float((regression_block(model, 0, 1) @ model.covariance_block(1, 0))[0, 0])
    return predicted / float(model.covariance[0, 0])


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
