"""Canonical correlations of a model with exactly two blocks.

With two blocks the coupling matrix is block anti-diagonal, so its nonzero
eigenvalues are the canonical correlations +-rho_k between the blocks, and
the second cumulant is the sum of their squares. With a scalar block the one
squared canonical correlation is the squared multiple correlation of that
coordinate on the other block, and with two scalar blocks the squared
correlation coefficient.
"""

from __future__ import annotations

import numpy as np

from ._linalg import _inverse_lower, symmetrize
from .errors import BadPartition
from .model import GaussianModel, regression_block


def canonical_correlations(model: GaussianModel) -> tuple[float, ...]:
    """Squared canonical correlations between the two blocks, sorted descending.

    Computed as the spectrum of the symmetric matrix
    L^{-1} S_ab S_bb^{-1} S_ba L^{-T} with L the Cholesky factor of S_aa,
    taking the smaller block as 'a' so exactly min(n_1, n_2) values come out.
    Guaranteed real and nonnegative: a negative eigenvalue, which only
    rounding gives, is set to zero, and every other value is kept however
    small, so the values still add up to the variance.
    """
    if model.partition.n_blocks != 2:
        raise BadPartition(f"two-block analysis needs exactly 2 blocks, got {model.partition.n_blocks}")
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
