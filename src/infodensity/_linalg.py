"""Shared dense linear-algebra helpers built on Cholesky factorizations.

Log-determinants are always taken from Cholesky factors, never from raw
determinant products, so they stay finite for large well-conditioned
matrices.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import solve_triangular
from scipy.linalg.lapack import dpotrf

from .errors import NotPositiveDefinite


def symmetrize(a: np.ndarray) -> np.ndarray:
    return (a + a.T) / 2.0


def cholesky_lower(a: np.ndarray, what: str = "matrix") -> np.ndarray:
    """Lower Cholesky factor of a symmetric matrix with explicit pivot checks.

    LAPACK ``potrf`` computes the factor; the pivots (the Schur-complement
    diagonal before the square root) are diag(L)^2. Pivot j must exceed
    d * eps * a_jj, its own coordinate's scale: pivot_j / a_jj = 1 - R^2_j is
    the share of coordinate j's variance not explained by coordinates 0..j-1,
    so the check does not depend on the units of the coordinates. Otherwise
    NotPositiveDefinite is raised with the first failing pivot index. No
    jitter, no repair.
    """
    a = np.asarray(a, dtype=float)
    d = a.shape[0]
    L, info = dpotrf(a, lower=1, clean=1)
    # potrf stops at the first non-positive pivot, reports info = its index + 1
    # and leaves the pivot itself where its square root would go.
    done = d if info == 0 else info - 1
    pivots = np.square(np.diagonal(L)[:done])
    thresholds = d * np.finfo(float).eps * np.diagonal(a)
    below = np.flatnonzero(~(pivots > thresholds[:done]))
    if below.size:
        j = int(below[0])
        pivot = pivots[j]
    elif info > 0:
        j = done
        pivot = L[j, j]
    else:
        return L
    raise NotPositiveDefinite(
        f"{what} is not positive definite: pivot {pivot:.6g} at index {j} "
        f"is not above threshold {thresholds[j]:.6g}",
        pivot_index=j,
    )


def logdet_from_lower(L: np.ndarray) -> float:
    return 2.0 * float(np.sum(np.log(np.diagonal(L))))


def solve_pd_from_lower(L: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve (L L^T) x = b via two triangular solves."""
    y = solve_triangular(L, b, lower=True)
    return solve_triangular(L.T, y, lower=False)


def rel_close(a: float, b: float, tol: float) -> bool:
    """Mixed absolute/relative comparison: |a-b| <= tol * max(1, |a|, |b|)."""
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))
