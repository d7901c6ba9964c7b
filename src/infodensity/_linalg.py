"""Shared dense linear-algebra helpers built on Cholesky factorizations.

Log-determinants are always taken from Cholesky factors, never from raw
determinant products, so they stay finite for large well-conditioned
matrices. Every LAPACK/BLAS call of the package is numpy's, so a process maps
one OpenBLAS build with one thread pool. numpy has no triangular solve: a
factor is inverted once (``_inverse_lower``) and its strips are formed by
matrix products.
"""

from __future__ import annotations

import numpy as np

from .errors import NotPositiveDefinite

# Blocks up to this size are inverted by LAPACK; larger ones split in two.
_INVERSE_BASE = 64


def symmetrize(a: np.ndarray) -> np.ndarray:
    """The average of ``a`` and its transpose, taken by halves so that it cannot overflow."""
    return a / 2.0 + a.T / 2.0


def cholesky_lower(a: np.ndarray, what: str = "matrix") -> np.ndarray:
    """Lower Cholesky factor of a symmetric matrix with explicit pivot checks.

    LAPACK ``potrf`` (``np.linalg.cholesky``) computes the factor from the
    lower triangle; the pivots (the Schur-complement diagonal before the
    square root) are diag(L)^2. Pivot j must exceed d * eps * a_jj, its own
    coordinate's scale: pivot_j / a_jj = 1 - R^2_j is the share of coordinate
    j's variance not explained by coordinates 0..j-1, so the check does not
    depend on the units of the coordinates. Otherwise NotPositiveDefinite is
    raised with the first failing pivot index. No jitter, no repair.
    """
    a = np.asarray(a, dtype=float)
    thresholds = a.shape[0] * np.finfo(float).eps * np.diagonal(a)
    try:
        L, failing_pivot = np.linalg.cholesky(a), None
    except np.linalg.LinAlgError:
        L, failing_pivot = _leading_factor(a)
    pivots = np.square(np.diagonal(L))
    below = np.flatnonzero(~(pivots > thresholds[: L.shape[0]]))
    if below.size:
        j = int(below[0])
        pivot = pivots[j]
    elif failing_pivot is not None:
        j = L.shape[0]
        pivot = failing_pivot
    else:
        return L
    raise NotPositiveDefinite(
        f"{what} is not positive definite: pivot {pivot:.6g} at index {j} "
        f"is not above threshold {thresholds[j]:.6g}",
        pivot_index=j,
    )


def _leading_factor(a: np.ndarray) -> tuple[np.ndarray, float]:
    """For an ``a`` whose factorization failed: the factor of its leading j x j block and pivot j.

    ``potrf`` fails on the leading k x k block exactly when one of its first k
    pivots is not positive, so bisection over k finds the first failing pivot
    j. Pivot j is a_jj - |L_j^{-1} a[:j, j]|^2, the Schur complement that
    ``potrf`` stopped at. Only the error path of ``cholesky_lower`` comes here.
    """
    done, failing = 0, a.shape[0]
    L = np.zeros((0, 0))
    while failing - done > 1:
        k = (done + failing) // 2
        try:
            L_k = np.linalg.cholesky(a[:k, :k])
        except np.linalg.LinAlgError:
            failing = k
        else:
            done, L = k, L_k
    row = _inverse_lower(L) @ a[:done, done]
    return L, float(a[done, done] - row @ row)


def _scalar_factors(variances: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Factors of many 1 x 1 matrices at once, and which pass the pivot check.

    The factor of [a] is sqrt(a), bit-identical to ``cholesky_lower([[a]])``,
    and ``ok`` applies that function's check (pivot sqrt(a)^2 above 1 * eps * a)
    to each; a failing entry's factor is meaningless.
    """
    with np.errstate(invalid="ignore"):
        roots = np.sqrt(variances)
    return roots, np.square(roots) > np.finfo(float).eps * variances


def logdet_from_lower(L: np.ndarray) -> float:
    return 2.0 * float(np.sum(np.log(np.diagonal(L))))


def _inverse_lower(L: np.ndarray) -> np.ndarray:
    """Inverse of a nonsingular lower-triangular matrix, itself lower triangular.

    With L = [[A, 0], [C, D]], L^{-1} = [[A^{-1}, 0], [-D^{-1} C A^{-1}, D^{-1}]]:
    the halves recurse and the corner is two matrix products, about 2 d^3 / 3
    flops in all. ``np.linalg.inv`` (LU of L, then d solves) takes four times
    that and at d = 250 ran 7.5 ms against 1 ms for the recursion (2 vCPUs).
    """
    d = L.shape[0]
    if d <= _INVERSE_BASE:
        return np.tril(np.linalg.inv(L))
    h = d // 2
    top, bottom = _inverse_lower(L[:h, :h]), _inverse_lower(L[h:, h:])
    inverse = np.zeros_like(L)
    inverse[:h, :h] = top
    inverse[h:, h:] = bottom
    inverse[h:, :h] = -(bottom @ (L[h:, :h] @ top))
    return inverse


def solve_pd_from_lower(L: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve (L L^T) x = b as (L^{-T} L^{-1}) b, with L inverted once; ``regression_block``'s solve."""
    inverse = _inverse_lower(L)
    return (inverse.T @ inverse) @ b


def _rel_bound(a: float, b: float, tol: float) -> float:
    """A mixed absolute/relative bound on |a-b|: tol * max(1, |a|, |b|)."""
    return tol * max(1.0, abs(a), abs(b))
