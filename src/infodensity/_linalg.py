"""Shared dense linear-algebra helpers built on Cholesky factorizations.

Log-determinants are always taken from Cholesky factors, never from raw
determinant products, so they stay finite for large well-conditioned
matrices. Every LAPACK/BLAS call of the analytic path goes through scipy's
wrappers here, so it runs on one OpenBLAS build with one thread pool. numpy
and scipy each ship their own build, and on 2 vCPUs a process alternating
between the two pools took 22.8 ms for a 100 x 100 ``eigvalsh`` that takes
0.45 ms with one BLAS thread.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg.blas import dtrsm
from scipy.linalg.lapack import dpotrf, dsyevd

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


def _solve_lower(L: np.ndarray, b: np.ndarray, transpose: bool = False) -> np.ndarray:
    """Solve L X = b (L^T X = b with ``transpose``) for a 2-D b by BLAS trsm.

    OpenBLAS runs trsm on the calling thread below about 32 x 32, but LAPACK
    trtrs (scipy's ``solve_triangular``) on its pool at every size; the pool
    then spins for ~0.1 s, taking a core from the sampler's threads.
    """
    return dtrsm(1.0, L, b, lower=1, trans_a=int(transpose))


def solve_pd_from_lower(L: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve (L L^T) x = b via two triangular solves."""
    return _solve_lower(L, _solve_lower(L, b), transpose=True)


def _eigvalsh(a: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of a symmetric matrix (its lower triangle) by LAPACK ``syevd``.

    The same driver as ``np.linalg.eigvalsh``, run on scipy's build.
    """
    w, _, info = dsyevd(a, compute_v=0, lower=1)
    if info != 0:
        raise np.linalg.LinAlgError(f"LAPACK dsyevd failed with info = {info}")
    return w


def _rel_bound(a: float, b: float, tol: float) -> float:
    """The bound on |a-b| that ``rel_close`` applies: tol * max(1, |a|, |b|)."""
    return tol * max(1.0, abs(a), abs(b))


def rel_close(a: float, b: float, tol: float) -> bool:
    """Mixed absolute/relative comparison: |a-b| <= tol * max(1, |a|, |b|)."""
    return abs(a - b) <= _rel_bound(a, b, tol)
