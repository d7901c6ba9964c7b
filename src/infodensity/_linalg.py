"""Shared dense linear-algebra helpers built on Cholesky factorizations.

Log-determinants are always taken from Cholesky factors, never from raw
determinant products, so they stay finite for large well-conditioned
matrices. Every LAPACK/BLAS call of the package is numpy's, so a process maps
one OpenBLAS build with one thread pool. numpy has no triangular solve: a
factor is inverted once (``_inverse_lower``) and its strips are formed by
matrix products, so no positive-definite matrix is ever inverted whole.
``_blas_threads_held`` caps that pool's thread count while the sampler's own
threads run.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import os
import threading

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
    thresholds = _pivot_thresholds(np.diagonal(a), a.shape[0])
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


def _pivot_thresholds(diagonal: np.ndarray, size) -> np.ndarray:
    """``cholesky_lower``'s pivot thresholds, size * eps * a_jj; ``size`` may differ per pivot."""
    return size * np.finfo(float).eps * diagonal


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


def logdet_from_lower(L: np.ndarray) -> float:
    return 2.0 * float(np.sum(np.log(np.diagonal(L))))


def _inverse_lower(L: np.ndarray) -> np.ndarray:
    """Inverse of a nonsingular lower-triangular matrix, itself lower triangular.

    With L = [[A, 0], [C, D]], L^{-1} = [[A^{-1}, 0], [-D^{-1} C A^{-1}, D^{-1}]]:
    the halves recurse and the corner is two matrix products, about 2 d^3 / 3
    flops in all. ``np.linalg.inv`` (LU of L, then d solves) takes four times
    that and at d = 250 ran 7.5 ms against 1 ms for the recursion (2 vCPUs).
    A (count, d, d) stack is inverted matrix by matrix in the same calls, each
    with the bits of its own 2-D inverse.
    """
    d = L.shape[-1]
    if d <= _INVERSE_BASE:
        return np.tril(np.linalg.inv(L))
    h = d // 2
    top, bottom = _inverse_lower(L[..., :h, :h]), _inverse_lower(L[..., h:, h:])
    inverse = np.zeros_like(L)
    inverse[..., :h, :h] = top
    inverse[..., h:, h:] = bottom
    inverse[..., h:, :h] = -(bottom @ (L[..., h:, :h] @ top))
    return inverse


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity set where the platform has one, else ``os.cpu_count()`` or 1."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@functools.cache
def _openblas_threads():
    """numpy's OpenBLAS thread-count (getter, setter), or None where no library or symbol resolves.

    The library is the one numpy's wheel bundles, in ``numpy.libs`` beside
    the package (``numpy/.dylibs`` on macOS); loading it again returns the
    copy numpy has already mapped. Resolved on the first call, not at import.
    """
    package = os.path.dirname(np.__file__)
    for directory in (os.path.join(os.path.dirname(package), "numpy.libs"), os.path.join(package, ".dylibs")):
        try:
            names = sorted(name for name in os.listdir(directory) if "scipy_openblas" in name)
        except OSError:
            continue
        for name in names:
            try:
                library = ctypes.CDLL(os.path.join(directory, name))
                get, set_ = library.scipy_openblas_get_num_threads64_, library.scipy_openblas_set_num_threads64_
            except (OSError, AttributeError):
                continue
            get.argtypes, get.restype = [], ctypes.c_int
            set_.argtypes, set_.restype = [ctypes.c_int], None
            return get, set_
    return None


# OpenBLAS's thread count is one per process, so the holds on it are counted per process.
_hold_lock = threading.Lock()
_holds = 0
_count_before_holds = 0


@contextlib.contextmanager
def _blas_threads_held(sampler_threads: int):
    """Hold numpy's OpenBLAS to min(its count in effect, max(1, CPUs // ``sampler_threads``)) threads.

    The count in effect before the first of overlapping holds is restored
    when the last one exits, however it exits. Nothing happens where
    ``_openblas_threads`` finds no OpenBLAS.
    """
    global _holds, _count_before_holds
    functions = _openblas_threads()
    if functions is None:
        yield
        return
    get, set_ = functions
    with _hold_lock:
        current = get()
        if _holds == 0:
            _count_before_holds = current
        _holds += 1
        share = max(1, _usable_cpus() // sampler_threads)
        if share < current:
            set_(share)
    try:
        yield
    finally:
        with _hold_lock:
            _holds -= 1
            if _holds == 0:
                set_(_count_before_holds)
