"""Seeded Monte Carlo validation of the analytic cumulants.

Draws are produced by a counter-based generator (Philox keyed by seed and
chunk index) so that any chunk can be generated independently. Standard
normals come from the inverse normal CDF applied to open-interval uniforms
built from raw 64-bit draws, avoiding any rejection-sampling platform
variability.

Each chunk streams through its own Philox stream one row tile at a time
(bits, uniforms, normals, kernel product, quadratic form in buffers of a few
hundred KB) and is reduced to a central-moment summary: count, mean and the
centered sums of powers 1..4 (the first only the mean's rounding residual).
The summaries are merged in chunk-index order
with the pairwise update formulas of Chan, Golub & LeVeque (1979) and Pebay
(SAND2008-6212), so the result is bit-identical for a given
(model, n, seed, chunk_size) whatever the thread count, and memory does not
grow with n: no n-length array of draws is ever formed.

Cumulants are estimated with the classical unbiased k-statistics; the
validation report compares them with the analytic values using standard
errors derived from the exact sampling-variance formulas evaluated at the
model's analytic cumulants.
"""

from __future__ import annotations

import functools
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

from ._linalg import symmetrize
from .errors import BatchTooSmall
from .measures import cumulants, multiinformation
from .model import GaussianModel, compute_phi, model_fingerprint

DEFAULT_CHUNK_SIZE = 65536
# OpenBLAS runs a gemm with m*n*k at or below 65536 * 4 on the calling thread.
_TILE_MULTIPLY_ADDS = 2**18
# Thinner tiles reread K too often to pay (on 2 cores they won at d <= 100 and
# lost at d >= 200); from d = 129 on a chunk is one BLAS-threaded product.
_MIN_TILE_ROWS = 16
# Raw bits are drawn at most this many at a time (256 KB of uint64), so no
# chunk-sized bit array exists at any d.
_BITS_BLOCK = 2**15
_MASK64 = (1 << 64) - 1
Z_THRESHOLD = 5.0


@dataclass(frozen=True)
class CentralMoments:
    """Count, mean and centered power sums s_p = sum (x - mean)^p, p = 1..4.

    ``mean`` is a float near the sample mean, so s_1 is only the residual of
    its rounding. Keeping that residual makes merging exact in the choice of
    center: a sum about one center is moved to another by the binomial
    expansion, and the final moments are taken about mean + s_1 / count.
    """

    count: int
    mean: float
    s1: float
    s2: float
    s3: float
    s4: float

    def shifted(self, h: float) -> tuple[float, float, float, float]:
        """The power sums of x - mean + h, i.e. about the center mean - h."""
        n = float(self.count)
        s1, s2, s3, s4 = self.s1, self.s2, self.s3, self.s4
        return (
            s1 + n * h,
            s2 + h * (2.0 * s1 + n * h),
            s3 + h * (3.0 * s2 + h * (3.0 * s1 + n * h)),
            s4 + h * (4.0 * s3 + h * (6.0 * s2 + h * (4.0 * s1 + n * h))),
        )

    def merge(self, other: CentralMoments) -> CentralMoments:
        """Summary of the union of two samples (Chan et al. 1979; Pebay 2008).

        Both summaries are moved by the binomial expansion to a common center,
        the count-weighted mean of their centers.
        """
        count = self.count + other.count
        center = self.mean + (other.mean - self.mean) * (other.count / count)
        a = self.shifted(self.mean - center)
        b = other.shifted(other.mean - center)
        return CentralMoments(count, center, *(x + y for x, y in zip(a, b)))


@dataclass(frozen=True)
class SampleBatch:
    """Merged central moments of seeded density draws, with provenance."""

    moments: CentralMoments
    seed: int
    fingerprint: str

    @property
    def n(self) -> int:
        return self.moments.count


@dataclass(frozen=True)
class KStatistics:
    """Unbiased cumulant estimates k_1..k_4 with standard errors for k_1, k_2.

    k_3 and k_4 are NaN when the sample is too small for them (n < 3 and
    n < 4 respectively); se2 uses the variance-of-variance formula
    k_4/n + 2 k_2^2/(n-1) evaluated at the estimates themselves.
    """

    k1: float
    k2: float
    k3: float
    k4: float
    se1: float
    se2: float

    def estimate(self, order: int) -> float:
        return (self.k1, self.k2, self.k3, self.k4)[order - 1]


def _philox(seed: int, chunk_index: int) -> np.random.Philox:
    return np.random.Philox(key=np.array([seed & _MASK64, chunk_index], dtype=np.uint64))


def _fill_normals(bits: np.random.Philox, out: np.ndarray) -> None:
    """Write the next ``out.size`` standard normals of the stream into 1-D ``out``.

    Successive calls continue the stream, so any split of a count into calls
    gives the same normals as one call.
    """
    for start in range(0, out.size, _BITS_BLOCK):
        u = out[start : start + _BITS_BLOCK]
        raw = bits.random_raw(u.size)
        # Top 53 bits shifted onto the half-integer grid: strictly inside (0, 1).
        raw >>= np.uint64(11)
        np.add(raw, 0.5, out=u, casting="unsafe")
        u *= 2.0**-53
        ndtri(u, out=u)


def _folded_kernel(model: GaussianModel) -> np.ndarray:
    """K = L^T P L for the model's covariance factor L: w^T P w = z^T K z for w = L z."""
    L = model.factor
    return symmetrize(L.T @ compute_phi(model) @ L)


def _chunk_values(
    kernel: np.ndarray, info: float, seed: int, chunk_index: int, out: np.ndarray
) -> np.ndarray:
    """Write the density at chunk ``chunk_index``'s first ``out.size`` draws into ``out``.

    For d <= 128 the draws are made and mapped in row tiles of at least 16
    rows and at most 2**18 multiply-adds, a product OpenBLAS runs on the
    calling thread, so each tile stays in cache from bits to quadratic form.
    Above d = 128 such tiles would be too thin, and the chunk is one product
    that BLAS may thread.
    """
    d = kernel.shape[0]
    rows = out.size
    tile = _TILE_MULTIPLY_ADDS // (d * d)
    if tile < _MIN_TILE_ROWS:
        tile = rows
    bits = _philox(seed, chunk_index)
    z = np.empty((min(tile, rows), d))
    zk = np.empty_like(z)
    for t in range(0, rows, tile):
        zt = z[: min(tile, rows - t)]
        zkt = zk[: len(zt)]
        _fill_normals(bits, zt.reshape(-1))
        np.matmul(zt, kernel, out=zkt)
        np.einsum("ij,ij->i", zkt, zt, out=out[t : t + len(zt)])
    out *= 0.5
    out += info
    return out


def _central_moments(x: np.ndarray, centered: np.ndarray, squares: np.ndarray) -> CentralMoments:
    """Two-pass summary of 1-D ``x``, using two x-sized work buffers.

    ``centered`` may be ``x`` itself, which is then overwritten.
    """
    mean = float(np.mean(x))
    np.subtract(x, mean, out=centered)
    s1 = float(np.sum(centered))
    np.multiply(centered, centered, out=squares)
    s2 = float(np.sum(squares))
    s3 = float(np.sum(np.multiply(squares, centered, out=centered)))
    s4 = float(np.sum(np.multiply(squares, squares, out=squares)))
    return CentralMoments(x.size, mean, s1, s2, s3, s4)


def sample_density(
    model: GaussianModel,
    n: int,
    seed: int,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    threads: int = 1,
) -> SampleBatch:
    """Summarize the density on n seeded Gaussian draws.

    Each chunk c draws standard normals z from the (seed, c)-keyed stream and
    evaluates I + z^T K z / 2 with the folded kernel K = L^T P L, where L is
    the covariance Cholesky factor (w = L z are the centered draws, so
    w^T P w = z^T K z), then reduces its values to central moments. Thread w
    of ``threads`` takes chunks w, w + threads, ... with its own chunk-sized
    buffers; the chunk summaries are merged in chunk order, so the thread
    count never changes the result.

    Up to d = 128 the chunk threads are the only parallelism, and each thread
    holds about 2 * chunk_size * 8 bytes (the chunk's values and one work
    buffer) plus two tiles of at most 2**21 / d bytes and 256 KB of raw bits.
    Above d = 128 it also holds the chunk's normals and their product,
    2 * chunk_size * d * 8 bytes. The d x d set-up reads L from
    ``model.factor`` and forms K by BLAS products. Up to d = 64 the result
    does not depend on the BLAS thread settings; above that the set-up's rounding (and above
    d = 128 the chunk products') can depend on them.
    """
    if n < 2:
        raise BatchTooSmall(f"need at least 2 draws, got {n}")
    if chunk_size < 1:
        raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    kernel = _folded_kernel(model)
    info = multiinformation(model)
    n_chunks = -(-n // chunk_size)
    workers = min(threads, n_chunks)
    summaries: list = [None] * n_chunks

    def summarize(first: int) -> None:
        values = np.empty(min(chunk_size, n))
        squares = np.empty_like(values)
        for c in range(first, n_chunks, workers):
            rows = min(chunk_size, n - c * chunk_size)
            out = _chunk_values(kernel, info, seed, c, values[:rows])
            summaries[c] = _central_moments(out, out, squares[:rows])

    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            for future in [pool.submit(summarize, w) for w in range(workers)]:
                future.result()
    else:
        summarize(0)
    moments = functools.reduce(CentralMoments.merge, summaries)
    return SampleBatch(moments=moments, seed=int(seed), fingerprint=model_fingerprint(model))


def k_statistics(batch) -> KStatistics:
    """Unbiased cumulant estimates from a batch's moments (or a raw array's).

    k_1 is the sample mean, k_2 the unbiased variance, and k_3, k_4 the
    classical third and fourth k-statistics, all finalized from the count,
    mean and centered power sums of ``CentralMoments``. An array is
    summarized in two passes (mean, then centered sums with numpy's pairwise
    summation, corrected by the residual sum of the centered values); a
    batch's summary was merged from its chunks' by the pairwise updates of
    Chan, Golub & LeVeque (1979) and Pebay (SAND2008-6212). Both stay
    accurate where raw power sums cancel, e.g. a mean of 1e8 with unit
    spread.
    """
    if isinstance(batch, SampleBatch):
        moments = batch.moments
    else:
        values = np.asarray(batch, dtype=float).ravel()
        if values.size < 2:
            raise BatchTooSmall(f"need at least 2 values, got {values.size}")
        moments = _central_moments(values, np.empty_like(values), np.empty_like(values))
    nf = float(moments.count)
    residual = moments.s1 / nf
    k1 = moments.mean + residual
    _, m2, m3, m4 = (s / nf for s in moments.shifted(-residual))
    k2 = nf / (nf - 1.0) * m2
    k3 = nf * nf / ((nf - 1.0) * (nf - 2.0)) * m3 if moments.count >= 3 else math.nan
    if moments.count >= 4:
        k4 = nf * nf * ((nf + 1.0) * m4 - 3.0 * (nf - 1.0) * m2 * m2) / (
            (nf - 1.0) * (nf - 2.0) * (nf - 3.0)
        )
        se2 = math.sqrt(max(k4 / nf + 2.0 * k2 * k2 / (nf - 1.0), 0.0))
    else:
        k4 = math.nan
        se2 = math.nan
    se1 = math.sqrt(k2 / nf)
    return KStatistics(k1=k1, k2=k2, k3=k3, k4=k4, se1=se1, se2=se2)


def kstat_sampling_variances(kappa, n: int) -> tuple[float, float, float, float]:
    """Sampling variances of k_1..k_4 given the true cumulants up to order 8.

    The classical finite-sample formulas; ``kappa`` is indexed so kappa[l]
    is the cumulant of order l (kappa[0] is ignored).
    """
    nf = float(n)
    k2, k3, k4 = kappa[2], kappa[3], kappa[4]
    k5, k6, k8 = kappa[5], kappa[6], kappa[8]
    v1 = k2 / nf
    v2 = k4 / nf + 2.0 * k2**2 / (nf - 1.0)
    v3 = (
        k6 / nf
        + 9.0 * k2 * k4 / (nf - 1.0)
        + 9.0 * k3**2 / (nf - 1.0)
        + 6.0 * nf * k2**3 / ((nf - 1.0) * (nf - 2.0))
    )
    v4 = (
        k8 / nf
        + 16.0 * k2 * k6 / (nf - 1.0)
        + 48.0 * k3 * k5 / (nf - 1.0)
        + 34.0 * k4**2 / (nf - 1.0)
        + 72.0 * nf * k2**2 * k4 / ((nf - 1.0) * (nf - 2.0))
        + 144.0 * nf * k2 * k3**2 / ((nf - 1.0) * (nf - 2.0))
        + 24.0 * nf * (nf + 1.0) * k2**4 / ((nf - 1.0) * (nf - 2.0) * (nf - 3.0))
    )
    return v1, v2, v3, v4


def mc_validate(
    model: GaussianModel,
    n: int,
    seed: int,
    max_order: int = 4,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    threads: int = 1,
    corrupt_order: int | None = None,
) -> dict:
    """Compare empirical k-statistics against the analytic cumulants.

    Returns a JSON-ready report with one row per order 1..max_order holding
    the analytic value, the estimate, the standard error (from the exact
    sampling-variance formulas at the analytic cumulants), the z-score, and
    a pass flag at |z| <= 5. ``corrupt_order`` shifts one analytic value by
    25 standard errors; it exists only so a harness can verify that the
    check actually fails when the analytic side is wrong.
    """
    if not 1 <= max_order <= 4:
        raise ValueError(f"max_order must be in 1..4, got {max_order}")
    if n < 4:
        raise BatchTooSmall(f"need at least 4 draws for finite standard errors, got {n}")
    batch = sample_density(model, n, seed, chunk_size=chunk_size, threads=threads)
    stats = k_statistics(batch)
    analytic = cumulants(model, 8)
    kappa = (math.nan,) + analytic.values  # 1-indexed
    variances = kstat_sampling_variances(kappa, n)

    rows = []
    all_ok = True
    for order in range(1, max_order + 1):
        target = analytic.kappa(order)
        se = math.sqrt(max(variances[order - 1], 0.0))
        if corrupt_order == order:
            target += 25.0 * max(se, 1.0)
        estimate = stats.estimate(order)
        diff = estimate - target
        if se > 0.0:
            z = diff / se
        else:
            z = 0.0 if diff == 0.0 else math.inf
        ok = abs(z) <= Z_THRESHOLD
        all_ok = all_ok and ok
        rows.append(
            {
                "order": order,
                "analytic": target,
                "estimate": estimate,
                "se": se,
                "z": z,
                "ok": ok,
            }
        )
    return {
        "fingerprint": batch.fingerprint,
        "n": n,
        "seed": int(seed),
        "max_order": max_order,
        "z_threshold": Z_THRESHOLD,
        "rows": rows,
        "ok": all_ok,
    }
