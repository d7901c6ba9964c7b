"""Seeded Monte Carlo validation of the analytic cumulants.

Draws are produced by a counter-based generator (Philox keyed by seed and
chunk index) so that any chunk can be generated independently: the batch is
bit-identical for a given (model, n, seed, chunk_size) no matter how many
threads evaluate the chunks. Standard normals come from the inverse normal
CDF applied to open-interval uniforms built from raw 64-bit draws, avoiding
any rejection-sampling platform variability.

Cumulants are estimated with the classical unbiased k-statistics; the
validation report compares them with the analytic values using standard
errors derived from the exact sampling-variance formulas evaluated at the
model's analytic cumulants.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

from ._linalg import cholesky_lower, symmetrize
from .errors import BatchTooSmall
from .measures import cumulants, multiinformation
from .model import GaussianModel, compute_phi, model_fingerprint

DEFAULT_CHUNK_SIZE = 65536
# OpenBLAS runs a gemm with m*n*k at or below 65536 * 4 on the calling thread.
_TILE_MULTIPLY_ADDS = 2**18
# Thinner tiles reread K too often to pay (on 2 cores they won at d <= 100 and
# lost at d >= 200); from d = 129 on a chunk is one BLAS-threaded product.
_MIN_TILE_ROWS = 16
_MASK64 = (1 << 64) - 1
Z_THRESHOLD = 5.0


@dataclass(frozen=True)
class SampleBatch:
    """Density evaluations of seeded draws, with provenance."""

    values: np.ndarray
    seed: int
    fingerprint: str

    @property
    def n(self) -> int:
        return len(self.values)


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


def _standard_normal_block(seed: int, chunk_index: int, count: int) -> np.ndarray:
    key = np.array([seed & _MASK64, chunk_index], dtype=np.uint64)
    raw = np.random.Philox(key=key).random_raw(count)
    # Top 53 bits shifted onto the half-integer grid: strictly inside (0, 1).
    raw >>= np.uint64(11)
    u = raw.astype(np.float64)
    u += 0.5
    u *= 2.0**-53
    return ndtri(u, out=u)


def sample_density(
    model: GaussianModel,
    n: int,
    seed: int,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    threads: int = 1,
) -> SampleBatch:
    """Evaluate the density on n seeded Gaussian draws.

    Each chunk c draws standard normals z from the (seed, c)-keyed stream and
    evaluates I + z^T K z / 2 with the folded kernel K = L^T P L, where L is
    the covariance Cholesky factor (w = L z are the centered draws, so
    w^T P w = z^T K z). Each chunk writes its own slice of the output in
    index order, so the thread count never changes the output.

    For d <= 128 the chunk threads are the only parallelism: each chunk is
    evaluated in row tiles of at least 16 rows and at most 2**18
    multiply-adds, a product OpenBLAS runs on the calling thread, so no BLAS
    pool competes with the chunk threads. Above d = 128 such tiles would be
    too thin, and each chunk is one product that BLAS may thread. The d x d
    set-up (L and K) is one LAPACK/BLAS call each. Up to d = 64 the output
    does not depend on the BLAS thread settings; above that the set-up's
    rounding (and above d = 128 the chunk products') can depend on them.
    """
    if n < 2:
        raise BatchTooSmall(f"need at least 2 draws, got {n}")
    if chunk_size < 1:
        raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    d = model.dimension
    L = cholesky_lower(model.covariance)
    kernel = symmetrize(L.T @ compute_phi(model).matrix @ L)
    info = multiinformation(model)
    tile = _TILE_MULTIPLY_ADDS // (d * d)
    if tile < _MIN_TILE_ROWS:
        tile = chunk_size
    values = np.empty(n)

    def eval_chunk(c: int) -> None:
        start = c * chunk_size
        rows = min(chunk_size, n - start)
        z = _standard_normal_block(seed, c, rows * d).reshape(rows, d)
        out = values[start : start + rows]
        for t in range(0, rows, tile):
            zt = z[t : t + tile]
            np.einsum("ij,ij->i", zt @ kernel, zt, out=out[t : t + tile])
        out *= 0.5
        out += info

    n_chunks = -(-n // chunk_size)
    if threads > 1 and n_chunks > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(eval_chunk, range(n_chunks)))
    else:
        for c in range(n_chunks):
            eval_chunk(c)
    values.setflags(write=False)
    return SampleBatch(values=values, seed=int(seed), fingerprint=model_fingerprint(model))


def k_statistics(batch) -> KStatistics:
    """Unbiased cumulant estimates from a batch (or raw array) of values.

    k_1 is the sample mean, k_2 the unbiased variance, and k_3, k_4 the
    classical third and fourth k-statistics. Central moments are accumulated
    with numpy's pairwise summation.
    """
    values = np.asarray(batch.values if isinstance(batch, SampleBatch) else batch, dtype=float)
    n = values.size
    if n < 2:
        raise BatchTooSmall(f"need at least 2 values, got {n}")
    nf = float(n)
    k1 = float(np.mean(values))
    centered = values - k1
    sq = centered * centered
    m2 = float(np.mean(sq))
    m3 = float(np.mean(np.multiply(sq, centered, out=centered)))
    m4 = float(np.mean(np.multiply(sq, sq, out=sq)))
    k2 = nf / (nf - 1.0) * m2
    k3 = nf * nf / ((nf - 1.0) * (nf - 2.0)) * m3 if n >= 3 else math.nan
    if n >= 4:
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
