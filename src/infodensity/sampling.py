"""Seeded Monte Carlo validation of the analytic cumulants.

With x - mu = L z for the covariance Cholesky factor L and standard normals
z, the information density is I + y, where y = z^T K z / 2 for the folded
kernel K = L^T P L = L^{-1} G L, which is similar to G. Since tr G = 0,
tr K = 0 too, so y has mean 0 exactly: the density's mean is the
multiinformation I, and every cumulant from order 2 on is y's alone.

Each chunk c draws its standard normals from its own stream: numpy's
ziggurat ``Generator.standard_normal`` (Marsaglia & Tsang 2000) on an SFC64
bit generator seeded by ``SeedSequence([seed mod 2**64, c])``, so any chunk
can be generated independently. A stream continues across calls, so filling
a chunk tile by tile gives the same normals as one call. Every chunk but the
last holds ``CHUNK_SIZE`` draws, so the draws are a function of (seed, n) and
of numpy's ``Generator`` algorithms, which numpy may change between versions.

Each chunk streams through its stream one row tile at a time (normals,
kernel product, quadratic form in two tile-sized buffers), writes its
centered values y and reduces them to the power sums of y, y^2, y^3 and
y^4. The chunks' sums are added by ``math.fsum``, which is correctly rounded
and so independent of the order of its terms: the result is bit-identical
for a given (model, n, seed) whatever the thread count, and memory does not
grow with n, since no n-length array of draws is ever formed. The sums are
taken about the exact mean I, not about a sample mean, so they do not cancel
the way raw sums of the density would when I is large against its spread.
The chunk products, like the set-up and the analytic core, run on numpy's
OpenBLAS, the only BLAS build the package loads, so every BLAS call of a
process shares one thread pool; while the chunk threads run, that pool is
held to their share of the CPUs.

Cumulants are estimated with the classical unbiased k-statistics; the
validation report compares them with the analytic values using standard
errors derived from the exact sampling-variance formulas evaluated at the
model's analytic cumulants.
"""

from __future__ import annotations

import math
import threading
from concurrent.futures import FIRST_EXCEPTION, ThreadPoolExecutor, wait
from dataclasses import dataclass

import numpy as np

from ._linalg import _blas_threads_held, _inverse_lower, _usable_cpus, symmetrize
from .errors import BatchTooSmall
from .measures import cumulants, multiinformation
from .model import GaussianModel, model_fingerprint

# Draws per chunk: each chunk has its own stream, so the draws depend on it.
CHUNK_SIZE = 65536
# Rows a chunk draws and maps at a time; at d = 200 and 1000 such tiles ran as
# fast as one chunk-wide product.
_TILE_ROWS = 2048
_MASK64 = (1 << 64) - 1
# The calling thread waits for the chunk threads in timed waits of this many
# seconds, so an interrupt that lands as a wait begins is acted on within one.
_WAIT_SECONDS = 0.25
Z_THRESHOLD = 5.0


@dataclass(frozen=True)
class SampleBatch:
    """n draws summarized about ``center``: s_p is the sum of (x - center)^p, p = 1..4."""

    n: int
    center: float
    s1: float
    s2: float
    s3: float
    s4: float


@dataclass(frozen=True)
class KStatistics:
    """Unbiased cumulant estimates k_1..k_4.

    k_3 and k_4 are NaN when the sample is too small for them (n < 3 and
    n < 4 respectively).
    """

    k1: float
    k2: float
    k3: float
    k4: float

    def estimate(self, order: int) -> float:
        return (self.k1, self.k2, self.k3, self.k4)[order - 1]


def _normal_stream(seed: int, chunk_index: int) -> np.random.Generator:
    """Chunk ``chunk_index``'s generator; its ``standard_normal`` calls continue one stream."""
    return np.random.Generator(np.random.SFC64(np.random.SeedSequence([seed & _MASK64, chunk_index])))


def _worker_count(threads: int, n: int) -> int:
    """Threads ``sample_density`` runs: ``threads``, at most one per usable CPU and per chunk."""
    return min(threads, _usable_cpus(), -(-n // CHUNK_SIZE))


def _folded_kernel(model: GaussianModel) -> np.ndarray:
    """K = L^{-1} G L, symmetrized, for the covariance factor L: the density at mu + L z is I + z^T K z / 2."""
    L = model.factor
    return symmetrize(_inverse_lower(L) @ model.gamma @ L)


def _chunk_values(kernel: np.ndarray, seed: int, chunk_index: int, rows: int) -> np.ndarray:
    """z^T K z / 2 at chunk ``chunk_index``'s first ``rows`` draws, as a new array.

    The draws are made and mapped in row tiles of 2048 rows at every d. The
    two tile buffers are freed on return, so a chunk holds its values and
    then ``_moment_sums``' work buffer, never both with the tiles.
    """
    stream = _normal_stream(seed, chunk_index)
    out = np.empty(rows)
    z = np.empty((min(_TILE_ROWS, rows), kernel.shape[0]))
    zk = np.empty_like(z)
    for t in range(0, rows, _TILE_ROWS):
        zt = z[: min(_TILE_ROWS, rows - t)]
        zkt = zk[: len(zt)]
        stream.standard_normal(out=zt)
        np.matmul(zt, kernel, out=zkt)
        np.einsum("ij,ij->i", zkt, zt, out=out[t : t + len(zt)])
    out *= 0.5
    return out


def _moment_sums(y: np.ndarray) -> tuple[float, float, float, float]:
    """The sums of y, y^2, y^3 and y^4 over 1-D ``y``, which is overwritten.

    One y-sized work buffer, the squares, is allocated for the call.
    """
    s1 = float(np.sum(y))
    squares = np.multiply(y, y)
    s2 = float(np.sum(squares))
    s3 = float(np.sum(np.multiply(squares, y, out=y)))
    s4 = float(np.sum(np.multiply(squares, squares, out=squares)))
    return s1, s2, s3, s4


def sample_density(
    model: GaussianModel,
    n: int,
    seed: int,
    threads: int = 1,
) -> SampleBatch:
    """Summarize the density on n seeded Gaussian draws about its exact mean.

    The draws are split into chunks of ``CHUNK_SIZE`` = 65536, the last one
    shorter. Each chunk c draws standard normals z by ziggurat from its SFC64
    stream seeded by (seed mod 2**64, c) and evaluates y = z^T K z / 2 with
    the folded kernel K = L^{-1} G L, where L is the covariance Cholesky
    factor (w = L z are the centered draws). The density is I + y, so the
    returned batch holds, with ``center`` = I = ``multiinformation(model)``,
    the sums of y^p for p = 1..4: each chunk's sums are added by
    ``math.fsum``. The draws depend on (seed, n) and on numpy's ``Generator``
    algorithms. ``threads`` is capped at the CPUs the process may run on (its
    affinity set, else ``os.cpu_count()``, else 1) and at the number of
    chunks, and every count runs on one thread pool: thread w of the W that
    run takes chunks w, w + W, ... ``fsum`` is correctly rounded, so the
    thread count never changes the result. For independent blocks K = 0,
    and every sum is 0.0.

    Each chunk draws and maps its normals in row tiles of 2048 rows at every
    d. While the W threads run, numpy's OpenBLAS is held to at most
    max(1, CPUs // W) threads, so BLAS threads do not compete with the
    chunk threads for the CPUs; the count in effect before is restored on
    return, whatever ends the call.

    When a chunk raises, or the calling thread leaves with an exception
    (KeyboardInterrupt included), each thread stops after its current chunk.
    The calling thread waits in timed waits of 0.25 s, so an interrupt ends
    the call within the longer of one chunk's work per thread (a few seconds
    at d = 1000) and one such wait. Each chunk allocates its own buffers, so
    the run holds threads * (524288 + max(524288, 32768 * d)) bytes: each
    thread's 65536 values, then either two 2048-row tiles or one work
    buffer. The d x d set-up reads L from ``model.factor``, inverts it once
    and forms K = L^{-1} G L by two BLAS products, before the hold begins:
    the hold's count follows ``threads``, and K's last bits can follow the
    BLAS thread count (1 and 2 threads gave different K at d = 300 on a
    2-vCPU x86 host), so inside the hold the result would depend on
    ``threads``. Up to d = 64 the result does not depend on the BLAS thread
    settings; above that the set-up's rounding can depend on them.
    """
    if n < 2:
        raise BatchTooSmall(f"need at least 2 draws, got {n}")
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    kernel = _folded_kernel(model)
    n_chunks = -(-n // CHUNK_SIZE)
    workers = _worker_count(threads, n)
    stop = threading.Event()

    def summarize(first: int) -> list[tuple[float, float, float, float]]:
        return [
            _moment_sums(_chunk_values(kernel, seed, c, min(CHUNK_SIZE, n - c * CHUNK_SIZE)))
            for c in range(first, n_chunks, workers)
            if not stop.is_set()
        ]

    with _blas_threads_held(workers), ThreadPoolExecutor(max_workers=workers) as pool:
        try:
            futures = pending = [pool.submit(summarize, w) for w in range(workers)]
            while pending and not any(future.exception() for future in futures if future.done()):
                pending = wait(pending, timeout=_WAIT_SECONDS, return_when=FIRST_EXCEPTION).not_done
        finally:
            stop.set()
    sums = zip(*(chunk for future in futures for chunk in future.result()))
    return SampleBatch(n, multiinformation(model), *map(math.fsum, sums))


def k_statistics(batch: SampleBatch) -> KStatistics:
    """Unbiased cumulant estimates from a batch's power sums.

    k_1 is the sample mean, k_2 the unbiased variance, and k_3, k_4 the
    classical third and fourth k-statistics. They are finalized from the
    power sums s_p about ``batch.center``: k_1 = center + s_1 / n, and the
    sums are moved by the binomial expansion to that sample mean. The sums
    about a center near the mean stay accurate where raw power sums cancel,
    e.g. a mean of 1e8 with unit spread. A batch of fewer than 2 draws
    raises ``BatchTooSmall``.
    """
    if batch.n < 2:
        raise BatchTooSmall(f"need at least 2 draws, got {batch.n}")
    nf = float(batch.n)
    s1, s2, s3, s4 = batch.s1, batch.s2, batch.s3, batch.s4
    h = s1 / nf
    k1 = batch.center + h
    m2 = (s2 - h * (2.0 * s1 - nf * h)) / nf
    m3 = (s3 - h * (3.0 * s2 - h * (3.0 * s1 - nf * h))) / nf
    m4 = (s4 - h * (4.0 * s3 - h * (6.0 * s2 - h * (4.0 * s1 - nf * h)))) / nf
    k2 = nf / (nf - 1.0) * m2
    k3 = nf * nf / ((nf - 1.0) * (nf - 2.0)) * m3 if batch.n >= 3 else math.nan
    if batch.n >= 4:
        k4 = nf * nf * ((nf + 1.0) * m4 - 3.0 * (nf - 1.0) * m2 * m2) / (
            (nf - 1.0) * (nf - 2.0) * (nf - 3.0)
        )
    else:
        k4 = math.nan
    return KStatistics(k1=k1, k2=k2, k3=k3, k4=k4)


def kstat_sampling_variances(kappa, n: int) -> tuple[float, float, float, float]:
    """Sampling variances of k_1..k_4 given the true cumulants up to order 8.

    The classical finite-sample formulas; ``kappa`` is indexed so kappa[l]
    is the cumulant of order l (kappa[0] is ignored). They divide by n - 3,
    so fewer than 4 draws raise ``BatchTooSmall``.
    """
    if n < 4:
        raise BatchTooSmall(f"need at least 4 draws, got {n}")
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
    threads: int = 1,
    corrupt_order: int | None = None,
) -> dict:
    """Compare empirical k-statistics against the analytic cumulants.

    Returns a JSON-ready report with one row per order 1..max_order holding
    the analytic value, the estimate, the standard error (from the exact
    sampling-variance formulas at the analytic cumulants), the z-score, its
    margin |z|/Z_THRESHOLD, and a pass flag at |z| <= Z_THRESHOLD = 5. A
    nonzero difference over a zero standard error gives z = +-inf. The
    ``seed`` it echoes is seed mod 2**64, the value the streams are seeded
    with; its last key, ``threads``, is the number of sampler threads that ran.

    The order-1 row does not test I: the sampler's center is the same
    ``multiinformation(model)`` that k_1 is compared with, so that row
    tests only that z^T K z / 2 has mean tr K / 2 = 0. An independent check
    of kappa_1 belongs to ``analyze``'s planned ``--verify`` section
    (ROADMAP item 2). Orders 2..4 compare sample statistics of the draws
    with the spectrum's cumulants.

    ``corrupt_order`` shifts one analytic value by 25 standard errors; it
    exists only so a harness can verify that the check actually fails when
    the analytic side is wrong, so an order outside 1..max_order, which
    would shift nothing, raises ValueError.
    """
    if not 1 <= max_order <= 4:
        raise ValueError(f"max_order must be in 1..4, got {max_order}")
    if corrupt_order is not None and not 1 <= corrupt_order <= max_order:
        raise ValueError(f"corrupt_order must be in 1..max_order = {max_order}, got {corrupt_order}")
    if n < 4:
        raise BatchTooSmall(f"need at least 4 draws for finite standard errors, got {n}")
    batch = sample_density(model, n, seed, threads=threads)
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
            z = 0.0 if diff == 0.0 else math.copysign(math.inf, diff)
        ok = abs(z) <= Z_THRESHOLD
        all_ok = all_ok and ok
        rows.append(
            {
                "order": order,
                "analytic": target,
                "estimate": estimate,
                "se": se,
                "z": z,
                "margin": abs(z) / Z_THRESHOLD,
                "ok": ok,
            }
        )
    return {
        "fingerprint": model_fingerprint(model),
        "n": n,
        "seed": seed & _MASK64,
        "max_order": max_order,
        "z_threshold": Z_THRESHOLD,
        "rows": rows,
        "ok": all_ok,
        "threads": _worker_count(threads, n),
    }
