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

Each chunk streams through its stream one row tile of at most 2048 draws at
a time: normals and kernel product in two 2048-row buffers, the centered
values y of the quadratic form in a 2048-value buffer, which is reduced
right there to the power sums of y, y^2, y^3 and y^4. Each thread adds its
tiles' sums exactly, as integers in units of 2**-1074, and the threads'
totals are added and rounded once at the end: each sum is the correctly
rounded sum of every tile's sum, as ``math.fsum`` of them would give, so the
result is bit-identical for a given (model, n, seed) whatever the thread
count. Neither an n-length array nor anything per chunk is kept: the
threads share one counter of chunk indices, so the sampler's memory does
not depend on n or on ``CHUNK_SIZE``. The sums are taken about the exact
mean I, not about a sample mean, so they do not cancel the way raw sums of
the density would when I is large against its spread.
The chunk products, like the set-up and the analytic core, run on numpy's
OpenBLAS, the only BLAS build the package loads, so every BLAS call of a
process shares one thread pool; while the chunk threads run, that pool is
held at one thread. So every tile product rounds alike at every thread count
and every d, and the chunk threads are all the CPUs the draws use.

Cumulants are estimated with the classical unbiased k-statistics, returned
as a ``CumulantSequence`` of orders 1..4 like the analytic cumulants; the
validation report compares the two using standard errors derived from the
exact sampling-variance formulas evaluated at the model's analytic cumulants.
"""

from __future__ import annotations

import math
import threading
from collections.abc import Iterator
from concurrent.futures import FIRST_EXCEPTION, ThreadPoolExecutor, wait
from dataclasses import dataclass

import numpy as np

from ._linalg import _blas_threads_held, _inverse_lower, _usable_cpus
from .errors import BatchTooSmall
from .measures import CumulantSequence, cumulants, multiinformation
from .model import GaussianModel, _integral_at_least

# Draws per chunk: each chunk has its own stream, so the draws depend on it.
CHUNK_SIZE = 65536
# Rows a chunk draws and maps at a time; at d = 200 and 1000 such tiles ran as
# fast as one chunk-wide product.
_TILE_ROWS = 2048
_MASK64 = (1 << 64) - 1
# Every finite double is an integral multiple of 2**-1074, the least subnormal.
_UNIT_EXPONENT = 1074
# The calling thread waits for the chunk threads in timed waits of this many
# seconds, so an interrupt that lands as a wait begins is acted on within one.
_WAIT_SECONDS = 0.25
Z_THRESHOLD = 5.0


@dataclass(frozen=True)
class SampleBatch:
    """n draws summarized about ``center``: s_p is the sum of (x - center)^p, p = 1..4.

    ``n`` is read by the package's integral rule.
    """

    n: int
    center: float
    s1: float
    s2: float
    s3: float
    s4: float

    def __post_init__(self):
        object.__setattr__(self, "n", _integral_at_least(self.n, 0, "n"))


def _normal_stream(seed: int, chunk_index: int) -> np.random.Generator:
    """Chunk ``chunk_index``'s generator; its ``standard_normal`` calls continue one stream."""
    return np.random.Generator(np.random.SFC64(np.random.SeedSequence([seed & _MASK64, chunk_index])))


def _worker_count(threads: int, n: int) -> int:
    """Threads ``sample_density`` runs: ``threads``, at most one per usable CPU and per chunk.

    ``threads`` is read by the package's integral rule and must be >= 1;
    anything else raises ValueError.
    """
    return min(_integral_at_least(threads, 1, "threads"), _usable_cpus(), -(-n // CHUNK_SIZE))


def _folded_kernel(model: GaussianModel) -> np.ndarray:
    """K = L^{-1} G L, as formed, for the covariance factor L: the density at mu + L z is I + z^T K z / 2.

    In exact arithmetic K = L^T P L is symmetric; as formed, its two
    triangles differ in their last bits. z^T K z reads only the symmetric
    part (K + K^T) / 2, so K is used as formed and no symmetrized copy is
    made. K is formed from G, the regression coefficients, not as a product
    of factors minus I (such as L^T S_B^{-1} L - I): that difference loses
    K's relative accuracy under weak coupling, and leaves rounding where
    independent blocks give K = 0 exactly.

    L^{-1} is formed as inv(D L) D, with D = diag(2^{-e_i}) for e_i the
    binary exponent of L_ii, so that every row of D L has a diagonal entry
    in [1/2, 1). Scaling by powers of two is exact, and scaling a block's
    coordinates by 2^k scales L's rows by 2^k and D by 2^-k: D L keeps its
    bits, and the powers of two that L^{-1}, G and L then carry cancel
    exactly in each of K's entries. Inverting L itself, the LU pivoting of
    ``_inverse_lower``'s base case could follow the scaling.
    """
    L = model.factor
    scale = np.ldexp(1.0, -np.frexp(np.diagonal(L))[1])
    return (_inverse_lower(scale[:, None] * L) * scale) @ model.gamma @ L


def _chunk_tiles(kernel: np.ndarray, seed: int, chunk_index: int, rows: int) -> Iterator[np.ndarray]:
    """z^T K z / 2 at chunk ``chunk_index``'s first ``rows`` draws, yielded one tile of at most 2048 at a time.

    Each tile's normals are drawn and mapped into two 2048-row buffers, and
    its values are written into one 2048-value buffer, which is what each
    yield hands out: the next tile overwrites it, so a caller that keeps a
    tile copies it. The three buffers are freed when the chunk ends.
    """
    stream = _normal_stream(seed, chunk_index)
    z = np.empty((min(_TILE_ROWS, rows), kernel.shape[0]))
    zk = np.empty_like(z)
    y = np.empty(len(z))
    for t in range(0, rows, _TILE_ROWS):
        count = min(_TILE_ROWS, rows - t)
        zt, zkt, yt = z[:count], zk[:count], y[:count]
        stream.standard_normal(out=zt)
        np.matmul(zt, kernel, out=zkt)
        np.einsum("ij,ij->i", zkt, zt, out=yt)
        yt *= 0.5
        yield yt


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


class _Chunks:
    """The chunk indices 0..count-1, handed out in order until the last is taken or the run stops."""

    def __init__(self, count: int):
        self._lock = threading.Lock()
        self._next = 0
        self._count = count

    def take(self) -> int | None:
        """The next index not yet taken, or None once every index is taken or ``stop`` was called."""
        with self._lock:
            if self._next >= self._count:
                return None
            self._next += 1
            return self._next - 1

    def stop(self) -> None:
        """Hand out no further index: every later ``take`` returns None."""
        with self._lock:
            self._next = self._count


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
    factor (w = L z are the centered draws). K is used as formed: the form
    reads only its symmetric part. The density is I + y, so the
    returned batch holds, with ``center`` = I = ``multiinformation(model)``,
    the sums of y^p for p = 1..4. The draws depend on (seed, n) and on numpy's
    ``Generator`` algorithms. ``threads`` is capped at the CPUs the process
    may run on (its affinity set, else ``os.cpu_count()``, else 1) and at the
    number of chunks, and every count runs on one thread pool: each of the W
    threads that run takes the next chunk not yet started, in chunk order, so
    a fast thread takes up what a slow one would have left.

    Each chunk draws and maps its normals in row tiles of 2048 rows at every
    d, and reduces each tile's values to their four power sums as soon as
    they are formed. Each thread adds its tiles' sums exactly, as integers in
    units of 2**-1074, and each of the batch's sums is the threads' totals
    added and divided once by 2**1074, which Python rounds correctly: the
    sum ``math.fsum`` would give over every tile's sum. So neither the thread
    count nor the schedule changes the result. For independent blocks K = 0,
    and every sum is 0.0. While the threads run, numpy's OpenBLAS is held at
    one thread, so each tile product rounds the same way whatever
    ``threads`` is, and the W chunk threads are the only CPUs the draws
    use; the count in effect before is restored on return, whatever ends the
    call.

    The threads take the chunk indices from one lock-guarded counter, and a
    thread ends when the counter has none left. When a chunk raises, or the
    calling thread leaves with an exception (KeyboardInterrupt included), the
    counter is stopped, so each thread ends after its current chunk and takes
    no other index. The calling thread waits in timed waits of 0.25 s, so an
    interrupt ends the call within the longer of one chunk's work per thread
    (a few seconds at d = 1000) and one such wait. Each chunk allocates its
    own buffers, so the run holds threads * 32768 * (d + 1) bytes: per
    thread two 2048-row tiles of normals and their product, the tile of
    values and, while it is reduced, their squares. Nothing else grows with
    n or with ``CHUNK_SIZE``: each thread keeps four integers. The d x d
    set-up reads L from ``model.factor``, inverts it once and forms
    K = L^{-1} G L by two BLAS products, holding two d x d arrays at a time
    (K itself is kept until the threads end), before the hold begins, so
    that it runs on the BLAS threads in effect. Up to d = 64 the result does
    not depend on the BLAS thread settings; above that the set-up's rounding
    can depend on them, but never on ``threads``.

    ``n``, ``seed`` and ``threads`` are read by the package's integral rule,
    and a ``threads`` below 1 raises ValueError. Fewer than 2 draws raise
    ``BatchTooSmall``.
    """
    n, seed = _integral_at_least(n, -math.inf, "n"), _integral_at_least(seed, -math.inf, "seed")
    if n < 2:
        raise BatchTooSmall(f"need at least 2 draws, got {n}")
    workers = _worker_count(threads, n)
    kernel = _folded_kernel(model)
    chunks = _Chunks(-(-n // CHUNK_SIZE))

    def summarize() -> list[int]:
        totals = [0, 0, 0, 0]  # in units of 2**-1074, so every addition is exact
        for c in iter(chunks.take, None):
            for y in _chunk_tiles(kernel, seed, c, min(CHUNK_SIZE, n - c * CHUNK_SIZE)):
                for p, s in enumerate(_moment_sums(y)):
                    numerator, denominator = s.as_integer_ratio()
                    totals[p] += numerator << (_UNIT_EXPONENT + 1 - denominator.bit_length())
        return totals

    with _blas_threads_held(), ThreadPoolExecutor(max_workers=workers) as pool:
        try:
            futures = pending = [pool.submit(summarize) for _ in range(workers)]
            while pending and not any(future.exception() for future in futures if future.done()):
                pending = wait(pending, timeout=_WAIT_SECONDS, return_when=FIRST_EXCEPTION).not_done
        finally:
            chunks.stop()
    # int / int is correctly rounded: each sum is rounded once, from the exact total.
    sums = (sum(column) / (1 << _UNIT_EXPONENT) for column in zip(*(future.result() for future in futures)))
    return SampleBatch(n, multiinformation(model), *sums)


def k_statistics(batch: SampleBatch) -> CumulantSequence:
    """Unbiased cumulant estimates k_1..k_4 from a batch's power sums, as a ``CumulantSequence``.

    ``kappa(l)`` is k_l; k_3 and k_4 are NaN when the batch is too small for
    them (n < 3 and n < 4 respectively). k_1 is the sample mean, k_2 the
    unbiased variance, and k_3, k_4 the classical third and fourth
    k-statistics. They are finalized from the power sums s_p about
    ``batch.center``: k_1 = center + s_1 / n, and the sums are moved by the
    binomial expansion to that sample mean. The sums about a center near the
    mean stay accurate where raw power sums cancel, e.g. a mean of 1e8 with
    unit spread. A batch of fewer than 2 draws raises ``BatchTooSmall``.
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
    return CumulantSequence((k1, k2, k3, k4))


def kstat_sampling_variances(kappa: CumulantSequence, n: int) -> tuple[float, float, float, float]:
    """Sampling variances of k_1..k_4 given the true cumulants ``kappa`` of order >= 8.

    The classical finite-sample formulas, read from kappa_2..kappa_8 (kappa_1
    and kappa_7 do not enter); a shorter sequence raises IndexError. ``n`` is
    read by the package's integral rule. The formulas divide by n - 3, so
    fewer than 4 draws raise ``BatchTooSmall``.
    """
    n = _integral_at_least(n, -math.inf, "n")
    if n < 4:
        raise BatchTooSmall(f"need at least 4 draws, got {n}")
    nf = float(n)
    k2, k3, k4, k5, k6, k8 = map(kappa.kappa, (2, 3, 4, 5, 6, 8))
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
    The report does not fingerprint the model; a caller that prints it as a
    document of its own puts the fingerprint ahead of it.

    The order-1 row does not test I: the sampler's center is the same
    ``multiinformation(model)`` that k_1 is compared with, so that row
    tests only that z^T K z / 2 has mean tr K / 2 = 0. An independent check
    of kappa_1 belongs to ``analyze``'s planned ``--verify`` section
    (ROADMAP item 2). Orders 2..4 compare sample statistics of the draws
    with the spectrum's cumulants.

    ``corrupt_order`` shifts one analytic value by 25 standard errors; it
    exists only so a harness can verify that the check actually fails when
    the analytic side is wrong, so an order outside 1..max_order, which
    would shift nothing, raises ValueError. ``max_order``, ``corrupt_order``
    (when given), ``n``, ``seed`` and ``threads`` are read by the package's
    integral rule. The analytic cumulants and their sampling variances are
    formed first, so fewer than 4 draws raise ``BatchTooSmall`` before any
    draw.
    """
    max_order = _integral_at_least(max_order, -math.inf, "max_order")
    if not 1 <= max_order <= 4:
        raise ValueError(f"max_order must be in 1..4, got {max_order}")
    if corrupt_order is not None:
        corrupt_order = _integral_at_least(corrupt_order, -math.inf, "corrupt_order")
        if not 1 <= corrupt_order <= max_order:
            raise ValueError(f"corrupt_order must be in 1..max_order = {max_order}, got {corrupt_order}")
    analytic = cumulants(model, 8)
    variances = kstat_sampling_variances(analytic, n)
    seed = _integral_at_least(seed, -math.inf, "seed")
    batch = sample_density(model, n, seed, threads=threads)
    estimates = k_statistics(batch)

    rows = []
    for order in range(1, max_order + 1):
        target = analytic.kappa(order)
        se = math.sqrt(max(variances[order - 1], 0.0))
        if corrupt_order == order:
            target += 25.0 * max(se, 1.0)
        estimate = estimates.kappa(order)
        diff = estimate - target
        if se > 0.0:
            z = diff / se
        else:
            z = 0.0 if diff == 0.0 else math.copysign(math.inf, diff)
        rows.append(
            {
                "order": order,
                "analytic": target,
                "estimate": estimate,
                "se": se,
                "z": z,
                "margin": abs(z) / Z_THRESHOLD,
                "ok": abs(z) <= Z_THRESHOLD,
            }
        )
    return {
        "n": batch.n,
        "seed": seed & _MASK64,
        "max_order": max_order,
        "z_threshold": Z_THRESHOLD,
        "rows": rows,
        "ok": all(row["ok"] for row in rows),
        "threads": _worker_count(threads, batch.n),
    }
