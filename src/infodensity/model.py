"""Partitioned Gaussian model types and the coupling matrices derived from them.

A model is a mean vector, a positive-definite covariance, and a partition of
the coordinates into N >= 2 blocks. From it we build:

* the coupling matrix G = S * blockdiag(S_11..S_NN)^{-1} - I with
  exact-zero diagonal blocks, and its real spectrum; its off-diagonal block
  (m, n) is the regression coefficients C_{m|n} = S_mn S_nn^{-1}, which the
  package holds nowhere else,
* for two blocks, the squared canonical correlations rho_k^2, whose +-rho_k
  are G's nonzero eigenvalues.

Validation factors the covariance and its diagonal blocks once, then forms G
and its spectrum from those factors; the model carries all four, and every
analytic quantity reads them instead of factoring again. All types are frozen
dataclasses holding read-only arrays.
"""

from __future__ import annotations

import contextlib
import hashlib
import itertools
from dataclasses import dataclass, field

import numpy as np

from ._linalg import _inverse_lower, _pivot_thresholds, cholesky_lower, symmetrize
from .errors import (
    BadPartition,
    DimensionMismatch,
    EigenvalueOutOfRange,
    NonFiniteInput,
    NotSymmetric,
)

SYMMETRY_RTOL = 1e-8


def _frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _float_array(value, name: str) -> np.ndarray:
    try:
        return np.array(value, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{name} must be an array of numbers: {exc}") from None


def _integral(value) -> int | None:
    """``value`` as an int when it equals one, else None. A bool is refused by type, since True == 1."""
    try:
        return None if isinstance(value, (bool, np.bool_)) or int(value) != value else int(value)
    except (TypeError, ValueError, OverflowError):
        return None


def _integral_at_least(value, low: int, name: str) -> int:
    """``value`` as an int by ``_integral``'s rule, at least ``low``; anything else raises ValueError."""
    number = _integral(value)
    if number is None:
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if number < low:
        raise ValueError(f"{name} must be >= {low}, got {number}")
    return number


@dataclass(frozen=True)
class Partition:
    """Block sizes of a partition, with derived starting offsets.

    Blocks are indexed 0..n_blocks-1.
    """

    block_sizes: tuple[int, ...]
    offsets: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        sizes = tuple(_integral(s) for s in self.block_sizes)
        if None in sizes:
            raise BadPartition(f"block sizes must be integers, got {tuple(self.block_sizes)}")
        if len(sizes) < 2:
            raise BadPartition(f"need at least 2 blocks, got {len(sizes)}")
        if any(s < 1 for s in sizes):
            raise BadPartition(f"every block size must be >= 1, got {sizes}")
        object.__setattr__(self, "block_sizes", sizes)
        object.__setattr__(self, "offsets", tuple(itertools.accumulate(sizes[:-1], initial=0)))

    @property
    def n_blocks(self) -> int:
        return len(self.block_sizes)

    @property
    def dimension(self) -> int:
        return self.offsets[-1] + self.block_sizes[-1]

    def block_slice(self, n: int) -> slice:
        if not 0 <= n < self.n_blocks:
            raise IndexError(f"block index {n} out of range for {self.n_blocks} blocks")
        start = self.offsets[n]
        return slice(start, start + self.block_sizes[n])


@dataclass(frozen=True)
class GaussianModel:
    """Validated partitioned Gaussian model (construct via ``validate_model``).

    ``factor`` is the lower Cholesky factor L of the covariance S, and
    ``block_factor`` the block-diagonal L_B = blockdiag(L_1..L_N) of the
    factors of the diagonal blocks S_nn. ``gamma`` is the coupling matrix
    G = S blockdiag(S_nn)^{-1} - I, whose block (m, n) regresses block m on
    block n and whose diagonal blocks are exact zeros, and
    ``gamma_eigenvalues`` its spectrum, sorted ascending; it is real, and
    every entry exceeds -1 for a valid model. Validation computes all four.
    """

    mean: np.ndarray
    covariance: np.ndarray
    partition: Partition
    factor: np.ndarray = field(repr=False)
    block_factor: np.ndarray = field(repr=False)
    gamma: np.ndarray = field(repr=False)
    gamma_eigenvalues: np.ndarray = field(repr=False)

    @property
    def dimension(self) -> int:
        return self.partition.dimension

    def covariance_block(self, m: int, n: int) -> np.ndarray:
        return self.covariance[self.partition.block_slice(m), self.partition.block_slice(n)]

    def diagonal_block(self, n: int) -> np.ndarray:
        return self.covariance_block(n, n)


def validate_model(mean, covariance, block_sizes) -> GaussianModel:
    """Validate raw inputs and return a symmetrized, PD-checked model.

    Asymmetry with |s_ij - s_ji| <= 1e-8 * sqrt(|s_ii s_jj|) in every pair
    is repaired by averaging with the transpose; anything larger raises
    NotSymmetric, and any NaN or inf raises NonFiniteInput. Positive
    definiteness is established by Cholesky pivots both for the full matrix
    and for every diagonal block; the model keeps those factors, and the
    coupling matrix and its spectrum formed from them. A computed spectrum
    with an eigenvalue at or below -1 raises EigenvalueOutOfRange.
    """
    cov = _float_array(covariance, "covariance")
    if cov.ndim != 2 or cov.shape[0] != cov.shape[1]:
        raise DimensionMismatch(f"covariance must be square, got shape {cov.shape}")
    d = cov.shape[0]
    mu = np.zeros(d) if mean is None else _float_array(mean, "mean").reshape(-1)
    if mu.shape != (d,):
        raise DimensionMismatch(f"mean has length {mu.shape[0]}, covariance is {d}x{d}")
    for name, a in (("mean", mu), ("covariance", cov)):
        bad = np.count_nonzero(~np.isfinite(a))
        if bad:
            raise NonFiniteInput(f"{name} has {bad} non-finite entries (NaN or inf)")
    del a  # else the unsymmetrized copy of the covariance lives on while G is formed

    try:
        sizes = tuple(block_sizes)
    except TypeError:
        raise BadPartition(f"block sizes must be a sequence of integers, got {block_sizes!r}") from None
    partition = Partition(sizes)
    if partition.dimension != d:
        raise BadPartition(
            f"block sizes {partition.block_sizes} sum to {partition.dimension}, "
            f"covariance is {d}x{d}"
        )

    # Scale-free per pair; the bound multiplies, so a zero s_ii divides nothing.
    root = np.sqrt(np.abs(np.diagonal(cov)))
    excess = abs(cov - cov.T) - SYMMETRY_RTOL * root[:, None] * root
    i, j = np.unravel_index(np.argmax(excess), excess.shape)
    if excess[i, j] > 0:
        raise NotSymmetric(
            f"covariance asymmetry {abs(cov[i, j] - cov[j, i]):.3g} at ({i}, {j}) exceeds "
            f"{SYMMETRY_RTOL:g} * sqrt(|s_ii s_jj|) = {SYMMETRY_RTOL * root[i] * root[j]:.3g}"
        )
    del excess
    # An entry equal to its mirror is kept as given: halving would drop the
    # last bit of an odd subnormal, and 5e-324 would become 0.
    cov = np.where(cov == cov.T, cov, symmetrize(cov))

    factor = cholesky_lower(cov, what="covariance")
    # The diagonal blocks of each size are factored as one stack, which gives
    # the bits of one potrf per block, and then every pivot is checked at once
    # by cholesky_lower's rule. A block whose stack failed (its factor is left
    # zero) or whose pivot fails goes through that function in block order, so
    # the first failing block raises its error, named by ``what``. A
    # covariance that passes its own check passes every block's, which is
    # asserted independently.
    block_factor = np.zeros_like(cov)
    sizes = np.array(partition.block_sizes)
    for b in sorted(set(partition.block_sizes)):
        index = np.array(partition.offsets)[sizes == b, None] + np.arange(b)
        cells = index[:, :, None], index[:, None, :]
        with contextlib.suppress(np.linalg.LinAlgError):
            block_factor[cells] = np.linalg.cholesky(cov[cells])
    passed = np.square(np.diagonal(block_factor)) > _pivot_thresholds(np.diagonal(cov), np.repeat(sizes, sizes))
    for n in np.flatnonzero(~np.logical_and.reduceat(passed, partition.offsets)):
        sl = partition.block_slice(n)
        block_factor[sl, sl] = cholesky_lower(cov[sl, sl], what=f"diagonal block {n}")
    gamma, eigenvalues = compute_gamma(cov, block_factor, partition)
    # Every eigenvalue exceeds -1 in exact arithmetic, but a covariance this
    # close to singular can round the smallest to -1 or below.
    if not 1.0 + eigenvalues[0] > 0.0:
        raise EigenvalueOutOfRange(
            f"coupling spectrum has 1 + lambda_min = {1.0 + eigenvalues[0]:.6g}, not above 0; "
            "the covariance is too close to singular"
        )
    return GaussianModel(
        mean=_frozen(mu),
        covariance=_frozen(cov),
        partition=partition,
        factor=_frozen(factor),
        block_factor=_frozen(block_factor),
        gamma=_frozen(gamma),
        gamma_eigenvalues=_frozen(eigenvalues),
    )


def canonical_correlations(model: GaussianModel) -> tuple[float, ...]:
    """Squared canonical correlations between the two blocks, sorted descending.

    They are the squared singular values of the whitened cross-covariance
    Y = L_0^{-1} S_01 L_1^{-T}, with L_n the factor of S_nn (Bjorck & Golub
    1973): min(n_0, n_1) values, none negative, and a weak one beside a strong
    one keeps its digits, which the eigenvalues of Y Y^T would lose. Each side
    is whitened by its own factor, Y = L_0^{-1} (L_1^{-1} S_10)^T: taken left
    to right, the product lost the weak value of the 2 + 3 model the tests pin
    to 3.7e-5 relative. Only the diagonal-block factors and S_01 are read,
    never G, so this is a route to the two-block spectrum apart from G's.
    They add up to the variance. With a scalar block the one value is the
    squared multiple correlation of that coordinate on the other block, and
    with two scalar blocks the squared correlation coefficient.
    """
    if model.partition.n_blocks != 2:
        raise BadPartition(f"two-block analysis needs exactly 2 blocks, got {model.partition.n_blocks}")
    first, second = (model.partition.block_slice(n) for n in (0, 1))
    half = _inverse_lower(model.block_factor[second, second]) @ model.covariance[second, first]
    whitened = _inverse_lower(model.block_factor[first, first]) @ half.T
    values = tuple(float(s) ** 2 for s in np.linalg.svd(whitened, compute_uv=False))
    if values[0] >= 1.0:
        raise ValueError(f"squared canonical correlation {values[0]} >= 1; model is singular")
    return values


def compute_gamma(covariance: np.ndarray, block_factor: np.ndarray, partition: Partition):
    """G = S blockdiag(S_nn)^{-1} - I and its ascending spectrum, as ``(G, eigenvalues)``.

    Block by block, with H = L_B^{-1} S: G's block column n is (L_n^{-T} H_n)^T
    for the row strip H_n of block n (block (m, n) regresses m on n), and the
    spectrum is that of W - I, W = H L_B^{-T} real-symmetric and similar to
    G + I. A size-1 block is a scaling: its column of G is divided by s_jj,
    its row of H and column of W by sqrt(s_jj). A larger block inverts its
    factor once and forms its b x d strips by products with that inverse.
    Diagonal blocks of G and W - I are exact zeros, so tr G = 0 exactly.
    The size-1 scaling stays beside the strips, although validation factors
    the blocks as one stack per size: forming G by block size too made
    ``validate_model`` slower (medians 1.45 against 1.22 ms at 100 scalar
    blocks, 213 against 182 ms at 1000; 2-vCPU x86, one BLAS thread) and
    moved G's last bits.
    """
    sizes = np.array(partition.block_sizes)
    scalar = np.array(partition.offsets)[sizes == 1]
    larger = [partition.block_slice(n) for n in np.flatnonzero(sizes > 1)]
    inverses = [_inverse_lower(block_factor[sl, sl]) for sl in larger]
    # Scaling every row and column serves the size-1 blocks; the strips of the
    # larger blocks are then overwritten by their products.
    half = covariance / np.diagonal(block_factor)[:, None]
    g = covariance / np.diagonal(covariance)
    for sl, inverse in zip(larger, inverses):
        half[sl] = inverse @ covariance[sl]
        g[:, sl] = half[sl].T @ inverse
    w = half / np.diagonal(block_factor)
    for sl, inverse in zip(larger, inverses):
        w[:, sl] = half[:, sl] @ inverse.T
        w[sl, sl] = g[sl, sl] = 0.0
    w[scalar, scalar] = g[scalar, scalar] = 0.0
    del half
    # symmetrize(w) in place, so that no two temporaries of its size are held: (w / 2) + (w / 2).T has its bits.
    w /= 2.0
    w += w.T
    return g, np.linalg.eigvalsh(w, UPLO="L")


def model_fingerprint(model: GaussianModel) -> str:
    """Stable hex digest of (partition, mean, covariance).

    Hashes the little-endian IEEE-754 bytes of the symmetrized inputs, so the
    value is reproducible across runs and platforms.
    """
    h = hashlib.sha256()
    h.update(b"infodensity-model-v1")
    # The arrays' buffers are hashed in place: a d x d covariance is not copied to bytes.
    h.update(np.asarray(model.partition.block_sizes, dtype="<i8"))
    h.update(np.ascontiguousarray(model.mean, dtype="<f8"))
    h.update(np.ascontiguousarray(model.covariance, dtype="<f8"))
    return h.hexdigest()
