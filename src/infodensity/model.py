"""Partitioned Gaussian model types and the coupling matrices derived from them.

A model is a mean vector, a positive-definite covariance, and a partition of
the coordinates into N >= 2 blocks. From it we build the coupling matrix
G = S * blockdiag(S_11..S_NN)^{-1} - I with exact-zero diagonal blocks, and
its real spectrum; its off-diagonal block (m, n) is the regression
coefficients C_{m|n} = S_mn S_nn^{-1}, which the package holds nowhere else.

Validation factors the covariance once, and ``compute_gamma`` factors the
diagonal blocks once and forms G and its spectrum from those factors. The
model carries the covariance's factor, the diagonal of the blocks' factors,
G and the spectrum, and every analytic quantity reads them instead of
factoring again; the blocks' factors themselves are freed once inverted,
before G is formed. All types are frozen dataclasses holding read-only
arrays.
"""

from __future__ import annotations

import hashlib
import itertools
import math
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
    """A new C-ordered float copy of ``value``; what cannot be one raises ValueError.

    numpy's float conversion reads booleans and numeric strings as numbers.
    An int beyond the double range, such as a JSON integer literal of 400
    digits, cannot be one. C order, so that the products forming G see one layout
    whatever the caller's.
    """
    try:
        return np.array(value, dtype=float, order="C")
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"{name} must be an array of numbers: {exc}") from None


def _integral(value) -> int | None:
    """``value`` as an int when it equals one, else None: the package's rule for every integer argument.

    4.0 and ``np.int64(4)`` are 4. 2.5, nan, inf, None and the string "4"
    are not integral, and a bool (``np.bool_`` too) is refused by type,
    since True == 1.
    """
    if type(value) is int:
        return value
    try:
        return None if isinstance(value, (bool, np.bool_)) or int(value) != value else int(value)
    except (TypeError, ValueError, OverflowError):
        return None


def _integral_at_least(value, low: float, name: str) -> int:
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

    ``block_sizes`` is any iterable of sizes, each read by the package's
    integral rule and kept as a tuple of ints; a non-iterable, fewer than 2
    blocks, or a size that is not an integer >= 1 raises BadPartition.
    Blocks are indexed 0..n_blocks-1, and ``block_slice`` reads its index
    by the same rule: 1.0 is 1, True raises ValueError, and an integral
    index outside 0..n_blocks-1 raises IndexError.
    """

    block_sizes: tuple[int, ...]
    offsets: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        try:
            given = tuple(self.block_sizes)
        except TypeError:
            raise BadPartition(f"block sizes must be a sequence of integers, got {self.block_sizes!r}") from None
        sizes = tuple(map(_integral, given))
        if None in sizes:
            raise BadPartition(f"block sizes must be integers, got {given}")
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
        n = _integral_at_least(n, -math.inf, "block index")
        if not 0 <= n < self.n_blocks:
            raise IndexError(f"block index {n} out of range for {self.n_blocks} blocks")
        start = self.offsets[n]
        return slice(start, start + self.block_sizes[n])


@dataclass(frozen=True)
class GaussianModel:
    """Validated partitioned Gaussian model (construct via ``validate_model``).

    ``factor`` is the lower Cholesky factor L of the covariance S, and
    ``block_factor_diagonal`` the d-vector diag(L_B) of the block-diagonal
    L_B = blockdiag(L_1..L_N) of the factors of the diagonal blocks S_nn:
    the sum of ln|S_nn| is twice the sum of its logs, and its squares are
    the blocks' Cholesky pivots. ``gamma`` is the coupling matrix
    G = S blockdiag(S_nn)^{-1} - I, whose block (m, n) regresses block m on
    block n and whose diagonal blocks are exact zeros, and
    ``gamma_eigenvalues`` its spectrum, sorted ascending; it is real, and
    every entry exceeds -1 for a valid model. Validation computes all four;
    no d x d block-diagonal factor is kept.
    """

    mean: np.ndarray
    covariance: np.ndarray
    partition: Partition
    factor: np.ndarray = field(repr=False)
    block_factor_diagonal: np.ndarray = field(repr=False)
    gamma: np.ndarray = field(repr=False)
    gamma_eigenvalues: np.ndarray = field(repr=False)

    @property
    def dimension(self) -> int:
        return self.partition.dimension


def validate_model(mean, covariance, block_sizes) -> GaussianModel:
    """Validate raw inputs and return a symmetrized, PD-checked model.

    An exactly symmetric covariance is kept as given, with no pass for the
    bound or the repair. Otherwise asymmetry with |s_ij - s_ji| <= 1e-8 *
    sqrt(|s_ii s_jj|) in every pair is repaired by averaging each entry that
    differs from its mirror with it, by halves; anything larger raises
    NotSymmetric. Entries are read by numpy's float conversion, so a boolean
    reads as 1.0 or 0.0, a numeric string such as "1" or "1e-3" as its
    value, and None as NaN. Any NaN or inf raises NonFiniteInput; an entry
    that converts to no float, such as "x", or an int beyond the double
    range, raises ValueError. The model holds copies of the inputs; the
    caller's arrays are left as they are. Positive definiteness is
    established by Cholesky pivots both for the full matrix and for every
    diagonal block (``compute_gamma``); the model keeps the full matrix's
    factor, the diagonal of the blocks' factors, and the coupling matrix and
    its spectrum formed from them. A
    computed spectrum with an eigenvalue at or below -1 raises
    EigenvalueOutOfRange.
    """
    cov = _float_array(covariance, "covariance")
    if cov.ndim != 2 or cov.shape[0] != cov.shape[1]:
        raise DimensionMismatch(f"covariance must be square, got shape {cov.shape}")
    d = cov.shape[0]
    mu = np.zeros(d) if mean is None else _float_array(mean, "mean")
    if mu.shape != (d,):
        raise DimensionMismatch(f"mean has shape {mu.shape}, covariance is {d}x{d}")
    for name, a in (("mean", mu), ("covariance", cov)):
        if not np.isfinite(a).all():
            raise NonFiniteInput(f"{name} has {np.count_nonzero(~np.isfinite(a))} non-finite entries (NaN or inf)")
    del a  # else an unsymmetrized covariance lives on beside its repair while G is formed

    partition = Partition(block_sizes)
    if partition.dimension != d:
        raise BadPartition(
            f"block sizes {partition.block_sizes} sum to {partition.dimension}, "
            f"covariance is {d}x{d}"
        )

    # An exactly symmetric covariance is kept as given: its bound cannot be
    # exceeded and its repair would change nothing, so neither is computed.
    differs = cov != cov.T
    if differs.any():
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
        # Only the entries that differ from their mirror are averaged: halving
        # would drop the last bit of an odd subnormal, and 5e-324 would become 0.
        cov = np.where(differs, symmetrize(cov), cov)
    del differs

    factor = cholesky_lower(cov, what="covariance")
    gamma, eigenvalues, block_diagonal = compute_gamma(cov, partition)
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
        block_factor_diagonal=_frozen(block_diagonal),
        gamma=_frozen(gamma),
        gamma_eigenvalues=_frozen(eigenvalues),
    )


def compute_gamma(covariance: np.ndarray, partition: Partition):
    """G = S blockdiag(S_nn)^{-1} - I, its ascending spectrum and diag(L_B), as ``(G, eigenvalues, diagonal)``.

    The diagonal blocks S_n of each size are factored as one stack, which
    gives the bits of one potrf per block, and then every pivot is checked
    at once by ``cholesky_lower``'s rule on diag(L_B), the diagonal of the
    block-diagonal L_B = blockdiag(L_1..L_N). A block whose stack failed (its
    factor is left zero) or whose pivot fails goes through that function in
    block order, so the first failing block raises its error, named by
    ``what``, and its factor goes back into its stack. A covariance that
    passes its own check, which ``validate_model`` makes first, passes every
    block's; the blocks are checked all the same. Each size's stack of
    factors is inverted in one call and freed before any d x d array is
    formed; no L_B is formed.

    Block by block, with H = L_B^{-1} S: G's block column n is (L_n^{-T} H_n)^T
    for the row strip H_n of block n (block (m, n) regresses m on n), and the
    spectrum is that of W - I, W = H L_B^{-T} real-symmetric and similar to
    G + I. A size-1 block is a scaling: its column of G is divided by s_jj,
    its row of H and column of W by its factor sqrt(s_jj), read from
    diag(L_B). A larger block forms its b x d strips by products with its
    factor's inverse, written into H, G and W in place, so that no strip is
    held twice. Diagonal blocks of G and W - I are exact zeros, so
    tr G = 0 exactly. The size-1 scaling stays beside the strips, although
    the blocks are factored as one stack per size: forming G by block size
    too made ``validate_model`` slower (medians 1.45 against 1.22 ms at 100
    scalar blocks, 213 against 182 ms at 1000; 2-vCPU x86, one BLAS thread)
    and moved G's last bits. The scalings span the whole matrix when some
    block has size 1 and are skipped when none has: scaling only the slices
    of each run of size-1 blocks made this function slower where the runs
    are many (medians of 7, 4.07 against 3.45 ms at block sizes
    [1, 2, 1, 1, 3] x 20; same host).
    """
    sizes, offsets = np.array(partition.block_sizes), np.array(partition.offsets)
    factors, diagonal = {}, np.empty(len(covariance))
    for b in sorted(set(partition.block_sizes)):
        index = offsets[sizes == b, None] + np.arange(b)
        try:
            factors[b] = np.linalg.cholesky(covariance[index[:, :, None], index[:, None, :]])
        except np.linalg.LinAlgError:
            factors[b] = np.zeros((len(index), b, b))
        diagonal[index] = np.diagonal(factors[b], axis1=1, axis2=2)
    passed = np.square(diagonal) > _pivot_thresholds(np.diagonal(covariance), np.repeat(sizes, sizes))
    for n in np.flatnonzero(~np.logical_and.reduceat(passed, partition.offsets)):
        sl, i = partition.block_slice(n), np.count_nonzero(sizes[:n] == sizes[n])
        factors[sizes[n]][i] = cholesky_lower(covariance[sl, sl], what=f"diagonal block {n}")
        diagonal[sl] = np.diagonal(factors[sizes[n]][i])
    larger = [(slice(start, start + b), inverse) for b, stack in factors.items() if b > 1
              for start, inverse in zip(offsets[sizes == b].tolist(), _inverse_lower(stack))]
    del factors
    scalar = offsets[sizes == 1]
    # Scaling every row and column by diag(L_B) serves the size-1 blocks; the
    # strips of the larger blocks then overwrite their rows and columns. With
    # no size-1 block the strips write every entry, so nothing is scaled.
    if scalar.size:
        half = covariance / diagonal[:, None]
        g = covariance / np.diagonal(covariance)
    else:
        half, g = np.empty_like(covariance), np.empty_like(covariance)
    for sl, inverse in larger:
        np.matmul(inverse, covariance[sl], out=half[sl])
        np.matmul(half[sl].T, inverse, out=g[:, sl])
    w = half / diagonal if scalar.size else np.empty_like(half)
    for sl, inverse in larger:
        np.matmul(half[:, sl], inverse.T, out=w[:, sl])
        w[sl, sl] = g[sl, sl] = 0.0
    w[scalar, scalar] = g[scalar, scalar] = 0.0
    del half
    # symmetrize(w) in place, so that no two temporaries of its size are held: (w / 2) + (w / 2).T has its bits.
    w /= 2.0
    w += w.T
    return g, np.linalg.eigvalsh(w, UPLO="L"), diagonal


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
